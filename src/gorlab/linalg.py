"""Exact linear algebra over prime fields GF(p).

All matrices are numpy int64 arrays with entries reduced into [0, p), and
p < 2**16 so that products fit comfortably in 64-bit intermediates.

Each question has one route.  Ranks and row spaces (`rref_array`,
`row_space`), kernels (`kernel_array`, and `kernel_rref` for a canonical
basis) and solutions (`solve_many`) all rest on one Gauss-Jordan
elimination, `_eliminate`, over rows held as {column: value} maps, and
products mod p go through `matmul_mod`.  The matrices gorlab eliminates have
their entries in m, and m^3 = 0 leaves them a few nonzeros per row (0.4-1.3%
of the entries of one perfbench batch), so the elimination does only the
work the nonzeros need.  Reduced row-echelon form is canonical, so these
routines are deterministic and reproducible bit for bit.

`rref_inplace` takes the columns left to right and writes the rref back
into its array.  `kernel_rref` takes a matrix as (row, column, value)
triplets and builds no dense array: one pass with the columns right to left
leaves the canonical rref basis of the kernel, which it returns as triplets
read off the pivot rows.  It serves the resolution, whose kernels are
written out, and homology, which reads only their ranks and spans and
relabels the columns so the pass takes them fewest entries first, which
fills least; `dense` writes such triplets out as an array.

One rule bounds memory: `kernel_rref` takes the room its caller can still
allocate and stores no more entries than fit in it, at `ENTRY_BYTES` per
entry and `LINE_BYTES` per row and column.  An elimination that the room
stops raises NotMaterialized before it allocates more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotMaterialized, NotPrime

# What `kernel_rref` holds, checked against its room: up to ENTRY_BYTES per
# stored entry and LINE_BYTES per row and column (a dict, a set, kernel
# entries: at most 310 bytes under tracemalloc at e = 3, 4, 5).
ENTRY_BYTES = 130
LINE_BYTES = 400


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field GF(p) for a prime p with 2 <= p < 2**16."""

    p: int

    def __post_init__(self):
        if not (2 <= self.p < 2 ** 16):
            raise NotPrime(f"modulus {self.p} out of range [2, 2^16)")
        if not _is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")


def rref_inplace(R: np.ndarray, p: int):
    """Reduce R to reduced row-echelon form in place; return pivot columns.

    R holds entries in [0, p); on return its first rank rows are the rref
    rows and the rows below are zero.  The elimination (`_eliminate`) takes
    the columns left to right, so its pivot rows, in pivot order, are the
    canonical rref, and R is written only at the end."""
    ri, ci = np.nonzero(R)
    rows, where = _sparse_rows(ri, ci, R[ri, ci], R.shape[0])
    del ri, ci   # freed before the fill grows
    pivot_row = _eliminate(rows, where, list(where), p)
    R.fill(0)
    ix: list[int] = []
    jx: list[int] = []
    vx: list[int] = []
    for k, i in enumerate(pivot_row.values()):
        ix.extend([k] * len(rows[i]))
        jx.extend(rows[i])
        vx.extend(rows[i].values())
    R[ix, jx] = vx
    return list(pivot_row)


def _sparse_rows(ri, ci, vi, m: int):
    """(rows, where) for the m-row matrix with nonzero entries vi at (ri,
    ci): rows[i] maps the columns of row i to its entries (None for a zero
    row, which elimination never touches), and where[c] is the set of rows
    with an entry in column c, its keys in increasing order.  Each map is
    built whole, at its final size."""
    stored = len(vi)
    rows: list = [None] * m
    order = np.argsort(ri, kind="stable")
    nz, starts = np.unique(ri[order], return_index=True)
    cl, vals = ci[order].tolist(), vi[order].tolist()
    starts = starts.tolist() + [stored]
    for i, a, b in zip(nz.tolist(), starts, starts[1:]):
        rows[i] = dict(zip(cl[a:b], vals[a:b]))
    order = np.argsort(ci, kind="stable")
    cols, starts = np.unique(ci[order], return_index=True)
    by_col, starts = ri[order].tolist(), starts.tolist() + [stored]
    where = {c: set(by_col[a:b]) for c, a, b in zip(cols.tolist(), starts, starts[1:])}
    return rows, where


def _eliminate(rows: list, where: dict, columns, p: int,
               budget: float = float("inf"), stored: int = 0):
    """Gauss-Jordan elimination of the rows and column sets of
    `_sparse_rows`, in place, taking the columns in the order `columns`
    (every column of `where`): {pivot column: its row}, in the order
    pivoted, or None once more than `budget` entries are stored, counting
    from the `stored` entries of the input.

    Each column takes as pivot the sparsest row not yet used that is
    nonzero there (the lowest index on a tie), scales it to a unit, and
    clears the column from every other row, the used ones too.  A pivot row
    was unused when it pivoted, and a row not yet used is zero on every
    column done, so fill only copies a column where some row already has an
    entry and never reaches a column done, in whatever order the columns
    go.  The pivot rows end with their own pivot column and the columns
    that got no pivot alone: a reduced system, the canonical rref when the
    columns go left to right."""
    used = bytearray(len(rows))
    pivot_row: dict = {}
    for c in columns:
        col = where.pop(c)
        best, size = -1, 0
        for i in col:
            if not used[i] and (best < 0 or len(rows[i]) < size
                                or (len(rows[i]) == size and i < best)):
                best, size = i, len(rows[i])
        if best < 0:
            continue
        prow = rows[best]
        inv = pow(prow[c], p - 2, p)
        if inv != 1:
            for j in prow:
                prow[j] = prow[j] * inv % p
        used[best] = 1
        pivot_row[c] = best
        items = [(j, v) for j, v in prow.items() if j != c]
        for i in col:
            if i == best:
                continue
            row = rows[i]
            f = p - row.pop(c)
            for j, v in items:
                x = row.get(j)
                if x is None:
                    row[j] = f * v % p
                    where[j].add(i)
                    stored += 1
                else:
                    x = (x + f * v) % p
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        where[j].discard(i)
                        stored -= 1
            stored -= 1
            if stored > budget:
                return None
    return pivot_row


def rref_array(A: np.ndarray, p: int):
    """Reduced row-echelon form of a fresh copy; returns (R, pivots, rank)."""
    R = np.array(A, dtype=np.int64, order="C")
    R %= p
    if R.size == 0:
        return R, [], 0
    pivots = rref_inplace(R, p)
    return R, pivots, len(pivots)


def rank_array(A: np.ndarray, p: int) -> int:
    return rref_array(A, p)[2]


def matmul_mod(X: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    """X @ Y reduced into [0, p), for int64 X and Y with entries in [0, p)
    (numpy matmul, batched over leading axes).  Each entry is a sum of
    k = X.shape[-1] products below p^2, so the float64 product is exact
    while k (p-1)^2 < 2**53; past that bound it is taken in int64."""
    if X.shape[-1] * (p - 1) ** 2 < 2 ** 53:
        out = (X.astype(np.float64) @ Y.astype(np.float64)).astype(np.int64)
    else:
        out = X @ Y
    out %= p
    return out


def row_space(A: np.ndarray, p: int):
    """Canonical rref basis of the row space of A: (basis rows, pivots),
    the first rank rows of `rref_array`."""
    R, pivots, rank = rref_array(A, p)
    return R[:rank], pivots


def kernel_array(A: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel {v : A v = 0}, one vector per row.

    Deterministic: free columns in increasing order, each set to 1 in turn.
    """
    n = A.shape[1]
    R, pivots, rank = rref_array(A, p)
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    K = np.zeros((len(free), n), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    K[:, pivots] = (-R[:rank, free].T) % p
    return K


def kernel_rref(rows, cols, vals, shape, p: int, room: float = float("inf")):
    """Canonical rref basis of the right kernel of the m x n matrix `shape`
    whose nonzero entries are vals[k] in [1, p) at (rows[k], cols[k]),
    distinct positions: (rows, cols, vals, pivots), the nonzero entries of
    the kernel's rows in row-major order and the pivot of each row.

    Equal to rref_array(kernel_array(A)) restricted to its rank, from one
    Gauss-Jordan elimination (`_eliminate`) with the columns taken right to
    left.  A row is zero on every column done when it pivots, so each pivot
    row ends with its pivot column and free columns to the left of it.  The
    kernel vector of a free column f is 1 at f and -v at the pivot c > f of
    each pivot row with an entry v at f: f leads, no other vector has an
    entry there, so the vectors in increasing f are the rref and the free
    columns its pivots.

    `room` is the bytes the caller can still allocate.  The elimination
    stores no more entries than fit in it (see `ENTRY_BYTES`): an input
    that does not fit, or whose fill outgrows the room, raises
    NotMaterialized before more is allocated.
    """
    m, n = shape
    budget = (room - LINE_BYTES * (m + n)) / ENTRY_BYTES
    pivot_row = None
    if len(vals) <= budget:
        data, where = _sparse_rows(np.asarray(rows), np.asarray(cols), np.asarray(vals), m)
        pivot_row = _eliminate(data, where, sorted(where, reverse=True), p,
                               budget, len(vals))
    if pivot_row is None:
        raise NotMaterialized(
            f"a {m} x {n} elimination of {len(vals)} entries outgrows the "
            f"{max(room, 0) / 2**10:.1f} KiB the process can get, room for "
            f"{max(int(budget), 0)} stored entries")
    kr, kc, kv, free = _kernel_entries(data, pivot_row, n, p)
    order = np.argsort(kr * n + kc)
    return kr[order], kc[order], kv[order], free.tolist()


def dense(rows, cols, vals, shape) -> np.ndarray:
    """The int64 matrix of the given shape with entries vals at (rows, cols)
    and zeros elsewhere."""
    A = np.zeros(shape, dtype=np.int64)
    A[rows, cols] = vals
    return A


def _kernel_entries(data: list, pivot_row: dict, n: int, p: int):
    """The kernel of the reduced system `_eliminate` leaves in `data`, over
    n columns, one vector per free column f: 1 at f and -v at the pivot of
    each pivot row with an entry v at f.  Returns (vector, column, value,
    free columns), the entries in no order."""
    is_free = np.ones(n, dtype=bool)
    is_free[list(pivot_row)] = False
    free = np.flatnonzero(is_free)
    at = np.cumsum(is_free) - 1   # the kernel vector of each free column
    kx: list[int] = []
    cx: list[int] = []
    vx: list[int] = []
    for c, i in pivot_row.items():
        for j, v in data[i].items():
            if j != c:
                kx.append(j)
                cx.append(c)
                vx.append(p - v)
    kr = np.concatenate([np.arange(len(free)), at[np.asarray(kx, dtype=np.int64)]])
    kc = np.concatenate([free, np.asarray(cx, dtype=np.int64)])
    kv = np.concatenate([np.ones(len(free), dtype=np.int64),
                         np.asarray(vx, dtype=np.int64)])
    return kr, kc, kv, free


def solve_many(A: np.ndarray, B: np.ndarray, p: int):
    """Solve A x = b for every column b of B with one elimination.

    Returns a list with one entry per column of B: the deterministic
    particular solution (free variables 0) or None when inconsistent.
    """
    A = np.asarray(A, dtype=np.int64) % p
    B = np.asarray(B, dtype=np.int64) % p
    n = A.shape[1]
    # row-reduce [A | B]: column j is consistent iff the rows below A's rank
    # vanish on it, and then its entries on A's pivot rows are the solution
    R, pivots, _ = rref_array(np.concatenate([A, B], axis=1), p)
    a_piv = [c for c in pivots if c < n]
    ra = len(a_piv)
    out = []
    for j in range(n, R.shape[1]):
        if R[ra:, j].any():
            out.append(None)
            continue
        x = np.zeros(n, dtype=np.int64)
        x[a_piv] = R[:ra, j]
        out.append(x)
    return out


def solve_array(A: np.ndarray, b: np.ndarray, p: int):
    """A particular solution of A x = b with free variables 0, or None."""
    return solve_many(A, np.asarray(b, dtype=np.int64).reshape(-1, 1), p)[0]


def reduce_mod_rowspace(R: np.ndarray, pivots, V: np.ndarray, p: int):
    """Reduce the rows of V modulo the row space spanned by the rref rows R.

    R must be in rref with pivot columns `pivots`: its first len(pivots)
    rows are the identity on those columns.  Then V - V[:, pivots] @ R
    vanishes on them, so only the free columns are computed and the pivot
    columns of the result are 0.
    """
    if len(pivots) == 0 or V.size == 0:
        return V % p
    pivots = list(pivots)
    free = np.ones(V.shape[1], dtype=bool)
    free[pivots] = False
    prod = matmul_mod(V[:, pivots] % p, R[: len(pivots)][:, free], p)
    out = np.zeros(V.shape, dtype=np.int64)
    out[:, free] = (V[:, free] - prod) % p
    return out


def in_rowspace(R: np.ndarray, pivots, V: np.ndarray, p: int) -> bool:
    return not reduce_mod_rowspace(R, pivots, V, p).any()
