"""Exact linear algebra over prime fields GF(p).

All matrices are numpy int64 arrays with entries reduced into [0, p), and
p < 2**16 so that products fit comfortably in 64-bit intermediates.

Each question has one route.  Ranks and row spaces (`rref_array`,
`row_space`), kernels (`kernel_array`, and `kernel_rref` for a canonical
basis from one sparse elimination) and solutions (`solve_many`) all rest on
`rref_inplace` or on its sparse elimination, and products mod p go through
`matmul_mod`.  Reduced row-echelon form is canonical, so these routines are
deterministic and reproducible bit for bit.  `rref_inplace` has two paths
that give the same rows and pivots:

- a sparse Gauss-Jordan elimination over rows held as {column: value}
  maps.  The matrices gorlab eliminates have their entries in m, and
  m^3 = 0 leaves them a few nonzeros per row (0.4-1.3% of the entries of
  one perfbench batch), so this path does only the work the nonzeros need;
- the blocked dense kernel, whose panel-sized accumulations stay below
  2**53, so trailing updates run through BLAS (float64 matmul) exactly.

`kernel_rref` takes a matrix as (row, column, value) triplets and
eliminates it in the same {column: value} rows (`_eliminate`), so it builds
no dense array unless it falls back: one pass with the columns right to
left leaves the canonical rref basis of the kernel, which it returns as
triplets read off the pivot rows.  It serves the resolution, whose kernels
are written out, and homology, which reads only their ranks and spans and
relabels the columns so the pass takes them fewest entries first, which
fills least; `dense` writes such triplets out as an array.

One rule with one constant, `_SPARSE_SHARE`, chooses: a sparse path may
hold at most that share of the dense array's entries.  An input with more
nonzeros goes to the dense kernel at once; an elimination whose fill grows
past it drops its work and runs the dense kernel on the untouched input.
`kernel_rref` also takes the room its caller can still allocate: its sparse
elimination stores at most the entries that fit in it, and its dense
fallback raises NotMaterialized, before it allocates, when the arrays it
would hold do not fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotMaterialized, NotPrime

_BLOCK = 96

# A sparse path holds at most this share of the dense array's entries.
# A stored entry costs 100-130 bytes of dicts and sets (tracemalloc), so at
# 0.1 the sparse path peaks at 1.3-1.6x the int64 array, below the 2.9x the
# dense kernel allocates beside it.  Over the rref inputs of one batch of
# `tor_ext_pairs` (2 vCPU, seed 0), rref took 1.10 s at a share of 0.05,
# 0.73 s at 0.1 and 0.73 s at 0.2; on random sparse matrices, whose fill
# runs away, the sparse work dropped at 0.1 cost 0.06-0.74x the dense time.
_SPARSE_SHARE = 0.1
# What `kernel_rref` holds, checked against its room: its elimination up to
# _ENTRY_BYTES per stored entry and _LINE_BYTES per row and column (a dict,
# a set, kernel entries: at most 310 bytes under tracemalloc at e = 3, 4, 5),
# its dense fallback 8 (5 m n + 2 n^2) bytes (the dense rref has five m x n
# arrays alive at once, the kernel and its triplets up to 2 n^2 cells; 0.51-
# 0.83 of that measured on random matrices of 200 to 3000 rows and columns).
_ENTRY_BYTES = 130
_LINE_BYTES = 400


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
    rows and the rows below are zero.  An R with at most `_SPARSE_SHARE` of
    its entries nonzero is eliminated sparsely (`_rref_sparse`); a denser
    one, or one whose fill outgrows that share, by the blocked dense
    kernel (`_rref_dense`).  The rref is unique, so both give the same
    rows and pivots.
    """
    m, n = R.shape
    budget = _SPARSE_SHARE * m * n
    if np.count_nonzero(R) <= budget:
        pivots = _rref_sparse(R, p, budget)
        if pivots is not None:
            return pivots
    return _rref_dense(R, p, _BLOCK)


def _rref_sparse(R: np.ndarray, p: int, budget: float):
    """Gauss-Jordan elimination of R over rows held as {column: value}
    maps (`_eliminate`), columns left to right; the pivot columns, or None
    once more than `budget` entries are stored, in which case R is left
    untouched.  The pivot rows, in pivot order, are the canonical rref, and
    R is written only at the end."""
    ri, ci = np.nonzero(R)
    stored = len(ri)
    rows, where = _sparse_rows(ri, ci, R[ri, ci], R.shape[0])
    del ri, ci   # freed before the fill grows
    pivot_row = _eliminate(rows, where, list(where), p, budget, stored)
    if pivot_row is None:
        return None
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


def _eliminate(rows: list, where: dict, columns, p: int, budget: float,
               stored: int):
    """Gauss-Jordan elimination of the rows and column sets of
    `_sparse_rows`, in place, taking the columns in the order `columns`
    (every column of `where`): {pivot column: its row}, in the order
    pivoted, or None once more than `budget` entries are stored.

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


def _rref_dense(R: np.ndarray, p: int, block: int):
    """Blocked right-looking rref of R in place; the pivot columns.

    Pivots are found and cleared inside a narrow column panel (numpy row
    ops on the active rows only), while the trailing columns and the
    already-finished rows above are updated once per panel through float64
    matmuls.  The inner dimension of every matmul is at most `block`, so
    accumulations are bounded by block * (p-1)^2 < 2**53 and the float64
    path is exact.
    """
    m, n = R.shape
    pivots: list[int] = []
    r = 0
    c0 = 0
    while c0 < n and r < m:
        b = min(block, n - c0)
        act = R[r:, c0:c0 + b]
        na = m - r
        kmax = min(b, na)
        # aug tracks, for every active row, its composition in terms of the
        # panel's pivot rows as they were at panel start
        aug = np.zeros((na, kmax), dtype=np.int64)
        local: list[int] = []
        is_piv = np.zeros(na, dtype=bool)
        for c in range(b):
            k = len(local)
            if k == kmax:
                break
            nz = np.nonzero(act[:, c] * ~is_piv)[0]
            if nz.size == 0:
                continue
            pr = int(nz[0])
            aug[pr, k] += 1
            inv = pow(int(act[pr, c]), p - 2, p)
            if inv != 1:
                act[pr] = (act[pr] * inv) % p
                aug[pr, :k + 1] = (aug[pr, :k + 1] * inv) % p
            rows = np.nonzero(act[:, c])[0]
            rows = rows[rows != pr]
            if rows.size:
                f = act[rows, c]
                act[rows] = (act[rows] - f[:, None] * act[pr][None, :]) % p
                aug[rows, :k + 1] = (
                    aug[rows, :k + 1] - f[:, None] * aug[pr][None, :k + 1]
                ) % p
            local.append(pr)
            is_piv[pr] = True
            pivots.append(c0 + c)
        k = len(local)
        if k:
            # move pivot rows (in pivot-column order) to the front, keep the
            # other active rows in stable order below them
            rest = [i for i in range(na) if not is_piv[i]]
            new_order = local + rest
            act[:] = act[new_order]
            aug = aug[new_order, :k]
            if c0 + b < n:
                T = R[r:, c0 + b:]
                T[:] = T[new_order]
                Tpiv = T[:k].astype(np.float64)
                base = T.copy()
                base[:k] = 0
                T[:] = (base + (aug.astype(np.float64) @ Tpiv).astype(np.int64)) % p
            # clear the new pivot columns in the finished rows above
            if r:
                cols_local = [pc - c0 for pc in pivots[-k:]]
                C = R[:r, c0:c0 + b][:, cols_local].copy()
                if C.any():
                    U = R[:r, c0:]
                    P = R[r:r + k, c0:].astype(np.float64)
                    U[:] = (U - (C.astype(np.float64) @ P).astype(np.int64)) % p
            r += k
        c0 += b
    return pivots


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
    columns its pivots.  An input with more than `_SPARSE_SHARE` of its m n
    entries nonzero, or whose fill grows past that share, is densified
    instead, and `kernel_array` of the column-reversed matrix, read
    backwards, gives the same rows.

    `room` is the bytes the caller can still allocate.  The elimination
    stores no more entries than fit in it, and the fallback raises
    NotMaterialized before it allocates when its arrays do not (see
    `_ENTRY_BYTES`).  Past 24 columns, an elimination that the room stopped
    always ends in that refusal.
    """
    m, n = shape
    budget = min(_SPARSE_SHARE * m * n,
                 (room - _LINE_BYTES * (m + n)) / _ENTRY_BYTES)
    if len(vals) <= budget:
        data, where = _sparse_rows(np.asarray(rows), np.asarray(cols), np.asarray(vals), m)
        pivot_row = _eliminate(data, where, sorted(where, reverse=True), p,
                               budget, len(vals))
        if pivot_row is not None:
            kr, kc, kv, free = _kernel_entries(data, pivot_row, n, p)
            order = np.argsort(kr * n + kc)
            return kr[order], kc[order], kv[order], free.tolist()
        del data, where   # the failed elimination's fill, before the fallback
    need = 8 * (5 * m * n + 2 * n * n)
    if need > room:
        raise NotMaterialized(
            f"a dense {m} x {n} kernel needs about {need / 2**20:.0f} MiB, "
            f"the process can get {max(room, 0) / 2**20:.0f} MiB")
    K = kernel_array(dense(rows, cols, vals, shape)[:, ::-1], p)[::-1, ::-1]
    kr, kc = np.nonzero(K)
    lead = np.flatnonzero(np.diff(kr, prepend=-1))
    return kr, kc, K[kr, kc], kc[lead].tolist()


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
    m, n = A.shape
    # row-reduce [A | I]; the identity block records the row transform T,
    # which stays valid even after elimination continues past A's columns
    aug = np.concatenate([A, np.eye(m, dtype=np.int64)], axis=1)
    R, pivots, _ = rref_array(aug, p)
    a_piv = [c for c in pivots if c < n]
    ra = len(a_piv)
    TB = matmul_mod(R[:, n:], B, p)
    out = []
    for j in range(B.shape[1]):
        if TB[ra:, j].any():
            out.append(None)
            continue
        x = np.zeros(n, dtype=np.int64)
        x[a_piv] = TB[:ra, j]
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
