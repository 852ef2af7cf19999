"""Exact linear algebra over prime fields GF(p).

All matrices are numpy int64 arrays with entries reduced into [0, p), and
p < 2**16 so that products fit comfortably in 64-bit intermediates.

Each question has one route.  Ranks and row spaces (`rref_array`,
`row_space`), kernels (`kernel_array`, and `kernel_rref` for a canonical
basis), ranks of triplets (`rank_triplets`) and solutions (`solve_many`) all
rest on one sparse elimination over rows held as {column: value} maps, and
products mod p go through `matmul_mod`.  The matrices gorlab eliminates have
their entries in m, and m^3 = 0 leaves them a few nonzeros per row (0.4-1.3%
of the entries of one perfbench batch), so the elimination does only the
work the nonzeros need.  Reduced row-echelon form is canonical, so these
routines are deterministic and reproducible bit for bit.

The elimination has two passes.  The forward pass (`_eliminate`) clears each
pivot column from the rows not yet used only, which fixes the pivots and so
the rank; the back-substitution (`_back_substitute`) then clears the pivot
columns from the earlier pivot rows, in reverse order, which leaves the
rows Gauss-Jordan elimination leaves.  Each caller runs the back-substitution
only where it reads reduced rows: `rref_inplace` always, `kernel_rref` only
when a free column is left, so a zero kernel skips it, and `rank_triplets`
never.

`rref_inplace` takes the columns left to right and writes the rref back
into its array.  `kernel_rref` takes a matrix as (row, column, value)
triplets and builds no dense array: the two passes with the columns right
to left leave the canonical rref basis of the kernel, which it returns as
triplets read off the pivot rows.  It serves the resolution, whose kernels
are written out, and homology, which reads only their ranks and spans and
relabels the columns so the pass takes them fewest entries first, which
fills least; `dense` writes such triplets out as an array.  Before the
elimination, `kernel_rref` peels rows with a single entry: their columns are
pivots in every column order, so the dict engine never sees them.
`rank_triplets`, which homology reads where it needs a map's rank alone,
also peels columns with a single entry, which a rank allows and a canonical
basis does not.

`kernel_rref` and `rank_triplets` have one engine and two conversion routes
into and out of it.  Most of their calls are small (a resolution step after
the first eliminates the linear part of a differential, a median of about a
dozen entries), and for them numpy's per-call overhead, not the elimination,
was most of the time.  An input with at most `_SMALL_ENTRIES` entries
(`plain_route`, the one size threshold, by which a resolution step also
picks the builder of its linear part) therefore takes the peel, the row
maps and the kernel entries in plain Python; a larger one takes them with
numpy, whose fixed cost pays off there.  Both hand `_eliminate` the same
rows, budget and stored count, so the route changes the time of a call,
never its output or its refusals.  The entries come back as they came in:
lists to a caller that passes lists (the resolution step's cover matrix and
the linear part of a small differential), int64 arrays to one that passes
arrays, so a small call converts only for array callers.

One rule bounds memory: `kernel_rref` and `rank_triplets` take the room
their caller can still allocate and store no more entries than fit in it,
at `ENTRY_BYTES` per entry and `LINE_BYTES` per row and column
(`resolution.join_sum` counts its entries and pairs alike), in either pass.
An elimination that the room stops raises NotMaterialized before it
allocates more.  The forward pass holds the used rows as they pivoted until
the back-substitution, so its peak can lie a few entries above that of
Gauss-Jordan elimination, which shrinks them at once.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import NotMaterialized, NotPrime

# What `kernel_rref` and `rank_triplets` hold, checked against the room: up
# to ENTRY_BYTES per stored entry and LINE_BYTES per row and column (a dict,
# a set, kernel entries: at most 310 bytes under tracemalloc at e = 3, 4, 5).
# The input's entries are checked before the singleton pre-pass, so the check
# also covers what the pre-pass holds: per input entry, two rounds' int64
# copies of the entries and a few boolean masks (under 60 bytes), and per row
# and column an int64 count or a boolean.  An input of at most
# `_SMALL_ENTRIES` entries holds lists of Python ints instead, with no numpy
# overhead: on the small inputs of a perfbench batch it peaked at most 1.07
# times its check under tracemalloc, where numpy's route peaked up to 4.3
# times.
ENTRY_BYTES = 130
LINE_BYTES = 400
# `kernel_rref` and `rank_triplets` convert an input of at most this many
# entries in plain Python.  Replaying the inputs of a perfbench
# `betti_verdicts` and `tor_ext_pairs` batch through both routes
# (BENCH_32.json), the two broke even between about 64 and 128 entries, and
# the total over both batches was flat from 48 to 128 entries and near the
# best route for every input.
_SMALL_ENTRIES = 64


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
    rows and the rows below are zero.  The forward pass (`_eliminate`)
    takes the columns left to right, and the back-substitution
    (`_back_substitute`) reduces its pivot rows, which in pivot order are
    then the canonical rref; R is written only at the end."""
    ri, ci = np.nonzero(R)
    rows, where = _sparse_rows(ri, ci, R[ri, ci], R.shape[0])
    del ri, ci   # freed before the fill grows
    pivot_row, _ = _eliminate(rows, where, list(where), p)
    _back_substitute(rows, where, pivot_row, p)
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
    rows: list = [None] * m
    order, nz, ends = _runs(ri)
    cl, vals = ci[order].tolist(), vi[order].tolist()
    for i, a, b in zip(nz, [0] + ends, ends):
        rows[i] = dict(zip(cl[a:b], vals[a:b]))
    order, cols, ends = _runs(ci)
    by_col = ri[order].tolist()
    where = {c: set(by_col[a:b]) for c, a, b in zip(cols, [0] + ends, ends)}
    return rows, where


def _runs(keys):
    """(order, values, ends): the stable order that sorts the int array
    `keys`, its distinct values in increasing order, and where each one's
    run ends in the sorted keys."""
    count = np.bincount(keys)
    values = np.flatnonzero(count)
    return (np.argsort(keys, kind="stable"), values.tolist(),
            np.cumsum(count[values]).tolist())


def _eliminate(rows: list, where: dict, columns, p: int,
               budget: float = float("inf"), stored: int = 0):
    """Forward pass of the elimination of the rows and column sets of
    `_sparse_rows`, in place, taking the columns in the order `columns`
    (every column of `where`): ({pivot column: its row}, in the order
    pivoted, and the count of entries stored), or None once more than
    `budget` entries are stored, counting from the `stored` entries of the
    input.

    Each column takes as pivot the sparsest row not yet used that is
    nonzero there (the lowest index on a tie), scales it to a unit, and
    clears the column from every row not yet used; the rows used already
    keep their entry there, and where[c] is left holding them for
    `_back_substitute`.  A row not yet used is zero on every column done,
    so a pivot row holds its pivot column and columns after it, and fill
    only copies a column where some row already has an entry and never
    reaches a column done, in whatever order the columns go.  The pivots
    are those of Gauss-Jordan elimination in the same order, since the rows
    not yet used, which alone choose them, go through the same updates; the
    count of pivots is the rank."""
    used = bytearray(len(rows))
    pivot_row: dict = {}
    for c in columns:
        col = where.pop(c)
        best, size = -1, 0
        for i in col:
            if not used[i]:
                k = len(rows[i])
                if best < 0 or k < size or (k == size and i < best):
                    best, size = i, k
        if best < 0:
            continue
        prow = rows[best]
        inv = pow(prow[c], p - 2, p)
        if inv != 1:
            for j in prow:
                prow[j] = prow[j] * inv % p
        used[best] = 1
        pivot_row[c] = best
        if len(col) == 1:
            continue   # no other row to clear, none above
        items = [(j, v) for j, v in prow.items() if j != c]
        above = []
        for i in col:
            if used[i]:
                if i != best:
                    above.append(i)
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
        if above:
            where[c] = above
    return pivot_row, stored


def _back_substitute(rows: list, where: dict, pivot_row: dict, p: int,
                     budget: float = float("inf"), stored: int = 0) -> bool:
    """Reduce the pivot rows that `_eliminate` leaves, in place: for each
    pivot column c, in reverse pivot order, clear c from the earlier pivot
    rows where[c] with the row of c, already reduced.  That row then holds
    c and only columns without a pivot, so the clearing brings no pivot
    column back, and each pivot row ends with its own pivot column and
    columns without a pivot alone: the rows of Gauss-Jordan elimination, as
    a reduced row is the one vector of the row space with a unit at its
    pivot and zeros at the others.  Returns False once more than `budget`
    entries are stored, counting on from `stored`, else True."""
    for c in reversed(pivot_row):
        above = where.get(c)
        if above is None:
            continue
        items = [(j, v) for j, v in rows[pivot_row[c]].items() if j != c]
        for i in above:
            row = rows[i]
            f = p - row.pop(c)
            for j, v in items:
                x = row.get(j)
                if x is None:
                    row[j] = f * v % p
                    stored += 1
                else:
                    x = (x + f * v) % p
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        stored -= 1
            stored -= 1
            if stored > budget:
                return False
    return True


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
    forward pass (`_eliminate`) with the columns taken right to left and
    one back-substitution (`_back_substitute`).  A row is zero on every
    column done when it pivots, so each reduced pivot row ends with its
    pivot column and free columns to the left of it.  The kernel vector of
    a free column f is 1 at f and -v at the pivot c > f of each pivot row
    with an entry v at f: f leads, no other vector has an entry there, so
    the vectors in increasing f are the rref and the free columns its
    pivots.  When the forward pass leaves no free column, the kernel is
    zero and no reduced row is read, so the back-substitution is skipped.

    Singleton rows are peeled first, with no arithmetic (`_peel`): until no
    row has exactly one entry, the column of every row with one entry is
    marked a pivot and every entry in a marked column is dropped.  The
    output does not change.  A row with one entry, at column c,
    puts e_c in the row space, so c is a pivot in every column order, its
    reduced row is e_c, and every other reduced row is zero at c; each
    kernel vector is zero at c, and the rest of the kernel is that of the
    matrix without column c.  The rref is unique, so the triplets returned
    are those of the elimination without the pre-pass.  Singleton columns
    are not peeled: in [[1, 1]] with the columns left to right, the second
    column has one entry but is not a pivot, so peeling it would change the
    canonical basis the resolution writes (a rank does not change, and
    `rank_triplets` peels them).

    An input with at most `_SMALL_ENTRIES` entries is converted in plain
    Python (`_small_peel`, `_small_rows`, `_small_kernel`), a larger one
    with numpy (`_peel`, `_sparse_rows`, `_kernel_entries`): small calls are
    most calls, and numpy's fixed cost per call outweighs their
    elimination.  Both routes peel the same rows, run `_eliminate` once on
    the same rows with the same budget and stored count, and return the
    same triplets: as lists when `vals` is not an array, as int64 arrays
    when it is.

    `room` is the bytes the caller can still allocate.  The elimination
    stores no more entries than fit in it (see `ENTRY_BYTES`): an input
    that does not fit, checked at its full size before the pre-pass, or
    whose fill outgrows the room in either pass, raises NotMaterialized
    before more is allocated.
    """
    m, n = shape
    entries, budget = len(vals), _budget(room, m, n)
    if entries > budget:
        raise _outgrown(m, n, entries, room, budget)
    small = plain_route(entries)
    arrays = isinstance(vals, np.ndarray)
    if small:
        if arrays:
            rows, cols, vals = (np.asarray(x).tolist() for x in (rows, cols, vals))
        ri, ci, vi, pinned = _small_peel(rows, cols, vals)
        data, where = _small_rows(ri, ci, vi, m)
        left = n - len(pinned)
    else:
        ri, ci, vi, pinned = _peel(np.asarray(rows, dtype=np.int64),
                                   np.asarray(cols, dtype=np.int64), np.asarray(vals), n)
        data, where = _sparse_rows(ri, ci, vi, m)
        left = n - int(np.count_nonzero(pinned))
    stored = len(vi)
    del ri, ci, vi   # freed before the fill grows
    done = _eliminate(data, where, sorted(where, reverse=True), p, budget, stored)
    if done is None:
        raise _outgrown(m, n, entries, room, budget)
    pivot_row, stored = done
    if len(pivot_row) == left:
        # no free column: the kernel is zero, and no reduced row is read
        if arrays:
            return (*(np.zeros(0, dtype=np.int64) for _ in range(3)), [])
        return [], [], [], []
    if not _back_substitute(data, where, pivot_row, p, budget, stored):
        raise _outgrown(m, n, entries, room, budget)
    if small:
        kr, kc, kv, free = _small_kernel(data, pivot_row, pinned, n, p)
        if arrays:
            kr, kc, kv = (np.array(x, dtype=np.int64) for x in (kr, kc, kv))
        return kr, kc, kv, free
    kr, kc, kv, free = _kernel_entries(data, pivot_row, pinned, n, p)
    order = np.argsort(kr * n + kc)
    kr, kc, kv = kr[order], kc[order], kv[order]
    if not arrays:
        kr, kc, kv = kr.tolist(), kc.tolist(), kv.tolist()
    return kr, kc, kv, free.tolist()


def rank_triplets(rows, cols, vals, shape, p: int, room: float = float("inf")) -> int:
    """Rank of the m x n matrix `shape` whose nonzero entries are vals[k] in
    [1, p) at (rows[k], cols[k]), distinct positions, from the forward pass
    alone: no row is reduced, as only the count of pivots is read.

    Singleton rows are peeled first, then singleton columns, with no
    arithmetic (`_peel`, then `_peel` of the transpose): a row with one
    entry, at column c, and likewise a column with one entry, in row r, add
    one to the rank of what is left once that line and its entries are
    dropped (a row with one entry at column c clears c from the other rows,
    and a column with one entry in row r clears r from the other columns).
    Peeling a row drops the entries of one column, which leaves every other
    column as it was, and peeling a column drops one row, which leaves
    every other row as it was, so after both no singleton row or column is
    left.  A canonical basis could not peel singleton columns (see
    `kernel_rref`); a rank can.

    The conversion routes and the room are those of `kernel_rref`: at most
    `_SMALL_ENTRIES` entries take plain Python (`_small_peel`,
    `_small_rows`), a larger input numpy (`_peel`, `_sparse_rows`), and an
    input that does not fit `room`, checked at its full size before the
    pre-pass, or whose fill outgrows it, raises NotMaterialized with the
    text of `kernel_rref`'s refusal before more is allocated."""
    m, n = shape
    entries, budget = len(vals), _budget(room, m, n)
    if entries > budget:
        raise _outgrown(m, n, entries, room, budget)
    if plain_route(entries):
        if isinstance(vals, np.ndarray):
            rows, cols, vals = (np.asarray(x).tolist() for x in (rows, cols, vals))
        ri, ci, vi, pinned = _small_peel(rows, cols, vals)
        ci, ri, vi, marked = _small_peel(ci, ri, vi)
        rank = len(pinned) + len(marked)
        data, where = _small_rows(ri, ci, vi, m)
    else:
        ri, ci, vi, pinned = _peel(*(np.asarray(x, dtype=np.int64) for x in (rows, cols, vals)), n)
        ci, ri, vi, marked = _peel(ci, ri, vi, m)
        rank = int(np.count_nonzero(pinned) + np.count_nonzero(marked))
        data, where = _sparse_rows(ri, ci, vi, m)
    stored = len(vi)
    del ri, ci, vi   # freed before the fill grows
    done = _eliminate(data, where, sorted(where, reverse=True), p, budget, stored)
    if done is None:
        raise _outgrown(m, n, entries, room, budget)
    return rank + len(done[0])


def _budget(room: float, m: int, n: int) -> float:
    """The entries an m x n elimination may store in `room` bytes."""
    return (room - LINE_BYTES * (m + n)) / ENTRY_BYTES


def _outgrown(m: int, n: int, entries: int, room: float, budget: float):
    """The refusal of an m x n elimination of `entries` entries that does
    not fit `room` bytes, room for `budget` stored entries."""
    return NotMaterialized(
        f"a {m} x {n} elimination of {entries} entries outgrows the "
        f"{max(room, 0) / 2**10:.1f} KiB the process can get, room for "
        f"{max(int(budget), 0)} stored entries")


def plain_route(entries: int) -> bool:
    """Whether work on this many entries takes the plain-Python route: at
    most `_SMALL_ENTRIES`, the one size threshold of `kernel_rref`, of
    `rank_triplets` and of the choice of a resolution step's linear-part
    builder."""
    return entries <= _SMALL_ENTRIES


def _small_peel(ri: list, ci: list, vi: list):
    """`_peel` in plain Python, for a small input given as lists: the
    entries left and the set of marked columns."""
    pinned: set = set()
    while True:
        count = Counter(ri)
        single = {c for i, c in zip(ri, ci) if count[i] == 1}
        if not single:
            return ri, ci, vi, pinned
        pinned |= single
        keep = [k for k, c in enumerate(ci) if c not in single]
        ri, ci, vi = [ri[k] for k in keep], [ci[k] for k in keep], [vi[k] for k in keep]


def _small_rows(ri: list, ci: list, vi: list, m: int):
    """`_sparse_rows` in plain Python, for a small input given as lists."""
    data: list = [None] * m
    where: dict = {}
    for i, c, v in zip(ri, ci, vi):
        row = data[i]
        if row is None:
            row = data[i] = {}
        row[c] = v
        col = where.get(c)
        if col is None:
            where[c] = {i}
        else:
            col.add(i)
    return data, where


def _small_kernel(data: list, pivot_row: dict, pinned: set, n: int, p: int):
    """`_kernel_entries` and the row-major sort in plain Python, for a
    small input: the kernel's (rows, cols, vals, pivots) as lists.  Vector
    k is the unit at its free column, then the entries of the pivot rows
    there in increasing pivot; only the vectors with such entries are
    visited."""
    free = sorted(set(range(n)).difference(pivot_row, pinned))
    below = []
    for c, i in pivot_row.items():
        row = data[i]
        del row[c]
        below.extend((bisect_left(free, j), c, p - v) for j, v in row.items())
    below.sort()
    kr: list[int] = []
    kc: list[int] = []
    kv: list[int] = []
    done = 0   # the vectors whose unit entries are written
    for k, c, v in below:
        if k >= done:
            kr.extend(range(done, k + 1))
            kc.extend(free[done:k + 1])
            kv.extend([1] * (k + 1 - done))
            done = k + 1
        kr.append(k)
        kc.append(c)
        kv.append(v)
    kr.extend(range(done, len(free)))
    kc.extend(free[done:])
    kv.extend([1] * (len(free) - done))
    return kr, kc, kv, free


def _peel(ri, ci, vi, n: int):
    """The entries (ri, ci, vi) left once singleton rows are peeled, and the
    mask of the n columns marked as their pivots: while some row has exactly
    one entry, mark its column and drop every entry in a marked column.  An
    input without such a row costs one count."""
    pinned = np.zeros(n, dtype=bool)
    while True:
        single = np.bincount(ri) == 1
        if not single.any():
            return ri, ci, vi, pinned
        pinned[ci[single[ri]]] = True
        keep = ~pinned[ci]
        ri, ci, vi = ri[keep], ci[keep], vi[keep]


def dense(rows, cols, vals, shape) -> np.ndarray:
    """The int64 matrix of the given shape with entries vals at (rows, cols)
    and zeros elsewhere."""
    A = np.zeros(shape, dtype=np.int64)
    A[rows, cols] = vals
    return A


def _kernel_entries(data: list, pivot_row: dict, pinned, n: int, p: int):
    """The kernel of the reduced system `_eliminate` leaves in `data`, over
    n columns, one vector per free column f: 1 at f and -v at the pivot of
    each pivot row with an entry v at f.  The `pinned` columns (a mask)
    are pivots whose rows hold nothing else.  Returns (vector, column,
    value, free columns), the entries in no order.  Each pivot row is read
    whole, its pivot entry dropped first."""
    is_free = ~pinned
    is_free[list(pivot_row)] = False
    free = np.flatnonzero(is_free)
    at = np.cumsum(is_free) - 1   # the kernel vector of each free column
    kx: list[int] = []
    cx: list[int] = []
    vx: list[int] = []
    for c, i in pivot_row.items():
        row = data[i]
        del row[c]
        kx.extend(row)
        cx.extend([c] * len(row))
        vx.extend(row.values())
    kr = np.concatenate([np.arange(len(free)), at[np.asarray(kx, dtype=np.int64)]])
    kc = np.concatenate([free, np.asarray(cx, dtype=np.int64)])
    kv = np.concatenate([np.ones(len(free), dtype=np.int64),
                         p - np.asarray(vx, dtype=np.int64)])
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
