"""Exact linear algebra over prime fields GF(p).

All matrices are numpy int64 arrays with entries reduced into [0, p), and
p < 2**16 so that products fit comfortably in 64-bit intermediates.

Each question has one route.  Ranks and row spaces (`rref_array`,
`row_space`), kernels (`kernel_array`, and `kernel_rref` for a canonical
basis), ranks of triplets (`rank_triplets`) and solutions (`solve_many`) all
rest on one sparse elimination over rows held as {column: value} maps, and
products mod p go through `matmul_mod`.  The package solves on triplets,
with `kernel_rref` (chain-map lifts, slice pivots); `solve_many` and
`solve_array`, dense and unchecked by any room, have no caller in it and
are kept for the benchmark's trace targets and the tests.  The matrices
gorlab eliminates have their entries in m, and m^3 = 0 leaves them a few
nonzeros per row (0.4-1.3% of the entries of one perfbench batch), so the
elimination does only the work the nonzeros need.  Reduced row-echelon
form is canonical, so these routines are deterministic and reproducible
bit for bit.

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
fills least; `dense` writes such triplets out as an array, and
`kernel_array` is `kernel_rref` with the columns reversed.  Before the
elimination of a large input, `kernel_rref` peels rows with a single entry:
their columns are pivots in every column order, so the dict engine never
sees them.  `rank_triplets`, which homology reads where it needs a map's
rank alone, also peels columns with a single entry, which a rank allows and
a canonical basis does not.

Every elimination builds its rows in plain Python, by one loop over the
entries as lists (`_sparse_rows`): the matrices are sparse enough that the
loop costs less than numpy's sorts and per-call overhead would.
`kernel_rref` and `rank_triplets` share one front end (`_forward`): the
room check, the peel, the rows and the forward pass.  The peel is the one
step that depends on size.  An input with more than `_SMALL_ENTRIES`
entries is peeled with numpy, which at e = 6 keeps nearly all entries away
from the Python loops; one with at most that many (`plain_route`, the one
size threshold, by which a resolution step also picks the builder of its
linear part) goes to `_eliminate` whole, which takes a singleton row as its
column's pivot and clears that column without fill.  The two routes give
the same output, as the rref is unique, but not always the same refusals:
the fill check of an unpeeled input also counts the singleton entries a
peel would have dropped.  Every kernel is read back by `_kernel_entries`
and one row-major argsort, and comes back as int64 arrays, whatever the
caller passed.

One rule bounds memory, and this module holds it.  The sparse work of
gorlab counts `ENTRY_BYTES` per entry it holds and `LINE_BYTES` per row and
column against a room: the bytes the process can still allocate
(`resolution.available_bytes`), read once per resolution extension, per
homology window and per induced-map call, and passed to every elimination
and product that call makes.  An elimination (`kernel_rref`,
`rank_triplets`) checks its input at its full size before the peel, then
its fill in either pass; a sparse product (`resolution.join_sum`, under
every `kmat_triplets`) checks its inputs, then its pairs before it forms
them; and a block made dense from a product (`homology._rank`) checks its
cells and lines (`check_room`).  What does not fit is refused with
NotMaterialized before it allocates more, in the one text of `_refusal`.
The forward pass holds the used rows as they pivoted until the
back-substitution, so its peak can lie a few entries above that of
Gauss-Jordan elimination, which shrinks them at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotMaterialized, NotPrime

# What `kernel_rref` and `rank_triplets` hold, checked against the room: up
# to ENTRY_BYTES per stored entry and LINE_BYTES per row and column (a dict,
# a set, kernel entries: at most 310 bytes under tracemalloc at e = 3, 4, 5).
# The input's entries are checked before the singleton pre-pass, so the check
# also covers what the pre-pass holds: above `_SMALL_ENTRIES` entries, per
# input entry two rounds' int64 copies of the entries and a few boolean masks
# (under 60 bytes), per row and column an int64 count or a boolean, and then
# the entries left as the three lists of Python ints the rows are built from;
# at most `_SMALL_ENTRIES` entries, an int64 copy and those lists.  Under
# tracemalloc, calls above `_SMALL_ENTRIES` entries peaked at most 0.88 times
# their check in the e = 4 lemma suite, 0.69 times in the e = 6 main theorem
# and 0.83 times in perfbench batches (0.98, 0.81 and 0.99 when numpy built
# the rows).  Smaller calls can exceed a check of a few KiB by numpy's fixed
# cost per call, the kernel read's arrays and argsort: about 5 KiB at most
# (BENCH_44.json, ROADMAP item 5).
ENTRY_BYTES = 130
LINE_BYTES = 400
# `kernel_rref` and `rank_triplets` hand an input of at most this many
# entries to the forward pass unpeeled, and a resolution step with at most
# this many nonzeros builds its linear part in plain Python.  The value was
# set when small inputs were also peeled and read back in plain Python:
# replaying the inputs of a perfbench `betti_verdicts` and `tor_ext_pairs`
# batch (BENCH_32.json, BENCH_40.json), that route and numpy's broke even
# between about 64 and 128 entries, and 32 and 64 stayed within 2% of each
# other.  Without that peel and kernel read, the same replay takes about 1.07
# times as long for `betti_verdicts` and as long for `tor_ext_pairs`
# (BENCH_44.json); the value was not tuned again.
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
    rows, where = _sparse_rows(ri.tolist(), ci.tolist(), R[ri, ci].tolist(), R.shape[0])
    del ri, ci   # freed before the fill grows
    pivot_row, _ = _eliminate(rows, where, sorted(where), p)
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


def _sparse_rows(ri: list, ci: list, vi: list, m: int):
    """(rows, where) for the m-row matrix with nonzero entries vi at (ri,
    ci), given as lists: rows[i] maps the columns of row i to its entries
    (None for a zero row, which elimination never touches), and where[c] is
    the set of rows with an entry in column c, its keys in the order the
    columns first appear, so each caller hands `_eliminate` its own column
    order.  One loop over the entries, with no numpy call."""
    rows: list = [None] * m
    where: dict = {}
    for i, c, v in zip(ri, ci, vi):
        row = rows[i]
        if row is None:
            row = rows[i] = {}
        row[c] = v
        col = where.get(c)
        if col is None:
            where[c] = {i}
        else:
            col.add(i)
    return rows, where


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
    This is `kernel_rref` of A with its columns reversed (c -> n-1-c): its
    right-to-left pass then takes A's columns left to right, so its free
    columns are those of rref(A), and its vector of each free column is 1
    there and -v at the pivot of each row of rref(A) with an entry v there.
    It lists them last free column first, so they are read back in reverse.
    """
    A = np.asarray(A, dtype=np.int64) % p
    n = A.shape[1]
    ri, ci = np.nonzero(A)
    kr, kc, kv, free = kernel_rref(ri, n - 1 - ci, A[ri, ci], A.shape, p)
    return dense(len(free) - 1 - kr, n - 1 - kc, kv, (len(free), n))


def kernel_rref(rows, cols, vals, shape, p: int, room: float = float("inf")):
    """Canonical rref basis of the right kernel of the m x n matrix `shape`
    whose nonzero entries are vals[k] in [1, p) at (rows[k], cols[k]),
    distinct positions: (rows, cols, vals, pivots), the nonzero entries of
    the kernel's rows in row-major order and the pivot of each row.

    Equal to rref_array(kernel_array(A)) restricted to its rank, from the
    forward pass of `_forward`, with the columns taken right to left, and
    one back-substitution (`_back_substitute`).  A row is zero on every
    column done when it pivots, so each reduced pivot row ends with its
    pivot column and free columns to the left of it.  The kernel vector of
    a free column f is 1 at f and -v at the pivot c > f of each pivot row
    with an entry v at f: f leads, no other vector has an entry there, so
    the vectors in increasing f are the rref and the free columns its
    pivots.  When the forward pass leaves no free column, the kernel is
    zero and no reduced row is read, so the back-substitution is skipped.

    Above `_SMALL_ENTRIES` entries, singleton rows are peeled first, with
    no arithmetic (`_peel`): until no row has exactly one entry, the column
    of every row with one entry is marked a pivot and every entry in a
    marked column is dropped.  The output does not change.  A row with one
    entry, at column c, puts e_c in the row space, so c is a pivot in every
    column order, its reduced row is e_c, and every other reduced row is
    zero at c; each kernel vector is zero at c, and the rest of the kernel
    is that of the matrix without column c.  The rref is unique, so the
    triplets returned are those of the elimination without the pre-pass,
    which is what a smaller input gets: `_eliminate` takes a singleton row
    as its column's pivot, and clearing that column adds no entry.
    Singleton columns are not peeled: in [[1, 1]] with the columns left to
    right, the second column has one entry but is not a pivot, so peeling
    it would change the canonical basis the resolution writes (a rank does
    not change, and `rank_triplets` peels them).

    Every input, lists or arrays, of any size, is read back by
    `_kernel_entries` and one row-major argsort, as int64 arrays; the
    pivots come as a list.  `room` bounds both passes (`_forward`, the
    module docstring's rule).
    """
    m, n = shape
    data, where, pinned, pivot_row, stored, rank = _forward(rows, cols, vals, shape, p, room)
    if rank == n:
        # no free column: the kernel is zero, and no reduced row is read
        return (*(np.zeros(0, dtype=np.int64) for _ in range(3)), [])
    if not _back_substitute(data, where, pivot_row, p, _budget(room, m, n), stored):
        raise _outgrown(m, n, len(vals), room)
    kr, kc, kv, free = _kernel_entries(data, pivot_row, pinned, n, p)
    order = np.argsort(kr * n + kc)
    return kr[order], kc[order], kv[order], free.tolist()


def rank_triplets(rows, cols, vals, shape, p: int, room: float = float("inf")) -> int:
    """Rank of the m x n matrix `shape` whose nonzero entries are vals[k] in
    [1, p) at (rows[k], cols[k]), distinct positions, from the forward pass
    of `_forward` alone: no row is reduced, as only the count of pivots is
    read.

    Above `_SMALL_ENTRIES` entries, singleton rows are peeled first, then
    singleton columns, with no arithmetic (`_peel`, then `_peel` of the
    transpose); a smaller input goes to the forward pass whole.  A row with
    one entry, at column c, and likewise a column with one entry, in row r, add
    one to the rank of what is left once that line and its entries are
    dropped (a row with one entry at column c clears c from the other rows,
    and a column with one entry in row r clears r from the other columns).
    Peeling a row drops the entries of one column, which leaves every other
    column as it was, and peeling a column drops one row, which leaves
    every other row as it was, so after both no singleton row or column is
    left.  A canonical basis could not peel singleton columns (see
    `kernel_rref`); a rank can."""
    return _forward(rows, cols, vals, shape, p, room, peel_columns=True)[-1]


def _forward(rows, cols, vals, shape, p: int, room: float, peel_columns: bool = False):
    """The front end of `kernel_rref` and `rank_triplets`, for the m x n
    matrix `shape` with entries vals at (rows, cols), lists or arrays: the
    room check, the peel of a large input (singleton rows, then singleton
    columns if `peel_columns`), the rows (`_sparse_rows`) and the forward
    pass (`_eliminate`) with the columns right to left.  Returns (rows,
    where, pinned, pivot_row, stored, rank): the rows and column sets the
    pass leaves, the mask of the columns the peeled rows pin, {pivot
    column: its row}, the entries stored and the rank, peeled lines
    included.

    An input of at most `_SMALL_ENTRIES` entries (`plain_route`) is not
    peeled: its singleton lines go to `_eliminate`, which pivots on them
    without fill, so the output is that of the peel, but the fill check
    counts their entries too.  An input that does not fit the room,
    checked at its full size before the peel, or whose fill outgrows it
    raises NotMaterialized before more is allocated."""
    m, n = shape
    entries, budget = len(vals), _budget(room, m, n)
    if entries > budget:
        raise _outgrown(m, n, entries, room)
    ri, ci, vi = (np.asarray(x, dtype=np.int64) for x in (rows, cols, vals))
    if plain_route(entries):
        pinned, peeled = np.zeros(n, dtype=bool), 0
    else:
        ri, ci, vi, pinned = _peel(ri, ci, vi, n)
        peeled = int(np.count_nonzero(pinned))
        if peel_columns:
            ci, ri, vi, marked = _peel(ci, ri, vi, m)
            peeled += int(np.count_nonzero(marked))
    data, where = _sparse_rows(ri.tolist(), ci.tolist(), vi.tolist(), m)
    stored = len(vi)
    del ri, ci, vi   # freed before the fill grows
    done = _eliminate(data, where, sorted(where, reverse=True), p, budget, stored)
    if done is None:
        raise _outgrown(m, n, entries, room)
    pivot_row, stored = done
    return data, where, pinned, pivot_row, stored, peeled + len(pivot_row)


def _budget(room: float, m: int, n: int) -> float:
    """The entries an m x n elimination may store in `room` bytes."""
    return (room - LINE_BYTES * (m + n)) / ENTRY_BYTES


def _outgrown(m: int, n: int, entries: int, room: float):
    """The refusal of an m x n elimination of `entries` entries that does
    not fit `room` bytes."""
    return _refusal(f"a {m} x {n} elimination of {entries} entries", room,
                    f", room for {max(int(_budget(room, m, n)), 0)} stored entries")


def check_room(what: str, room: float, entries: int, lines: int = 0):
    """Refuse `what`, work that holds `entries` entries and `lines` rows
    and columns, with NotMaterialized when it does not fit `room` bytes
    (the module docstring's rule): the check of every sparse product and
    dense block outside an elimination, made before it allocates."""
    if ENTRY_BYTES * entries + LINE_BYTES * lines > room:
        raise _refusal(what, room)


def _refusal(what: str, room: float, tail: str = "") -> NotMaterialized:
    """The one text of a refusal by the memory rule."""
    return NotMaterialized(
        f"{what} outgrows the {max(room, 0) / 2**10:.1f} KiB the process can get{tail}")


def plain_route(entries: int) -> bool:
    """Whether work on this many entries takes the plain-Python route: at
    most `_SMALL_ENTRIES`, the one size threshold, below which
    `kernel_rref` and `rank_triplets` do not peel and a resolution step
    builds its linear part on Python ints."""
    return entries <= _SMALL_ENTRIES


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
