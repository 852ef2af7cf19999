"""Tor and Ext tables, induced maps on homology, and length bookkeeping.

Materialized degrees are honest homology computations on F_*(M) tensor N
(resp. Hom(F_*(M), N)).  The chain and the cochain complex share one loop,
`_window`, for cycles, boundaries and radical excess; each builds its own
differentials, so Ext through the Hom complex stays an independent check on
Tor against the Matlis dual.  Only lengths and ranks are read, so no basis
of the boundaries is built: over a field the image of a map A is the common
zero set of its left kernel K, the kernel of A^T, so rank A = rows - dim K,
and a set of vectors adds to the boundaries the rank of its product with
K^T.  Every map is thus eliminated twice, for its left kernel as the map
into one degree and as the map out of another, and the two ranks must
agree.  The radical excess is such a rank, of a product tiny since m^3 = 0,
read off two sparse joins (`_radical_excess`); it is 0 when K is zero, and
the map out is then read for its rank alone, with no kernel basis
(`linalg.rank_triplets`), unless the caller reads the cycles.  The tables
read nu from it; `tor_induced` reads lengths, cycles and left kernels only,
so its windows compute no excess and read every map out whose cycles they
do not yield for its rank alone.

Both routes run on the Loewy copy L of N (`_loewy`), written in a basis
adapted to N > mN > m^2 N with layers N_0, N_1, N_2, the layers re-based
to make the maps between them sparse: the cost of a window is that of the
nonzeros its eliminations meet, so it no longer follows the basis N is
written in.  `_loewy` checks that its change of basis is invertible, so L
is isomorphic to N and Tor and Ext over L are those over N.

Tor: the entries of a minimal differential lie in m and m^3 = 0, so del
tensor L maps L into mL and kills the last nonzero layer: only the layer
block F_i (N_0 + N_1) -> F_{i-1} mN (F_i N_0 -> F_{i-1} N_1 when m^2 N = 0)
is eliminated, the dropped columns are cycles, and boundaries and radical
excess live in F_i mN.  Neither the full matrix del tensor L nor a dense
block is ever built: `_tor_block` emits the block as (row, column, value)
triplets, one tile per nonzero of del's m-part, read off the nonzeros the
resolution stores, and refuses with `CertificateError` the two causes of a
differential nonzero outside its block, a unit entry in del and a copy not
adapted to its layers.  That is the guard of the Tor windows, since a block
complex over m^2 N = 0 has no negative length to detect.

Ext: the Hom complex runs on L too, with the full matrices, all dim N x
dim N tiles (the trivial block), also as triplets (`_ext_diff`).  It stays
an independent check on Tor: the duality check compares Hom(F, L_N), built
by `_ext_diff` on every tile, with F tensor L_{N*} built by `_tor_block` on
the layer corners, and L_N and L_{N*} are the Loewy copies of two different
modules, each certified isomorphic to its own.  `tor_induced` joins A's
cycles with the triplets of each lift tensor L, which may have unit
entries, and the images' last t coordinates with B's left kernel.  Every
block goes through `linalg.kernel_rref`, the one sparse kernel, which also
serves the resolution, or `linalg.rank_triplets`, on the same engine, its
columns relabelled fewest entries first; homology reads only ranks and
spans, so no output depends on the basis.

`_build_table` is the one builder of both tables, and `_plan` the one place
that chooses a window, from M's certified Betti numbers, its junction J, dim
N and n alone, so a table never depends on how deep an earlier call pushed
the cached resolution.  A Tor table is honest through n when every chain
module F_j (x) N, j <= n + 1, has at most `resolution.CHAIN_BUDGET`
dimensions, the bound the resolution's slack degrees also read; otherwise
it reads degrees 0, 1, ... and checks the length-count margin at each degree
from J + TOR_MARGIN + 1 on, going one degree deeper while the next module
has at most MAX_WINDOW_ROWS.  Ext and `tor_induced` take the largest window
within CHAIN_BUDGET, and Ext no deeper than the window of tor(M, N*), whose
entries it serves past its own.  `_window` yields one degree at a time and
builds each block once, and the head is extended only when it reads a
differential, so every table computes each degree once; `tor_induced` reads
the lifts of `lift_chain_map` and the windows of its source and target
together, degree by degree.  `_window` reads the room
(`resolution.available_bytes`) once, before degree 0, and holds every
kernel as its triplets; `tor_induced` reads it once, for its lifts and its
products.  Every block a window builds, every join and elimination and
every block `_rank` makes dense checks against that room by the one memory
rule of `linalg`: a degree that does not fit is refused with
NotMaterialized, naming the degree, before it allocates.

Degrees past the materialized window are certified by the length count of
a module X with m^2 X = 0, where L_t is the image of Tor_t(iota_X, N):

    l(Tor_t(X, N)) = nu(X) beta_t(N) - nu(mX) beta_{t-1}(N) + l(L_t) + l(L_{t-1})

It turns observed equality of l(Tor_t) with its base, the first two terms,
into a proof that the induced maps vanish at t and t-1.  For X = M_J, the
junction syzygy (which is Koszul), Tor_i(M, N) = Tor_{i-J}(X, N) for i > J;
once equality holds on a margin of TOR_MARGIN consecutive materialized
degrees, the tail values are the base, with m Tor = 0 and nu = length; such
entries are tagged "certified".  The base is written once (`_base`), the
margin counted once (`_margin`), and `length_count` builds the table, base
and induced ranks of X = M; the tail, `length_count_audit`,
`iota_vanishing`, `series.series_identity_check` and `verify` all read them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, resolution
from .errors import (
    CertificateError,
    GorlabError,
    InsufficientDegree,
    NotMaterialized,
    RadicalSquareNonzero,
    RingMismatch,
)
from .modules import (
    FiniteModule,
    ModuleMap,
    matlis_dual,
    nu,
    radical_rows,
    radical_square_rows,
    submodule,
)
from .resolution import (
    MinimalFreeResolution,
    Nonzeros,
    join_sum,
    kmat_triplets,
    lift_chain_map,
    resolve,
)

TOR_MARGIN = 3       # consecutive equality degrees required for a tail
MAX_WINDOW_ROWS = 12000   # max dimension of the next module when deepening

COMPUTED = "computed"
CERTIFIED = "certified"


@dataclass(frozen=True)
class TorEntry:
    i: int
    length: int
    nu: int
    m_annihilated: bool
    provenance: str


@dataclass
class TorTable:
    M: FiniteModule
    N: FiniteModule
    entries: list[TorEntry]
    window: int            # largest honestly computed degree
    junction: int | None   # junction used for the certified tail, if any

    def lengths(self) -> list[int]:
        return [t.length for t in self.entries]

    def nus(self) -> list[int]:
        return [t.nu for t in self.entries]


@dataclass
class ExtTable(TorTable):
    pass


@dataclass(frozen=True)
class InducedMapResult:
    i: int
    rank: int
    source_length: int
    target_length: int
    provenance: str


def _no_entries(m: int, n: int):
    """Triplets of the m x n zero matrix."""
    empty = np.zeros(0, dtype=np.int64)
    return empty, empty, empty, (m, n)


def _ext_diff(G: Nonzeros, N: FiniteModule, room: float = float("inf")):
    """k-matrix of Hom(del, N): N^j -> N^a (precomposition with del), for
    the nonzeros G of del's entry array, on the basis N is written in (the
    windows pass the Loewy copy) with all its dim N x dim N tiles, as
    triplets, from a join that checks against `room`."""
    return kmat_triplets(G.transpose(), N.all_ops, N.ring.p, room)


def _radical_excess(N: FiniteModule, Z, K, block, room: float) -> int:
    """Rank added to the boundaries by m times the span of the rows of Z, in
    the coordinates of the layer block (s, t) (see `_window`): Z on the
    first s coordinates of each of b copies of N, the boundaries on the last
    t, the common zeros of the rows of K (the left kernel of the map in),
    both triplets of `linalg.kernel_rref`.  A vector v adds to the
    boundaries what v K^T adds to 0, so the excess is the rank of the images
    times K^T, and 0 when K is zero, before Z is read (the window passes
    None for Z then).  The span of Z must be an R-submodule modulo the
    dropped coordinates, which m kills (callers pass cycles); as w = x_g x_h
    / form[g, h], the images under x_1..x_e alone then span that product.

    The product is formed on triplets, in two joins (`join_sum`): M = K^T
    through each x_g, M[(y, c), k e + g] = sum_tau K[k, y t + tau]
    x_g[d - t + tau, c] (`kmat_triplets` on K's nonzeros as an (nk, b, t)
    entry array), then P[(z, g), k] = sum Z[z, (y, c)] M[(y, c), k e + g].
    The images lie in the last Loewy layer (m^3 = 0), so P is tiny, and
    `_rank` makes only its nonzero rows and columns dense.  Each join and
    that block check against `room` before they allocate."""
    p, d, e = N.ring.p, N.dim, N.ring.e
    s, t = block
    kr, kc, kv, (nk, bt) = K
    if nk == 0:
        return 0   # every vector in the last t coordinates is a boundary
    zr, zc, zv, _ = Z
    G = Nonzeros(kr, kc // t, kc % t, kv, (nk, bt // t, t))
    mr, mc, mv, _ = kmat_triplets(G, N.actions[:, d - t:, :s].transpose(1, 2, 0), p, room)
    # P[(z, g), k] at the index (z e + g) nk + k; M's rows come in order
    pos, vals = join_sum(zc, zr * (e * nk), zv, mr, mc % e * nk + mc // e, mv, p, room)
    return _rank(pos, vals, nk, p, room, "the radical excess's")


def _rank(pos, vals, n: int, p: int, room: float, what: str) -> int:
    """Rank of the n-column matrix with vals at the indices pos = row n + col,
    from its nonzero rows and columns made dense once that block, each cell
    an entry and each row and column a line, fits `room`."""
    (rows, ri), (cols, ci) = (np.unique(x, return_inverse=True) for x in np.divmod(pos, n))
    m, n = len(rows), len(cols)
    linalg.check_room(f"{what} {m} x {n} block", room, m * n, m + n)
    return linalg.rank_array(linalg.dense(ri, ci, vals, (m, n)), p)


def _rref_bases(Xs, p: int):
    """For each matrix X of Xs, (T, C): an invertible T with T X in rref,
    and C = T^-1, all from one elimination of the block-diagonal matrix of
    the [X | I].  The rows of a block are the rref of X over a left kernel
    basis K of X in rref on I's columns q.  C is X's pivot columns beside
    the unit vectors at q, and T the eliminated I with K's columns q
    cleared from the rows above K, so that T C = I."""
    shapes = [X.shape for X in Xs]
    R = np.zeros((sum(n for n, _ in shapes), sum(n + c for n, c in shapes)),
                 dtype=np.int64)
    i = j = 0
    for X, (n, c) in zip(Xs, shapes):
        R[i:i + n, j:j + c] = X
        R[i:i + n, j + c:j + c + n] = np.eye(n, dtype=np.int64)
        i, j = i + n, j + c + n
    # [X | I] has full row rank, so each block keeps its rows, in order
    pivots = linalg.rref_inplace(R, p)
    out, i, j = [], 0, 0
    for X, (n, c) in zip(Xs, shapes):
        own = [k - j for k in pivots[i:i + n]]
        r = sum(k < c for k in own)
        q = [k - c for k in own[r:]]
        T = R[i:i + n, j + c:j + c + n]
        if q and r:
            T[:r] = (T[:r] - linalg.matmul_mod(T[:r, q], T[r:], p)) % p
        C = np.zeros((n, n), dtype=np.int64)
        C[:, :r] = X[:, own[:r]]
        C[q, range(r, n)] = 1
        out.append((T, C))
        i, j = i + n, j + c + n
    return out


def _layer_bases(ops, h, p: int):
    """(B, B^-1), each stacked over the target side and the source side:
    two block-diagonal changes of the Loewy layers h of a copy with action
    matrices ops (targets by sources, see `_loewy`).  The target side
    re-bases layers 1 and 2, each by the transform that puts the blocks of
    ops into it, side by side, in rref; the source side re-bases layers 0
    and 1, each by the one that puts the transposed blocks out of it in
    rref.  Every transform is computed on ops as given, so after the change
    a block between two re-based layers is also multiplied by the other
    layer's change and is not in rref in general; `_loewy` keeps a copy by
    its count of nonzeros, not by rref form.  One elimination
    (`_rref_bases`) serves every layer of both sides."""
    ends = np.cumsum((0, *h))
    layers = [(k, ends[j], ends[j + 1])
              for k, js in enumerate(((1, 2), (0, 1)))
              for j in js if ends[j] < ends[j + 1]]
    # the blocks of all operators side by side: into layer [a, b) from the
    # layers before it, or, transposed, out of it into the layers after it
    Xs = [ops[:, a:b, :a].transpose(1, 0, 2).reshape(b - a, -1) if k == 0
          else ops[:, b:, a:b].transpose(2, 0, 1).reshape(b - a, -1)
          for k, a, b in layers]
    B = np.zeros((2, ends[-1], ends[-1]), dtype=np.int64)
    B[:, range(ends[-1]), range(ends[-1])] = 1
    Binv = B.copy()
    for (k, a, b), (T, C) in zip(layers, _rref_bases(Xs, p)):
        if k == 0:
            Binv[k, a:b, a:b], B[k, a:b, a:b] = T, C
        else:
            B[k, a:b, a:b], Binv[k, a:b, a:b] = T.T, C.T
    return B, Binv


def _conjugate(Qinv: np.ndarray, ops: np.ndarray, Q: np.ndarray, p: int):
    """Qinv ops Q mod p, batched over the leading axes."""
    return linalg.matmul_mod(linalg.matmul_mod(Qinv, ops, p), Q, p)


def _loewy(N: FiniteModule):
    """(L, h): N written in a k-basis adapted to N > mN > m^2 N, cached on N.
    The first h[0] coordinates of L span a complement of mN, the next h[1] a
    complement of m^2 N in mN and the last h[2] span m^2 N, so x_1..x_e and
    w map each of these layers into the ones after it.

    Any basis inside a layer keeps it adapted, and the cost of homology is
    that of the nonzeros of the maps between layers, so the layers are
    re-based to make them sparse, whatever basis N is written in.  The
    candidates are the basis as built (unit vectors for the top, rref rows
    of mN and m^2 N), its target side and its source side (see
    `_layer_bases`); the one with the fewest nonzeros in the corner
    L.all_ops[1:, d-t:, :s] of the layer block (s, t) = `_block(h)` is
    kept, the first on a tie, so a basis already sparse stays as built.
    Its layer changes are folded into the one basis Q, and L is N
    conjugated by Q: the candidate kept.  Q Q^-1 = I mod p is checked, else
    CertificateError is raised, and L is validated as a module: so L is
    isomorphic to N, and Tor and Ext over L are Tor and Ext over N."""
    if "loewy" not in N._cache:
        p, d = N.ring.p, N.dim
        U1, piv1 = radical_rows(N)
        U2, piv2 = radical_square_rows(N)
        # m^2 N < mN, so the pivot columns of U2 are among those of U1 and
        # the rows of Q below have distinct leading columns: a basis of N
        top = sorted(set(range(d)) - set(piv1))
        mid = [k for k, c in enumerate(piv1) if c not in set(piv2)]
        L, h = N, (len(top), len(mid), U2.shape[0])
        if d:
            I = np.eye(d, dtype=np.int64)
            Q = np.concatenate([I[top], U1[mid], U2]).T
            Qinv = _rref_bases([Q], p)[0][0]   # Q is invertible: T Q = I
            built = _conjugate(Qinv, N.all_ops[1:], Q, p)
            s, t = _block(h)
            # the candidates: as built, the target side and the source side
            B, Binv = _layer_bases(built, h, p)
            rebased = _conjugate(Binv[:, None], built, B[:, None], p)
            corners = [np.count_nonzero(X[..., d - t:, :s]) for X in (built, *rebased)]
            best = corners.index(min(corners))
            if best:
                Q = linalg.matmul_mod(Q, B[best - 1], p)
                Qinv = linalg.matmul_mod(Binv[best - 1], Qinv, p)
            if (linalg.matmul_mod(Q, Qinv, p) != I).any():
                raise CertificateError("Loewy basis change is not invertible")
            ops = (built, *rebased)[best]
            L = FiniteModule(N.ring, ops[:-1], ops[-1])
        N._cache["loewy"] = (L, h)
    return N._cache["loewy"]


def _block(h) -> tuple[int, int]:
    """Layer block (s, t) of the Loewy layer sizes h: m maps the first s
    coordinates into the last t, and kills the last nonzero layer."""
    h0, h1, h2 = h
    return h0 + h1 + h2 - (h2 or h1 or h0), h1 + h2


def _tor_block(G: Nonzeros, L: FiniteModule, layers, room: float = float("inf")):
    """Layer block of del tensor L for the nonzeros G of del's entry array
    (a, j, D) and the Loewy copy (L, layers) of `_loewy`: the (j t) x (a s)
    matrix of the maps from the first s coordinates of each of the a source
    copies of L into the last t of each of the j target copies, for (s, t)
    = `_block(layers)`, as triplets (`kmat_triplets`, whose join checks
    against `room`): each nonzero of del's m-part places its multiple of
    the t x s corner of its action.  Neither del, nor the full matrix, nor
    the dense block is ever built.

    del tensor L vanishes outside the block when del has no unit entry and
    x_1..x_e, w map each layer of L into the layers after it; either
    failure raises `CertificateError`."""
    p, d = L.ring.p, L.dim
    s, t = _block(layers)
    h0, h1, _ = layers
    if (G.slot == 0).any():
        raise CertificateError("differential has a unit entry")
    ops = L.all_ops[1:]
    if ops[:, :h0].any() or ops[:, h0:h0 + h1, h0:].any() or ops[:, :, h0 + h1:].any():
        raise CertificateError("module copy is not adapted to its Loewy layers")
    # slot 0 holds no entry, so its identity corner places nothing
    return kmat_triplets(G, L.all_ops[:, d - t:, :s], p, room)


@dataclass
class _Homology:
    """Honest homology data of one complex degree, in the coordinates of the
    window's layer block (s, t)."""

    length: int
    nu: int | None              # None, as m_annihilated, where the window
    m_annihilated: bool | None  # computes no radical excess (`tor_induced`)
    cycles: tuple | None  # triplets of the kernel of the block out (first s
                          # coords), as `linalg.kernel_rref` returns them;
                          # None where neither the caller nor the excess
                          # reads them
    left_kernel: tuple    # triplets of the left kernel of the block in (last
                          # t coords), whose common zeros are the boundaries


def _window(N: FiniteModule, diff, ranks, step: int, block, last: int,
            cycles: bool = False, excess: bool = True):
    """Honest homology of a complex of k-spaces built on N: yields one
    `_Homology` per degree 0..last, in order, so a caller stops reading once
    it has what it needs.  diff(i, room) is the map out of degree i, built
    within `room`, and diff(i + step, room) the map into it (step +1 for a
    chain complex, -1 for a cochain complex); ranks(i) is the number of
    copies of N in degree i, 0 outside the complex.

    block = (s, t): every differential vanishes outside the first s columns
    and the last t rows of each N-block, and diff(j) returns only that
    block A_j, as triplets (rows, cols, vals, shape) of the matrix with
    rows (target copy, t) and columns (source copy, s); the caller
    guarantees the support (`_tor_block` checks it, and the trivial block
    (dim N, dim N) of Ext has nothing outside).  No block is ever dense,
    and the kernels, mapped back from the relabelled columns, are held as
    triplets.

    Each degree i first eliminates the map in A_{i+step}, with rows and
    columns swapped, for its left kernel K (`linalg.kernel_rref`): the
    boundaries lie in the last t coordinates, where they are the common
    zeros of K, and the rank of the map in is rows - dim K.  The cycles are
    ker A_i plus the dropped columns of the ranks(i) copies.  When K is
    zero, every vector of the last t coordinates is a boundary and the
    radical excess is 0 without the cycles, so A_i is read for its rank
    alone (`linalg.rank_triplets`, no back-substitution), unless the caller
    reads cycles (`cycles`, which `tor_induced` sets for its source);
    otherwise its kernel Z is eliminated and the excess is a rank against
    K (`_radical_excess`).  A caller that reads no nu (`excess` False, as
    both of `tor_induced`'s windows are) gets no excess: each degree's nu
    and m_annihilated are None, not a value a caller could take for one,
    and A_i is read for its rank alone in every degree unless the caller
    reads cycles.  Every map is thus eliminated twice, as the map into one
    degree and as the map out of another, and the two ranks must agree, or
    CertificateError is raised.  Each block is built once and at
    most two are held: before the radical excess, every one that degree
    i + 1 will not read is dropped, and at degree `last` all of them.  The
    room is read once, before degree 0, and every block, elimination and
    the excess's joins and block check against it before they allocate: a
    degree that does not fit raises NotMaterialized, naming the degree."""
    p, d = N.ring.p, N.dim
    s = block[0]
    kind = "Tor" if step > 0 else "Ext"
    mats: dict = {}

    def mat(j):
        # built on first use, as the map into one degree or out of it, and
        # held until the loop drops it once no later degree reads it
        if j not in mats:
            mats[j] = diff(j, room)
        return mats[j]

    def relabel(cols, n):
        # any basis will do, since only ranks and spans are read: the
        # columns are relabelled fewest entries highest, so that the
        # forward pass, which leads each row at its highest column, pivots
        # and reduces rows at their columns with the fewest entries, as
        # structured Gaussian elimination does, which keeps the fill low in
        # whatever basis N is written; returns the new labels and their
        # order
        order = np.argsort(np.bincount(cols, minlength=n), kind="stable")[::-1]
        label = np.empty(n, dtype=np.int64)
        label[order] = np.arange(n)
        return label[cols], order

    def kernel(rows, cols, vals, shape):
        # the kernel's columns are mapped back to the block's
        cols, order = relabel(cols, shape[1])
        kr, kc, kv, pivots = linalg.kernel_rref(rows, cols, vals, shape, p, room)
        return kr, order[kc], kv, (len(pivots), shape[1])

    def rank(rows, cols, vals, shape):
        return linalg.rank_triplets(rows, relabel(cols, shape[1])[0], vals, shape, p, room)

    ranks_of: dict = {}

    def check_rank(j, r, how):
        # each map is eliminated twice, as the map into one degree and as
        # the map out of another: its two ranks must agree
        if ranks_of.setdefault(j, (r, how))[0] != r:
            raise CertificateError(
                f"{kind} map {j} has rank {ranks_of[j][0]} from its "
                f"{ranks_of[j][1]} and {r} from its {how}")
        return r

    room = resolution.available_bytes()
    for i in range(last + 1):
        try:
            rows, cols, vals, (m, n) = mat(i + step)
            K = kernel(cols, rows, vals, (n, m))
            into = check_rank(i + step, m - K[3][0], "left kernel")
            rows, cols, vals, (m, n) = mat(i)
            Z = nu = annihilated = None
            if cycles or (excess and K[3][0]):
                Z = kernel(rows, cols, vals, (m, n))
                out = check_rank(i, n - Z[3][0], "kernel")
            else:
                out = check_rank(i, rank(rows, cols, vals, (m, n)), "rank read")
            li = n - out + ranks(i) * (d - s) - into
            if li < 0:
                raise CertificateError(f"negative {kind} length {li} in degree {i}")
            # a block dropped below must not stay alive for the excess
            del rows, cols, vals
            for j in [j for j in mats if i == last or j not in (i + 1, i + 1 + step)]:
                del mats[j]
            if excess:
                extra = _radical_excess(N, Z, K, block, room)
                nu, annihilated = li - extra, extra == 0
        except NotMaterialized as exc:
            raise NotMaterialized(f"{kind} degree {i}: {exc}") from None
        yield _Homology(li, nu, annihilated, Z, K)


def _ranks(res: MinimalFreeResolution):
    """beta_i for i >= 0 (certified past the head), 0 below."""
    return lambda i: res.betti(i)[i] if i >= 0 else 0


def _homology_window(res: MinimalFreeResolution, N: FiniteModule, last: int,
                     cycles: bool = False, excess: bool = True):
    """Honest Tor homology of F_*(M) tensor N, for M the module `res`
    resolves, on the Loewy copy of N, degree by degree through `last` (see
    `_window`, which yields every degree's cycles when `cycles` is set);
    each differential is materialized when the window first reads it."""
    L, layers = _loewy(N)
    s, t = block = _block(layers)
    beta = _ranks(res)

    def diff(i, room):
        # block of D_i: C_i -> C_{i-1}, zero outside 1 <= i <= head
        res.extend(i)
        if 1 <= i <= res.head:
            return _tor_block(res.nonzeros[i - 1], L, layers, room)
        return _no_entries(beta(i - 1) * t, beta(i) * s)

    return _window(L, diff, beta, 1, block, last, cycles, excess)


def _plan(beta, J: int | None, d: int, n: int) -> range:
    """The degrees at which the honest head of a table through degree n may
    end, in order: a pure function of M's certified Betti numbers beta
    (through n + 1), its junction J, d = dim N and n, reading
    `resolution.CHAIN_BUDGET` and MAX_WINDOW_ROWS when called.  Chain
    module j has dimension beta_j d.  The table computes degrees 0, 1, ...
    through at most the last of them, and checks the margin at each one.

    With J None (Ext and tor_induced) the one degree is the largest w <= n
    whose modules j <= w + 1 fit CHAIN_BUDGET, or 0.  With J it is n when that
    largest w is n; else the degrees run from J + TOR_MARGIN + 1 (capped at
    n), the first with room for a full margin above J + 1, where the length
    count may legitimately fail, and go on one at a time, through n, while
    the next module, of dimension beta_{w+1} d, fits MAX_WINDOW_ROWS."""
    dims = [b * d for b in beta[:n + 2]]
    w = n
    while w > 0 and max(dims[:w + 2]) > resolution.CHAIN_BUDGET:
        w -= 1
    if J is None or w == n:
        return range(w, w + 1)
    first = last = min(n, J + TOR_MARGIN + 1)
    while last < n and dims[last + 2] <= MAX_WINDOW_ROWS:
        last += 1
    return range(first, last + 1)


def _base(nu_x: int, nu_mx: int, b) -> list[int]:
    """nu_x b_i - nu_mx b_{i-1} for every degree i of b (b_{-1} = 0): the
    length count of Tor_i(X, N) for b the Betti numbers of N, nu_x = nu(X)
    and nu_mx = nu(mX), without the images of Tor(iota_X, N)."""
    return [nu_x * bi - nu_mx * prev for bi, prev in zip(b, [0, *b])]


def _margin(lengths, base, lo: int, hi: int) -> int:
    """Number of consecutive degrees hi, hi - 1, ... above lo where the
    lengths equal the length count base."""
    i = hi
    while i > lo and lengths[i] == base[i]:
        i -= 1
    return hi - i


def _computed(hom) -> list[TorEntry]:
    return [TorEntry(i, h.length, h.nu, h.m_annihilated, COMPUTED)
            for i, h in enumerate(hom)]


def _build_table(M: FiniteModule, N: FiniteModule, n: int, kind,
                 window) -> TorTable:
    """The table of `kind` (TorTable or ExtTable) through degree n, whose
    honest degrees come from `window`, the homology or the cohomology window
    of F_*(M) and N.  It is zero when M or N is, and honest through the head
    when M's resolution is finite.  Otherwise an Ext table is the dual tail
    of tor(M, N*), and a Tor table is served for M = k^a, for N free, or by
    the length count past M's junction."""
    if M.ring != N.ring:
        raise RingMismatch("modules over different rings")
    if n < 0:
        raise GorlabError(f"negative degree {n}")
    res = resolve(M, max(n, 1))
    if N.dim == 0 or M.dim == 0:
        ent = [TorEntry(i, 0, 0, True, COMPUTED) for i in range(n + 1)]
        return kind(M, N, ent, n, None)
    if res.finite:
        w = min(n, res.head)
        ent = _computed(window(res, N, w))
        ent += [TorEntry(i, 0, 0, True, COMPUTED) for i in range(w + 1, n + 1)]
        return kind(M, N, ent, w, None)

    if kind is ExtTable:
        # Ext^i(M, N) is the dual of Tor_i(M, N*): honest degrees from the
        # Hom complex only through the dual table's window, and past it the
        # dual's entries.  nu of a dual is the socle's dimension, not nu, so
        # an entry is copied only where m kills it and length and nu agree:
        # every certified entry, and a computed one past w that m kills
        tdual = tor(M, matlis_dual(N), n)
        w, = _plan(res.betti(n + 1), None, N.dim, tdual.window)
        ent = _computed(window(res, N, w))
        for i in range(len(ent)):
            if ent[i].length != tdual.entries[i].length:
                raise CertificateError(f"Ext/Tor duality violated at degree {i}")
        for t in tdual.entries[w + 1: n + 1]:
            if not t.m_annihilated:
                raise CertificateError(
                    f"Ext degree {t.i} copied from the dual table is not m-annihilated")
        return kind(M, N, ent + tdual.entries[w + 1: n + 1], w, tdual.junction)

    if not M.all_ops[1:].any():
        # mM, the sum of the images of x_1..x_e and w, is 0, so M is a
        # k-vector space k^a: tensoring the minimal resolution of N
        # with k kills every differential, so Tor_i(M, N) = k^(a b_i(N));
        # the entries are computed on the head tail certification reads
        a = M.dim
        resN = resolve(N, n)
        bN = resN.betti(n)
        wN = min(n, resN.head if resN.finite else resN.tail_certificate().head - 1)
        ent = [TorEntry(i, a * bN[i], a * bN[i], True,
                        COMPUTED if i <= wN else CERTIFIED)
               for i in range(n + 1)]
        return kind(M, N, ent, wN, None if wN >= n else resN.tail_certificate().junction)

    if resolve(N, 1).finite:
        # finite projective dimension over an artinian local ring forces N
        # free, and a free module is also injective here (R is self-injective)
        # so both Tor and Ext vanish exactly in positive degrees
        ent = _computed(window(res, N, 0))
        ent += [TorEntry(i, 0, 0, True, COMPUTED) for i in range(1, n + 1)]
        return kind(M, N, ent, n, None)

    J = res.tail_certificate().junction
    plan = _plan(res.betti(n + 1), J, N.dim, n)
    if plan[0] < n:
        # the length count of the junction syzygy X = M_J, as
        # Tor_i(M, N) = Tor_{i-J}(X, N) for i > J
        tail = [0] * J + _base(res.betti_head[J], res.nu_m[J - 1],
                               resolve(N, n - J + 1).betti(n - J))
    ent = []
    for w, h in enumerate(window(res, N, plan[-1])):
        ent.append(TorEntry(w, h.length, h.nu, h.m_annihilated, COMPUTED))
        if w == n:
            return kind(M, N, ent, w, None)
        # certify: equality of the honest lengths with the length count on
        # a margin of degrees, from the plan's first degree on
        lengths = [t.length for t in ent]
        if w >= plan[0] and _margin(lengths, tail, J, w) >= TOR_MARGIN:
            for i in range(w + 1, n + 1):
                if tail[i] < 0:
                    raise CertificateError(
                        f"negative length count {tail[i]} in degree {i}")
                ent.append(TorEntry(i, tail[i], tail[i], True, CERTIFIED))
            return kind(M, N, ent, w, J)
    raise InsufficientDegree(
        f"no length-count equality margin of {TOR_MARGIN} within the "
        f"materialized window (degrees through {w})", violating_index=w)


def tor(M: FiniteModule, N: FiniteModule, n: int) -> TorTable:
    """Tor_i(M, N) bookkeeping for 0 <= i <= n."""
    return _build_table(M, N, n, TorTable, _homology_window)


def _cohomology_window(res: MinimalFreeResolution, N: FiniteModule, last: int):
    """Honest Ext cohomology of Hom(F_*(M), N), for M the module `res`
    resolves, on the Loewy copy L of N with the full matrices (the trivial
    block), degree by degree through `last` (see `_window`)."""
    L = _loewy(N)[0]
    d = L.dim
    beta = _ranks(res)

    def diff(i, room):
        # E_i: C^i -> C^{i+1}, built from del_{i+1}, zero outside 0 <= i < head
        res.extend(i + 1)
        if 0 <= i < res.head:
            return _ext_diff(res.nonzeros[i], L, room)
        return _no_entries(beta(i + 1) * d, beta(i) * d)

    return _window(L, diff, beta, -1, (d, d), last)


def ext(M: FiniteModule, N: FiniteModule, n: int) -> ExtTable:
    """Ext^i(M, N) bookkeeping for 0 <= i <= n.

    Honest degrees come from the Hom complex; the certified tail is pulled
    across Matlis duality from tor(M, N*) (`_build_table`).
    """
    return _build_table(M, N, n, ExtTable, _cohomology_window)


def tor_induced(phi: ModuleMap, N: FiniteModule, n: int) -> list[InducedMapResult]:
    """Ranks of Tor_i(phi, N): Tor_i(A, N) -> Tor_i(B, N) for honest degrees
    0..min(n, window), on the layer block (s, t) of N's Loewy copy L, from
    triplets: one join with F^T (F = f_i tensor L) maps into B's copies A's
    cycles, on the first s coordinates of each copy, and one unit row per
    dropped coordinate, a cycle.  The rank is that of the images modulo B's
    boundaries: their last t coordinates of each B copy joined with B's
    left kernel, beside their first d - t as they are (`_rank`).  The
    lifts, joins and blocks check against one room, read before degree 0."""
    A, B = phi.source, phi.target
    if N.ring != A.ring:
        raise RingMismatch("modules over different rings")
    if n < 0:
        raise GorlabError(f"negative degree {n}")
    p = N.ring.p
    ra, rb = (resolve(X, max(n, 1)) for X in (A, B))
    w = min([n] + [r.head for r in (ra, rb) if r.finite])
    for r in (ra, rb):
        w, = _plan(r.betti(n + 1), None, N.dim, w)
    L, layers = _loewy(N)
    (s, t), d = _block(layers), L.dim
    room = resolution.available_bytes()
    out = []
    for i, (f, ha, hb) in enumerate(zip(lift_chain_map(phi, w, room),
                                        _homology_window(ra, N, w, cycles=True, excess=False),
                                        _homology_window(rb, N, w, excess=False))):
        rank = 0
        if hb.length:
            (zr, zc, zv, (nz, _)), (kr, kc, kv, (nk, _)) = ha.cycles, hb.left_kernel
            drop = np.flatnonzero(np.arange(ra.betti_head[i] * d) % d >= s)
            b = rb.betti_head[i]
            cols = nk + b * (d - t)   # K's rows, then B's first d - t
            order = np.argsort(kc, kind="stable")
            try:
                F = kmat_triplets(f.transpose(), L.all_ops.transpose(0, 2, 1), p, room)
                pos, vals = join_sum(np.concatenate([zc // s * d + zc % s, drop]),
                                     np.concatenate([zr, nz + np.arange(len(drop))]) * b * d,
                                     np.concatenate([zv, np.ones_like(drop)]),
                                     *F[:3], p, room)
                z, y, c = np.unravel_index(pos, (nz + len(drop), b, d))
                tail = c >= d - t
                kpos, kvals = join_sum(y[tail] * t + c[tail] - (d - t), z[tail] * cols,
                                       vals[tail], kc[order], kr[order], kv[order], p, room)
                rank = _rank(np.concatenate([kpos, (z * cols + nk + y * (d - t) + c)[~tail]]),
                             np.concatenate([kvals, vals[~tail]]), cols, p, room,
                             "the induced map's")
            except NotMaterialized as exc:
                raise NotMaterialized(f"induced map degree {i}: {exc}") from None
        out.append(InducedMapResult(i, rank, ha.length, hb.length, COMPUTED))
    return out


def length_count(M: FiniteModule, N: FiniteModule, n: int):
    """(table, base, ranks) for the length count of Tor(M, N), m^2 M = 0:

        l(Tor_i(M,N)) = base_i + l(L_i) + l(L_{i-1}),
        base_i = nu(M) b_i(N) - nu(mM) b_{i-1}(N),

    where L_i, the image of Tor_i(iota_M, N), has length ranks[i].  The
    table is tor(M, N, n) and base runs through n; the ranks are honest,
    over tor_induced's window within the table's, or all zero through n
    when mM = 0 and iota_M is the zero map."""
    if M.ring != N.ring:
        raise RingMismatch("modules over different rings")
    if M.action_w.any():
        raise RadicalSquareNonzero("the length count requires m^2 M = 0")
    U, piv = radical_rows(M)
    table = tor(M, N, n)
    base = _base(nu(M), U.shape[0], resolve(N, n).betti(n))
    if U.shape[0] == 0:
        return table, base, [0] * (n + 1)
    iota = submodule(M, U, piv)[1]
    return table, base, [r.rank for r in tor_induced(iota, N, min(n, table.window))]


@dataclass
class LengthCountReport:
    M: FiniteModule
    N: FiniteModule
    degrees: list[dict]
    all_equalities_hold: bool


def length_count_audit(M: FiniteModule, N: FiniteModule, n: int) -> LengthCountReport:
    """Check the identity of `length_count`, degree by honest degree,
    together with the companion inequality l(Tor_i(M,N)) >= base_i.
    Requires m^2 M = 0."""
    table, base, ranks = length_count(M, N, n)
    rows = []
    for i in range(1, min(table.window, len(ranks) - 1) + 1):
        li, r, prev = table.entries[i].length, ranks[i], ranks[i - 1]
        rows.append({
            "i": i,
            "length": li,
            "base": base[i],
            "rank_i": r,
            "rank_prev": prev,
            "equality": li == base[i] + r + prev,
            "inequality": li >= base[i],
            "equality_iff_vanishing": (li == base[i]) == (r == 0 and prev == 0),
        })
    return LengthCountReport(M, N, rows, all(row["equality"] for row in rows))


def iota_vanishing(M: FiniteModule, N: FiniteModule, n: int):
    """(ranks over the honest window, certified_through) for Tor_i(iota_M, N).

    By the length count, l(Tor_i(M,N)) = base_i exactly when the ranks
    vanish at i and i - 1, so equality on a margin of honest degrees and on
    every certified one through n proves the ranks zero through n;
    certified_through is then n, else the honest window.  Requires
    m^2 M = 0."""
    if M.ring != N.ring:
        raise RingMismatch("modules over different rings")
    if not M.all_ops[1:].any():
        return [0] * (n + 1), n  # mM = 0: the inclusion is the zero map
    table, base, ranks = length_count(M, N, n)
    w, lengths = table.window, table.lengths()
    if len(ranks) > n or (_margin(lengths, base, 0, w) >= TOR_MARGIN
                          and lengths[w + 1:] == base[w + 1:]):
        return ranks, n
    return ranks, len(ranks) - 1
