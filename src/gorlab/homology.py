"""Tor and Ext tables, induced maps on homology, and length bookkeeping.

Materialized degrees are honest homology computations on F_*(M) tensor N
(resp. Hom(F_*(M), N)).  The chain and the cochain complex share one loop,
`_window`, for cycles, boundaries and radical excess; each builds its own
differentials, so Ext through the Hom complex stays an independent check on
Tor against the Matlis dual.  Only lengths and ranks are read, so no basis
of the boundaries is built: over a field the image of a map A is the common
zero set of its left kernel K, the kernel of A^T, so rank A = rows - dim K,
and a set of vectors adds to the boundaries the rank of its product with
K^T.  Every map is thus eliminated twice, for its kernel as the map out of
one degree and for its left kernel as the map into the next, and the two
ranks must agree.

Tor runs on the Loewy copy of N (`_loewy`), written in a basis adapted to
N > mN > m^2 N with layers N_0, N_1, N_2.  The entries of a minimal
differential lie in m and m^3 = 0, so del tensor N maps N into mN and kills
the last nonzero layer: only the layer block F_i (N_0 + N_1) -> F_{i-1} mN
(F_i N_0 -> F_{i-1} N_1 when m^2 N = 0) is eliminated, the dropped columns
are cycles, and boundaries and radical excess live in F_i mN.  Neither the
full matrix del tensor N nor a dense block is ever built: `_tor_block` emits
the block as (row, column, value) triplets, one tile per nonzero of del's
m-part, read off the nonzeros the resolution stores, and refuses with
`CertificateError` the two causes of a differential nonzero outside its
block, a unit entry in del and a copy not adapted to its layers.  That is
the guard of the Tor windows, since a block complex over m^2 N = 0 has no
negative length to detect.  Ext keeps N's own
basis and the full Hom-complex matrices (the trivial block), also as
triplets (`_ext_diff`), so its honest degrees do not share the Loewy copy or
the block with the Tor route it is checked against.  `tor_induced` builds
the dense k-matrix of each lift, which may have unit entries, and reads it
on the windows' slices: against A's cycles on their s coordinates of each
copy, against B's left kernel on its last t.
Every block goes through `linalg.kernel_rref`, the one sparse kernel, which
also serves the resolution, its columns relabelled fewest entries first;
homology reads only ranks and spans, so no output depends on the basis.

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
together, degree by degree.  `_window` reads the room the process can get
(`resolution.available_bytes`) once, before degree 0, and holds every
kernel as its triplets; the eliminations (`linalg.kernel_rref`) and the
radical excess check what they allocate against that room, and a degree
that does not fit is refused with NotMaterialized before it allocates.

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
    free_kmat,
    kmat_triplets,
    lift_chain_map,
    resolve,
)

TOR_MARGIN = 3       # consecutive equality degrees required for a tail
MAX_WINDOW_ROWS = 12000   # max dimension of the next module when deepening
_EXCESS_CHUNK = 1024      # cycles per product in `_radical_excess`
# what one `_radical_excess` call holds besides the cells and lines its
# check counts: numpy's temporaries, at most 5.4 KiB above the counted
# bytes under tracemalloc over the e = 4 and e = 5 main-theorem trials
_EXCESS_CALL_BYTES = 16 * 2**10

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


def _ext_diff(G: Nonzeros, N: FiniteModule):
    """k-matrix of Hom(del, N): N^j -> N^a (precomposition with del), for
    the nonzeros G of del's entry array, on N's own basis with all its
    dim N x dim N tiles, as triplets."""
    return kmat_triplets(G.transpose(), N.all_ops, N.ring.p)


def _radical_excess(N: FiniteModule, Z, K, block, room: float) -> int:
    """Rank added to the boundaries by m times the span of the rows of Z,
    both written in the coordinates of the layer block (s, t) (see
    `_window`): Z in the first s coordinates of each copy of N, the
    boundaries in the last t, where they are the common zeros of the rows
    of K (the left kernel of the map in).  Z and K are triplets (rows, cols,
    vals, shape) of `linalg.kernel_rref`, Z's rows sorted.  A vector v then
    adds to the boundaries exactly what v K^T adds to 0, so the excess is
    the rank of the images times K^T.  The span of Z must be an
    R-submodule modulo the dropped coordinates, which m kills (callers pass
    cycles); as w = x_g x_h / form[g, h], the images under x_1..x_e alone
    then span that product.

    K is densified once, and Z one chunk of _EXCESS_CHUNK cycles at a time:
    the images of the chunk, one row (z, g) per cycle z and x_g, are
    multiplied by K^T, and the running rref of those products has at most
    dim K columns and rows.  Before it allocates, NotMaterialized is raised
    when K, one chunk and the running rref, each with the copies the
    products make and the rref at the cost `linalg.kernel_rref` checks per
    stored entry, row and column, plus _EXCESS_CALL_BYTES for the call's
    temporaries, exceed `room` bytes.  Both products go through
    `linalg.matmul_mod`: exact in float64 while the inner dimension (s, then
    b t for b copies of N) times (p-1)^2 is below 2^53, in int64 past it."""
    p, d, e = N.ring.p, N.dim, N.ring.e
    s, t = block
    zr, zc, zv, (nz, n) = Z
    nk, bt = K[3]
    if nk == 0:
        return 0   # every vector in the last t coordinates is a boundary
    c = min(_EXCESS_CHUNK, nz)
    # K and its float64 copy; per cycle of a chunk its row and float64 copy,
    # its e images three times over and their products with K^T twice; the
    # running rref with a chunk's products at the elimination's cost per
    # cell and per line; and the call's own temporaries
    need = (8 * (2 * nk * bt + c * (2 * n + 3 * e * bt + 2 * e * nk))
            + linalg.ENTRY_BYTES * (nk + c * e) * nk
            + linalg.LINE_BYTES * (2 * nk + c * e) + _EXCESS_CALL_BYTES)
    if need > room:
        raise NotMaterialized(
            f"the radical excess needs about {need / 2**10:.0f} KiB, "
            f"the process can get {max(room, 0) / 2**10:.1f} KiB")
    K = linalg.dense(*K)
    opsT = N.actions[:, d - t:, :s].transpose(0, 2, 1)
    B = np.zeros((0, nk), dtype=np.int64)
    for lo in range(0, nz, _EXCESS_CHUNK):
        hi = min(lo + _EXCESS_CHUNK, nz)
        a, b = np.searchsorted(zr, [lo, hi])
        Zc = linalg.dense(zr[a:b] - lo, zc[a:b], zv[a:b], (hi - lo, n))
        # (z, 1, j, s) @ (e, s, t): one row (j, t) per cycle z and x_g
        img = linalg.matmul_mod(Zc.reshape(hi - lo, 1, -1, s), opsT, p)
        P = linalg.matmul_mod(img.reshape(-1, bt), K.T, p)
        B = np.concatenate([B, P])
        B = B[:len(linalg.rref_inplace(B, p))]
    return B.shape[0]


def _loewy(N: FiniteModule):
    """(L, h): N written in a k-basis adapted to N > mN > m^2 N, cached on N.
    The first h[0] coordinates of L span a complement of mN, the next h[1] a
    complement of m^2 N in mN and the last h[2] span m^2 N, so x_1..x_e and
    w map each of these layers into the ones after it."""
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
            Qinv = np.stack(linalg.solve_many(Q, I, p), axis=1)
            ops = np.einsum("ab,ibc,cd->iad", Qinv, N.all_ops[1:], Q) % p
            L = FiniteModule(N.ring, ops[:-1], ops[-1])
        N._cache["loewy"] = (L, h)
    return N._cache["loewy"]


def _block(h) -> tuple[int, int]:
    """Layer block (s, t) of the Loewy layer sizes h: m maps the first s
    coordinates into the last t, and kills the last nonzero layer."""
    h0, h1, h2 = h
    return h0 + h1 + h2 - (h2 or h1 or h0), h1 + h2


def _tor_block(G: Nonzeros, L: FiniteModule, layers):
    """Layer block of del tensor L for the nonzeros G of del's entry array
    (a, j, D) and the Loewy copy (L, layers) of `_loewy`: the (j t) x (a s)
    matrix of the maps from the first s coordinates of each of the a source
    copies of L into the last t of each of the j target copies, for (s, t)
    = `_block(layers)`, as triplets (`kmat_triplets`): each nonzero of
    del's m-part places its multiple of the t x s corner of its action.
    Neither del, nor the full matrix, nor the dense block is ever built.

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
    return kmat_triplets(G, L.all_ops[:, d - t:, :s], p)


@dataclass
class _Homology:
    """Honest homology data of one complex degree, in the coordinates of the
    window's layer block (s, t)."""

    length: int
    nu: int
    m_annihilated: bool
    cycles: tuple        # triplets of the kernel of the block out (first s
                         # coords), as `linalg.kernel_rref` returns them
    left_kernel: tuple   # triplets of the left kernel of the block in (last
                         # t coords), whose common zeros are the boundaries


def _window(N: FiniteModule, diff, ranks, step: int, block, last: int):
    """Honest homology of a complex of k-spaces built on N: yields one
    `_Homology` per degree 0..last, in order, so a caller stops reading once
    it has what it needs.  diff(i) is the map out of degree i, diff(i + step)
    the map into it (step +1 for a chain complex, -1 for a cochain complex);
    ranks(i) is the number of copies of N in degree i, 0 outside the
    complex.

    block = (s, t): every differential vanishes outside the first s columns
    and the last t rows of each N-block, and diff(j) returns only that
    block A_j, as triplets (rows, cols, vals, shape) of the matrix with
    rows (target copy, t) and columns (source copy, s); the caller
    guarantees the support (`_tor_block` checks it, and the trivial block
    (dim N, dim N) of Ext has nothing outside).  `linalg.kernel_rref`
    eliminates A_i and, with rows and columns swapped, A_{i+step}^T, so no
    block is ever dense, and the kernels, mapped back from the relabelled
    columns, are held as triplets.  The cycles are ker A_i
    plus the dropped columns of the ranks(i) copies, the boundaries lie in
    the last t coordinates, where they are read through the left kernel K
    of the map in A_{i+step}: its rank is rows - dim K, which must equal the
    rank cols - nullity that the degree reading it as its map out finds, or
    CertificateError is raised, and the radical excess is a rank against K
    (`_radical_excess`).  Each block is built once and at most two are
    held: before the radical excess, every one that degree i + 1 will not
    read is dropped, and at degree `last` all of them.  The room the
    process can get is read once, before degree 0, and every elimination
    and the radical excess check what they allocate against it: a degree
    that does not fit raises NotMaterialized, naming the degree."""
    p, d = N.ring.p, N.dim
    s = block[0]
    kind = "Tor" if step > 0 else "Ext"
    mats: dict = {}

    def mat(j):
        # built on first use: the map into degree i is not yet alive while
        # the kernel of the map out is eliminated
        if j not in mats:
            mats[j] = diff(j)
        return mats[j]

    def kernel(rows, cols, vals, shape):
        # any basis will do, since only ranks and spans are read: the
        # columns are relabelled so that kernel_rref's right-to-left pass
        # takes them fewest entries first (ties by index), as structured
        # Gaussian elimination does, which keeps the fill low in whatever
        # basis N is written, and the kernel's columns are mapped back
        n = shape[1]
        order = np.argsort(np.bincount(cols, minlength=n), kind="stable")[::-1]
        label = np.empty(n, dtype=np.int64)
        label[order] = np.arange(n)
        kr, kc, kv, pivots = linalg.kernel_rref(rows, label[cols], vals, shape, p, room)
        return kr, order[kc], kv, (len(pivots), n)

    ranks_of: dict = {}

    def check_rank(j, r, how):
        # each map is eliminated twice, as the map out of one degree and,
        # transposed, as the map into the next: its two ranks must agree
        if ranks_of.setdefault(j, (r, how))[0] != r:
            raise CertificateError(
                f"{kind} map {j} has rank {ranks_of[j][0]} from its "
                f"{ranks_of[j][1]} and {r} from its {how}")
        return r

    room = resolution.available_bytes()
    for i in range(last + 1):
        try:
            rows, cols, vals, (m, n) = mat(i)
            Z = kernel(rows, cols, vals, (m, n))
            check_rank(i, n - Z[3][0], "kernel")
            rows, cols, vals, (m, n) = mat(i + step)
            K = kernel(cols, rows, vals, (n, m))
            li = Z[3][0] + ranks(i) * (d - s) - check_rank(
                i + step, m - K[3][0], "left kernel")
            if li < 0:
                raise CertificateError(f"negative {kind} length {li} in degree {i}")
            # a block dropped below must not stay alive for the excess
            del rows, cols, vals
            for j in [j for j in mats if i == last or j not in (i + 1, i + 1 + step)]:
                del mats[j]
            extra = _radical_excess(N, Z, K, block, room)
        except NotMaterialized as exc:
            raise NotMaterialized(f"{kind} degree {i}: {exc}") from None
        yield _Homology(li, li - extra, extra == 0, Z, K)


def _ranks(res: MinimalFreeResolution):
    """beta_i for i >= 0 (certified past the head), 0 below."""
    return lambda i: res.betti(i)[i] if i >= 0 else 0


def _homology_window(res: MinimalFreeResolution, N: FiniteModule, last: int):
    """Honest Tor homology of F_*(res.module) tensor N, on the Loewy copy of
    N, degree by degree through `last` (see `_window`); each differential is
    materialized when the window first reads it."""
    L, layers = _loewy(N)
    s, t = block = _block(layers)
    beta = _ranks(res)

    def diff(i):
        # block of D_i: C_i -> C_{i-1}, zero outside 1 <= i <= head
        res.extend(i)
        if 1 <= i <= res.head:
            return _tor_block(res.nonzeros[i - 1], L, layers)
        return _no_entries(beta(i - 1) * t, beta(i) * s)

    return _window(L, diff, beta, 1, block, last)


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
        # dual's certified entries, where m kills everything so length and
        # nu agree
        tdual = tor(M, matlis_dual(N), n)
        w, = _plan(res.betti(n + 1), None, N.dim, tdual.window)
        ent = _computed(window(res, N, w))
        for i in range(len(ent)):
            if ent[i].length != tdual.entries[i].length:
                raise CertificateError(f"Ext/Tor duality violated at degree {i}")
        return kind(M, N, ent + tdual.entries[w + 1: n + 1], w, tdual.junction)

    if radical_rows(M)[0].shape[0] == 0:
        # M is a k-vector space k^a: tensoring the minimal resolution of N
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
    """Honest Ext cohomology of Hom(F_*(res.module), N), on N's own basis
    with the full matrices (the trivial block), degree by degree through
    `last` (see `_window`)."""
    d = N.dim
    beta = _ranks(res)

    def diff(i):
        # E_i: C^i -> C^{i+1}, built from del_{i+1}, zero outside 0 <= i < head
        res.extend(i + 1)
        if 0 <= i < res.head:
            return _ext_diff(res.nonzeros[i], N)
        return _no_entries(beta(i + 1) * d, beta(i) * d)

    return _window(N, diff, beta, -1, (d, d), last)


def ext(M: FiniteModule, N: FiniteModule, n: int) -> ExtTable:
    """Ext^i(M, N) bookkeeping for 0 <= i <= n.

    Honest degrees come from the Hom complex; the certified tail is pulled
    across Matlis duality from tor(M, N*) (`_build_table`).
    """
    return _build_table(M, N, n, ExtTable, _cohomology_window)


def tor_induced(phi: ModuleMap, N: FiniteModule, n: int) -> list[InducedMapResult]:
    """Ranks of Tor_i(phi, N): Tor_i(A, N) -> Tor_i(B, N) for honest degrees
    0..min(n, window), on the layer block (s, t) of N's Loewy copy L.  The
    images of A's cycles are the rows of F^T (F = f_i tensor L) for the
    first s coordinates of each copy, times the cycles, beside the rows for
    the last d - s, which are cycles.  The rank is that of the images
    modulo B's boundaries: their last t coordinates of each B copy times
    B's left kernel, beside their first d - t as they are."""
    A, B = phi.source, phi.target
    if N.ring != A.ring:
        raise RingMismatch("modules over different rings")
    if n < 0:
        raise GorlabError(f"negative degree {n}")
    p = N.ring.p
    ra = resolve(A, max(n, 1))
    rb = resolve(B, max(n, 1))
    w = min([n] + [r.head for r in (ra, rb) if r.finite])
    for r in (ra, rb):
        w, = _plan(r.betti(n + 1), None, N.dim, w)
    L, layers = _loewy(N)
    s, t = _block(layers)
    d = L.dim
    out = []
    for i, (f, ha, hb) in enumerate(zip(lift_chain_map(phi, w),
                                        _homology_window(ra, N, w),
                                        _homology_window(rb, N, w))):
        rank = 0
        if hb.length:
            a, b = ra.betti_head[i], rb.betti_head[i]
            FT = free_kmat(f, L.all_ops, p).T.reshape(a, d, b * d)
            img = np.concatenate([
                linalg.matmul_mod(linalg.dense(*ha.cycles),
                                  FT[:, :s].reshape(a * s, b * d), p),
                FT[:, s:].reshape(a * (d - s), b * d)])
            img = img.reshape(len(img), b, d)
            P = np.concatenate([
                linalg.matmul_mod(img[:, :, d - t:].reshape(len(img), b * t),
                                  linalg.dense(*hb.left_kernel).T, p),
                img[:, :, :d - t].reshape(len(img), b * (d - t))], axis=1)
            rank = linalg.rank_array(P, p)
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
    if radical_square_rows(M)[0].shape[0]:
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
    if radical_rows(M)[0].shape[0] == 0:
        return [0] * (n + 1), n  # mM = 0: the inclusion is the zero map
    table, base, ranks = length_count(M, N, n)
    w, lengths = table.window, table.lengths()
    if len(ranks) > n or (_margin(lengths, base, 0, w) >= TOR_MARGIN
                          and lengths[w + 1:] == base[w + 1:]):
        return ranks, n
    return ranks, len(ranks) - 1
