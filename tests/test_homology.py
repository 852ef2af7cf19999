import hashlib
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gorlab import (
    FiniteModule,
    cyclic_module,
    ext,
    hyperbolic_form,
    identity_form,
    io,
    iota_vanishing,
    length_count_audit,
    make_ring,
    matlis_dual,
    nu,
    poincare_series,
    random_module,
    resolve,
    series_identity_check,
    tor,
    tor_induced,
)
import gorlab.homology as hm
import gorlab.resolution as rs
from gorlab import linalg
from gorlab.errors import (
    CertificateError,
    GorlabError,
    InsufficientDegree,
    NotMaterialized,
    RadicalSquareNonzero,
    RingMismatch,
)
from gorlab.homology import CERTIFIED, COMPUTED, TOR_MARGIN
from gorlab.linalg import kernel_array, rank_array, rref_array, solve_many
from gorlab.modules import (
    ModuleMap,
    hilbert_function,
    quotient,
    radical_rows,
    radical_square_rows,
    submodule,
)
from gorlab.resolution import Nonzeros, free_kmat, lift_chain_map, syzygy
from gorlab.verify import TrialConfig, _draw_ideal_gens, _draw_module, _ring_for


def _iota(M):
    U, piv = radical_rows(M)
    return submodule(M, U, piv)[1]


def test_tor_k_k_gives_betti_of_k(k3):
    table = tor(k3, k3, 6)
    assert table.lengths() == [1, 3, 8, 21, 55, 144, 377]
    assert table.nus() == table.lengths()  # every Tor_i(k,k) is a k-space
    assert all(t.m_annihilated for t in table.entries)


def test_tor_against_k_recovers_betti(R3, k3):
    M = random_module(R3, 2, 2, seed=41)
    b = resolve(M, 8).betti(8)
    assert tor(M, k3, 8).lengths() == b
    assert tor(k3, M, 8).lengths() == b  # balance with the k^a fast path


def test_tor_is_balanced(R3):
    A = random_module(R3, 2, 2, seed=1)
    B = random_module(R3, 1, 2, seed=2)
    assert tor(A, B, 6).lengths() == tor(B, A, 6).lengths()


def test_tor_zero_module(R3, k3):
    Z = FiniteModule.zero(R3)
    assert tor(Z, k3, 5).lengths() == [0] * 6


def test_ext_against_k_recovers_betti(R3, k3):
    M = random_module(R3, 2, 1, seed=3)
    assert ext(M, k3, 6).lengths() == resolve(M, 6).betti(6)


def test_ext_agrees_with_dual_tor(R3):
    # independent routes: cochain complex homology vs Tor against the dual
    M = random_module(R3, 2, 2, seed=13)
    N = random_module(R3, 2, 1, seed=14)
    assert ext(M, N, 6).lengths() == tor(M, matlis_dual(N), 6).lengths()


def test_counterexample_e2_tor_structure(R2, Rx2):
    table = tor(Rx2, Rx2, 15)
    for t in table.entries[1:]:
        assert t.length == 2 and t.nu == 1 and not t.m_annihilated
    ranks = tor_induced(_iota(Rx2), Rx2, min(15, table.window))
    assert all(r.rank == 1 for r in ranks[1:])


def test_main_theorem_instance_e3(R3):
    # for e = 3 the tail is m-annihilated with length = nu
    M = random_module(R3, 2, 2, seed=6)
    N = random_module(R3, 2, 1, seed=7)
    ttab, etab = tor(M, N, 15), ext(M, N, 15)
    for table in (ttab, etab):
        tail = table.entries[5:]
        assert all(t.m_annihilated and t.length == t.nu for t in tail)


def test_provenance_and_window(R3):
    M = random_module(R3, 2, 2, seed=9)
    N = random_module(R3, 2, 2, seed=10)
    table = tor(M, N, 25)
    for t in table.entries:
        assert t.provenance == (COMPUTED if t.i <= table.window else CERTIFIED)
    if table.window < 25:
        assert table.junction is not None
        # certified entries require a margin of honest agreement
        assert table.window >= table.junction + TOR_MARGIN - 1


def test_certified_tail_cross_checked_against_honest(R3, monkeypatch):
    # dual-route: force the certificate with a tiny budget and compare it
    # against the default (honest within its window) computation
    M = random_module(R3, 1, 2, seed=30)
    N = random_module(R3, 1, 1, seed=31)
    honest = tor(M, N, 12)
    monkeypatch.setattr(rs, "CHAIN_BUDGET", 60)
    frugal = tor(M, N, 12)
    assert frugal.lengths() == honest.lengths()
    assert frugal.nus() == honest.nus()


def test_free_module_takes_the_finite_resolution_edges(R3):
    # F_*(R^2) stops at degree 0, so the windows run on the zero
    # differentials past the head: D_1 and E_0 have an empty side
    F = FiniteModule.free(R3, 2)
    N = random_module(R3, 2, 1, seed=14)
    for table in (tor(F, N, 6), ext(F, N, 6)):
        assert table.lengths() == [14, 0, 0, 0, 0, 0, 0]
        assert table.nus() == [4, 0, 0, 0, 0, 0, 0]
        assert [t.m_annihilated for t in table.entries] == [False] + [True] * 6
        assert table.window == 1 and table.junction is None
        assert all(t.provenance == COMPUTED for t in table.entries)


def _sha(table, induced=None):
    text = io.canonical_json(io.table_to_dict(table, induced))
    return hashlib.sha256(text.encode()).hexdigest()


def test_ext_dual_tail_over_k_is_pinned(R3):
    # Ext(k, R) takes its tail from tor(k, R*), a k^a table with a free N;
    # sha256 recorded before Ext's dual tail moved into _build_table
    k, R = FiniteModule.residue_field(R3), FiniteModule.free(R3, 1)
    assert _sha(ext(k, R, 25)) == \
        "fca797257bede3864a5e878b5a8c9153858b5bd8221e5536d01db0dac71ce78c"


def test_finite_tail_certificate_does_not_depend_on_call_order(R3):
    # syzygy(R, 1) finds R's resolution finite before anything asks for its
    # tail certificate; tor(k, R) must still serve what a fresh call serves
    def serve(warm):
        k, R = FiniteModule.residue_field(R3), FiniteModule.free(R3, 1)
        if warm:
            syzygy(R, 1)
        table = tor(k, R, 25)
        return table.window, table.junction, _sha(table)

    fresh = serve(False)
    assert fresh[:2] == (1, 2)
    assert serve(True) == fresh


def test_certificate_head_does_not_depend_on_a_deeper_head(R3, monkeypatch):
    # with CHAIN_BUDGET at 70 the slack rule stops R3/(x_1)'s head at 5
    # (beta_5 D = 170); syzygy(N, 7) first takes the head to 7, past where
    # the slack degrees end, and the certificate and the table it serves
    # must still be the fresh ones
    monkeypatch.setattr(rs, "CHAIN_BUDGET", 70)

    def serve(warm):
        k, N = FiniteModule.residue_field(R3), cyclic_module(R3, [R3.x(1)])[0]
        if warm:
            syzygy(N, 7)
        cert = resolve(N, 0).tail_certificate()
        table = tor(k, N, 12)
        return (cert.junction, cert.head), table.window, table.junction, _sha(table)

    fresh = serve(False)
    assert fresh[:3] == ((1, 5), 4, 1)
    assert serve(True) == fresh


def test_negative_degrees_are_refused(R3):
    # a resolution already materialized through degree 10 must not turn a
    # negative degree into a slice of its Betti numbers
    M = cyclic_module(R3, [R3.x(1)])[0]
    resolve(M, 10)
    calls = (lambda: poincare_series(M, -3), lambda: tor(M, M, -2),
             lambda: ext(M, M, -2), lambda: tor_induced(_iota(M), M, -1))
    for call in calls:
        with pytest.raises(GorlabError, match="negative degree"):
            call()


def test_table_bytes_do_not_depend_on_history():
    # a resolution driven deeper by an earlier call must not move a window
    def serve(warm):
        R = make_ring(101, 3, identity_form(3))
        tables = []
        for build in (tor, ext):
            M = cyclic_module(R, [R.x(1)])[0]
            if warm:
                resolve(M, 9, min_head=9)
            tables.append(build(M, FiniteModule.residue_field(R), 20))
        return tables

    cold, warm = serve(False), serve(True)
    assert [t.window for t in cold] == [5, 5]
    assert [_sha(t) for t in warm] == [_sha(t) for t in cold]


class _CountingLinalg:
    """linalg as homology sees it, recording, densified, every matrix whose
    kernel it eliminates: a window takes two per degree, the map out and
    then the transpose of the map in, each with its columns relabelled."""

    def __init__(self):
        self.matrices = []

    @property
    def kernels(self):
        return [A.shape for A in self.matrices]

    def __getattr__(self, name):
        return getattr(linalg, name)

    def kernel_rref(self, rows, cols, vals, shape, p, room):
        self.matrices.append(linalg.dense(rows, cols, vals, shape))
        return linalg.kernel_rref(rows, cols, vals, shape, p, room)


def _retrying_pair():
    """Trial 14 of the vanishing check at its acceptance settings: dim M 3
    (junction 1), dim N 11, a table through degree 20 that certifies only
    after deepening its first window 5 to 6."""
    cfg = TrialConfig(trials=26, cutoff=20, margin=5)
    ring = _ring_for(cfg)
    rng = np.random.default_rng(cfg.seed + 14)
    M, _ = cyclic_module(ring, _draw_ideal_gens(ring, rng))
    return M, _draw_module(ring, cfg, rng)


def test_deeper_window_resumes(monkeypatch):
    M, N = _retrying_pair()
    counting = _CountingLinalg()
    monkeypatch.setattr(hm, "linalg", counting)
    built = []
    for name in ("_tor_block", "_no_entries"):
        def build(*args, f=getattr(hm, name)):
            built.append(f(*args))
            return built[-1]
        monkeypatch.setattr(hm, name, build)
    table = tor(M, N, 20)
    assert (M.dim, N.dim, table.window, table.junction) == (3, 11, 6, 1)
    # recorded when every retry recomputed degrees 0..w
    assert _sha(table) == \
        "b3e3fcb84d09ae40d045fd5e1f6a6b830aff8beaf668b8b269b8a31d2395ce39"
    # each of the degrees 0..6 eliminates its map out and the transpose of
    # its map in once: deepening the window from 5 to 6 eliminates only
    # the two matrices of degree 6
    beta = resolve(M, 20).betti(7)
    s, t = hm._block(hm._loewy(N)[1])

    def b(i):
        return beta[i] if i >= 0 else 0

    assert counting.kernels == [
        shape for i in range(7)
        for shape in ((b(i - 1) * t, b(i) * s), (b(i + 1) * s, b(i) * t))]
    # and builds each of the maps 0..7 it reads once
    assert [shape for *_, shape in built] == [
        (b(i - 1) * t, b(i) * s) for i in range(8)]


def test_tor_refuses_when_the_window_cannot_deepen(monkeypatch):
    # the retrying pair needs degree 6 for its margin; with no module small
    # enough to deepen into, its table stops at the first window 5 and
    # refuses instead of serving the length count
    M, N = _retrying_pair()
    monkeypatch.setattr(hm, "MAX_WINDOW_ROWS", 0)
    with pytest.raises(InsufficientDegree, match=r"\(degrees through 5\)") as exc:
        tor(M, N, 20)
    assert exc.value.violating_index == 5


def test_window_degree_refused_before_allocation(monkeypatch):
    # the window reads the room once, and each elimination checks what it
    # holds against it: with room for one byte less than the elimination of
    # the map into degree 4 holds at its start, degrees 0..3 are computed,
    # degree 4 eliminates its map out, and its transposed map in is refused
    # before it is eliminated
    R = make_ring(101, 3, identity_form(3))
    M = cyclic_module(R, [R.x(1)])[0]
    N = cyclic_module(R, [R.x(2)])[0]
    res = resolve(M, 20, min_head=7)
    resolve(N, 20)
    L, layers = hm._loewy(N)
    _, _, vals, (m, n) = hm._tor_block(res.nonzeros[4], L, layers)
    room = linalg.ENTRY_BYTES * len(vals) + linalg.LINE_BYTES * (m + n) - 1
    counting, eliminated, real = _CountingLinalg(), [], linalg._eliminate

    def eliminate(*args):
        eliminated.append(len(counting.matrices))
        return real(*args)

    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    monkeypatch.setattr(hm, "linalg", counting)
    monkeypatch.setattr(rs, "available_bytes", lambda: room)
    with pytest.raises(NotMaterialized, match=f"Tor degree 4: a {n} x {m} elimination") as exc:
        tor(M, N, 20)
    # the refusal shows the sizes: the room, short of one byte of the input's
    # entries and lines, stores one entry less than the input has
    assert len(vals) > 1 and (
        f"of {len(vals)} entries outgrows the {room / 2**10:.1f} KiB the process "
        f"can get, room for {len(vals) - 1} stored entries") in str(exc.value)
    # two kernels each for degrees 0..3, then degree 4's two; the last
    # elimination ran once nine kernels had been asked for, so the tenth
    # was refused before it was eliminated
    assert len(counting.kernels) == 10 and counting.kernels[-1] == (n, m)
    assert eliminated[-1] == 9


def test_radical_excess_refused_before_its_products(monkeypatch):
    # degree 0 of Tor(R/(x_1), R/(x_2)) has one cycle and a left kernel of
    # one entry: its radical excess joins that entry with the two nonzeros
    # of the x_g corners into one pair (M = K^T through each x_g), joins the
    # cycle's one entry with M's into one pair (P), and takes the rank of
    # P's 1 x 1 block.  With room for one byte less than the first join's
    # entries and pair, or than the block's cell and lines, the excess is
    # refused, naming the degree, before that join forms its pair or the
    # block is made.  This window's eliminations need more room than its
    # excess, so they are given all they ask here
    R = make_ring(101, 3, identity_form(3))
    M = cyclic_module(R, [R.x(1)])[0]
    N = cyclic_module(R, [R.x(2)])[0]
    resolve(M, 20)
    resolve(N, 20)
    entry, line = linalg.ENTRY_BYTES, linalg.LINE_BYTES
    blocks = []

    class Spy(_CountingLinalg):
        def kernel_rref(self, rows, cols, vals, shape, p, room):
            return super().kernel_rref(rows, cols, vals, shape, p, np.inf)

        def dense(self, *args):
            blocks.append(args[3])
            return linalg.dense(*args)

    for room, refusal in ((4 * entry - 1, "a join of 1 by 2 entries into 1 pairs"),
                          (entry + 2 * line - 1, "the radical excess's 1 x 1 block")):
        counting = Spy()
        with monkeypatch.context() as mp:
            mp.setattr(hm, "linalg", counting)
            mp.setattr(rs, "available_bytes", lambda: room)
            with pytest.raises(NotMaterialized, match=(
                    f"Tor degree 0: {refusal} outgrows the "
                    f"{room / 2**10:.1f} KiB the process can get")):
                tor(M, N, 20)
        assert len(counting.kernels) == 2 and blocks == []
    # with one byte more, the block is made, and every later excess of the
    # table fits too
    monkeypatch.setattr(hm, "linalg", Spy())
    monkeypatch.setattr(rs, "available_bytes", lambda: entry + 2 * line)
    assert tor(M, N, 20).window == 5 and blocks[0] == (1, 1)


# sha256 of the canonical JSON of tor (with its tor_induced ranks) and of
# ext, recorded before Tor and Ext shared one homology loop; every table
# has a certified tail
PINNED_TABLES = [
    (3, (2, 2, 21), (2, 1, 22), 12,
     "a9d12a738c9c6d04214e042d96c5b6e8fa417e233b10bf519b1342662e9aa622",
     "6bcb8c117e25359279546c16a43c9f4a5d4e7b91a193e3b72f3d282d0bf6e56b"),
    (3, (1, 2, 23), (2, 2, 24), 10,
     "ed550cc1d2fdc54e89a49c38569a4177220bd20c92ddff35983d8fb58315159d",
     "3b0c0ad3de82068c118b0ee4fb5bb14d7e08508e106719ffa81e64ed7841be07"),
    (4, (1, 1, 27), (1, 1, 28), 10,
     "a277c754280150cce5e5ce5c8b41dafc5d296a6ffef2e38e6c9f1347a59cafef",
     "455a76dae426f83eaa2303a7110fa050a552ed2e4f2476a2d1b0b60b6c45ee44"),
]


@pytest.mark.parametrize("e, m, n_mod, n, tor_sha, ext_sha", PINNED_TABLES)
def test_table_bytes_are_pinned(e, m, n_mod, n, tor_sha, ext_sha):
    R = make_ring(101, e, identity_form(e))
    M = random_module(R, m[0], m[1], seed=m[2])
    N = random_module(R, n_mod[0], n_mod[1], seed=n_mod[2])
    T = tor(M, N, n)
    induced = tor_induced(_iota(M), N, T.window)
    E = ext(M, N, n)
    assert T.window < n and E.window < n
    assert _sha(T, induced) == tor_sha
    assert _sha(E) == ext_sha


def test_length_count_audit(R3, Rx3):
    N = random_module(R3, 2, 2, seed=12)
    report = length_count_audit(Rx3, N, 8)
    assert report.all_equalities_hold
    for row in report.degrees:
        assert row["inequality"] and row["equality_iff_vanishing"]


# sha256 of the canonical JSON of the three length-count reports through
# degree 12: the audit's rows and verdict, iota_vanishing's ranks and
# certified degree, and every field of series_identity_check but M and N;
# recorded before the length count was written once
PINNED_LENGTH_COUNTS = [
    ("k3", (2, 2, 16),
     "ce1fcdd80f346f6091fa9320b9f28c5bb653a2adc83ce8adfdc506105a27d482",
     "74152a3e3e4f4087bcebcdeeb3e0fc93368176121670f23feb9fd98c357ae698",
     "6384ed2c12d73ca78cec0081be8fbdca1647c3c30596fe5ef34f8e16f64c1fbc"),
    ("Rx3", (2, 2, 12),
     "ac51c5eadafa7a0f804d38c16c5cdd235e201ba8ff0315f4c576f022881357f3",
     "51e4eb39320b3784fa1a3a130d672982c45e067c3d25eae1fa03907ba0da38b3",
     "3d70cde58132fa5950e0f6a28a097ed2f16e85ca927864454406940fdcdceedf"),
    ("Rx3", (2, 1, 15),
     "73b4e0e2d00007e0d6b4c8bc70193f6c34735c68a08967b90ced04dd4732b480",
     "5f53765f768f1966b34e2e198728e6e275c70d9125b318351b16737ed41fadbb",
     "45599adf4ae7b151782f00b4c978bc193462b391ed1bcb42285ac211be7f49c4"),
    ("Rx3", (2, 2, 54),
     "ac51c5eadafa7a0f804d38c16c5cdd235e201ba8ff0315f4c576f022881357f3",
     "51e4eb39320b3784fa1a3a130d672982c45e067c3d25eae1fa03907ba0da38b3",
     "3d70cde58132fa5950e0f6a28a097ed2f16e85ca927864454406940fdcdceedf"),
    ("Rx2", None,
     "0f5aeb070fa34cf16214021d1e6006b6a940c559b9b515b92585eb114fa1cf20",
     "a2eaf14c2fd26b25295780a3105996e12424060d2caaf9d6cb21df624f1e1537",
     "b37a4d87932aaaefb905fc7a25001b86e01766e59a0b3bc09406b2e3b40aed69"),
]


@pytest.mark.parametrize("m, n_mod, audit_sha, iota_sha, series_sha",
                         PINNED_LENGTH_COUNTS)
def test_length_count_reports_are_pinned(request, m, n_mod, audit_sha,
                                         iota_sha, series_sha):
    M = request.getfixturevalue(m)
    N = M if n_mod is None else random_module(M.ring, *n_mod[:2], seed=n_mod[2])
    audit = length_count_audit(M, N, 12)
    ranks, certified = iota_vanishing(M, N, 12)
    report = series_identity_check(M, N, 12)
    docs = [{"degrees": audit.degrees,
             "all_equalities_hold": audit.all_equalities_hold},
            {"ranks": ranks, "certified_through": certified},
            {f.name: getattr(report, f.name) for f in fields(report)
             if f.name not in ("M", "N")}]
    assert [hashlib.sha256(io.canonical_json(doc).encode()).hexdigest()
            for doc in docs] == [audit_sha, iota_sha, series_sha]


def _polynomial_product(a, b, n):
    """Coefficients through degree n of the product of two polynomials."""
    return [sum(a[j] * b[i - j] for j in range(len(a)) if 0 <= i - j < len(b))
            for i in range(n + 1)]


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 2), st.integers(0, 2), st.integers(0, 2**31),
       st.integers(1, 2), st.integers(0, 2), st.integers(0, 2**31))
def test_length_count_base_is_hilbert_times_poincare(gm, rm, sm, gn, rn, sn):
    # when m^2 M = 0, H_M(-t) = nu(M) - nu(mM) t, so the base of the length
    # count is the product H_M(-t) P_N(t), here multiplied out by hand
    R = make_ring(101, 3, identity_form(3))
    M = random_module(R, gm, rm, seed=sm)
    M = quotient(M, *radical_square_rows(M))[0]
    N = random_module(R, gn, rn, seed=sn)
    _, base, _ = hm.length_count(M, N, 6)
    h = hilbert_function(M)
    signed = [(-1) ** j * c for j, c in enumerate(h)]
    assert base == _polynomial_product(signed, resolve(N, 6).betti(6), 6)


def test_length_count_requires_m2_zero(R3):
    with pytest.raises(RadicalSquareNonzero):
        length_count_audit(FiniteModule.free(R3, 1), FiniteModule.free(R3, 1), 5)


@pytest.mark.parametrize("check", [iota_vanishing, length_count_audit])
def test_length_count_refuses_modules_over_different_rings(check, k3, Rx2):
    # mM = 0 for k, so iota_M is the zero map; the rings are compared first
    with pytest.raises(RingMismatch):
        check(k3, Rx2, 5)


def test_iota_vanishing_for_koszul_module(R3, Rx3):
    N = random_module(R3, 2, 1, seed=15)
    ranks, certified = iota_vanishing(Rx3, N, 20)
    assert certified == 20
    # cyclic Koszul M: the induced maps vanish for every i > nu(N*)
    bound = nu(matlis_dual(N))
    assert all(r == 0 for r in ranks[bound + 1:])


def test_iota_vanishing_k_trivial(k3, R3):
    N = random_module(R3, 2, 2, seed=16)
    ranks, certified = iota_vanishing(k3, N, 10)
    assert ranks == [0] * 11 and certified == 10


@pytest.mark.parametrize("e", [3, 4])
def test_radical_zero_test_matches_the_rref_of_the_radical(e):
    # tor, ext and iota_vanishing test mM = 0 as "no action is nonzero":
    # mM is the sum of the images of x_1..x_e and w, so this is the test
    # radical_rows(M) makes with an elimination
    R = make_ring(101, e, identity_form(e))
    cyclic = [cyclic_module(R, gens)[0] for gens in
              ([R.x(1)], [R.w()], [R.x(i) for i in range(1, e + 1)])]
    mods = ([FiniteModule(R, np.zeros((e, a, a), dtype=np.int64)) for a in (1, 3)]
            + cyclic + [_in_random_basis(M, 5 + k) for k, M in enumerate(cyclic)]
            + _layered_modules(R, 60 + e))
    agree = [(not M.all_ops[1:].any(), radical_rows(M)[0].shape[0] == 0) for M in mods]
    assert all(a == b for a, b in agree)
    assert {a for a, _ in agree} == {True, False}


def test_tor_induced_of_zero_map_has_zero_rank(R3):
    M = random_module(R3, 2, 2, seed=17)
    N = random_module(R3, 1, 1, seed=18)
    zero = ModuleMap(M, M, np.zeros((M.dim, M.dim), dtype=np.int64))
    assert all(r.rank == 0 for r in tor_induced(zero, N, 5))


def _radical_excess_with_w(N, Z, Bnd, block):
    """Reference count: rank added to Bnd by the images of the rows of Z
    under x_1..x_e and w, from one rank of the whole stack.  Z is written in
    the first s coordinates of each copy of N and Bnd in the last t, for
    block = (s, t); (dim N, dim N) is N's own basis."""
    if Z.size == 0:
        return 0
    p, d = N.ring.p, N.dim
    s, t = block
    ops = np.concatenate([N.actions, N.action_w[None]], axis=0)[:, d - t:, :s]
    img = np.einsum("zjs,ots->ozjt", Z.reshape(Z.shape[0], -1, s), ops)
    img = img.reshape(-1, Bnd.shape[1]) % p
    return rank_array(np.concatenate([Bnd % p, img], axis=0), p) - Bnd.shape[0]


def _with_maps_in(window, res, N, last, monkeypatch):
    """(homology, dense map into its degree, module, block) for each degree
    0..last of the window: the map as the window built it, and the module
    copy and layer block the window ran on, in whose coordinates its
    cycles and left kernel are written."""
    maps, run = {}, hm._window

    def spying(X, diff, ranks, step, block, last):
        def kept(j):
            maps[j] = diff(j)
            return maps[j]
        for i, h in enumerate(run(X, kept, ranks, step, block, last)):
            yield h, linalg.dense(*maps[i + step]), X, block

    with monkeypatch.context() as mp:
        mp.setattr(hm, "_window", spying)
        return list(window(res, N, last))


@pytest.mark.parametrize("p", [3, 101])
@pytest.mark.parametrize("e", [2, 3, 4])
def test_radical_excess_without_w_images(p, e, monkeypatch):
    # cycles form an R-submodule and w is a multiple of x_g x_h, so dropping
    # the w-images leaves the added rank unchanged; the reference runs on
    # the module copy and block each window ran on (N's Loewy copy, for Ext
    # as for Tor), against the rref rows of the boundaries eliminated from
    # the map in that the window read, not through its left kernel.  The
    # random pairs have a nonzero excess only in degree 0, where x_2..x_e
    # alone already reach it, so they cannot tell whether x_1's images are
    # counted; on C = R/(x_2, .., x_e), which x_2..x_e and w kill, only x_1
    # adds the excess of Tor_0(C, C) = C
    forms = [identity_form(e)] + ([hyperbolic_form(e)] if e % 2 == 0 else [])
    for form in forms:
        R = make_ring(p, e, form)
        C = cyclic_module(R, [R.x(g) for g in range(2, e + 1)])[0]
        pairs = [(random_module(R, 1 + seed % 2, 1 + seed // 2, seed=seed),
                  random_module(R, 1 + seed // 2, 1, seed=seed + 50))
                 for seed in range(3)] + [(C, C)]
        for M, N in pairs:
            res = resolve(M, 4)
            w = min(3, res.head - 1)
            L, layers = hm._loewy(N)
            for window, block in ((hm._homology_window, hm._block(layers)),
                                  (hm._cohomology_window, (N.dim, N.dim))):
                for i, (h, A, X, ran) in enumerate(
                        _with_maps_in(window, res, N, w, monkeypatch)):
                    assert X is L and ran == block
                    Z, K = h.cycles, h.left_kernel
                    Zd, Kd = linalg.dense(*Z), linalg.dense(*K)
                    Bnd, _, rank = rref_array(A.T, p)
                    Bnd = Bnd[:rank]
                    assert Kd.shape == (A.shape[0] - rank, A.shape[0])
                    assert not (Bnd @ Kd.T % p).any()
                    excess = _radical_excess_with_w(X, Zd, Bnd, block)
                    assert hm._radical_excess(X, Z, K, block, np.inf) == excess
                    if M is C and window is hm._homology_window and i == 0:
                        assert excess == 1


def _excess_from_ranks(L, A_out, A_in, block, b):
    """Radical excess of a degree with b copies of L from ranks alone, no
    kernel: with B the image of A_in and X_g x_g's t x s corner on each
    copy, dim(B + sum_g X_g ker A_out) = rank Phi - e rank A_out for
    Phi = [[A_in, X_1 .. X_e], [0, diag(A_out, .., A_out)]], and the
    excess is that less rank A_in."""
    p, e, d = L.ring.p, L.ring.e, L.dim
    s, t = block
    X = [np.kron(np.eye(b, dtype=np.int64), op[d - t:, :s]) for op in L.actions]
    Phi = np.block([[A_in, *X],
                    [np.zeros((e * A_out.shape[0], A_in.shape[1]), dtype=np.int64),
                     np.kron(np.eye(e, dtype=np.int64), A_out)]])
    return rank_array(Phi, p) - e * rank_array(A_out, p) - rank_array(A_in, p)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([3, 4]), st.sampled_from([3, 101]), st.integers(1, 2),
       st.integers(1, 2), st.integers(0, 2), st.integers(0, 2**31))
def test_radical_excess_matches_the_rank_identity(e, p, gm, gn, rn, seed):
    # a second route for the nu column of Tor: the excess length - nu that
    # the window reads against its left kernel, against one rank of a
    # stacked matrix that builds no kernel
    R = make_ring(p, e, identity_form(e))
    M = random_module(R, gm, 1, seed=seed)
    N = random_module(R, gn, rn, seed=seed + 1)
    res = resolve(M, 4)
    res.extend(4)
    L, layers = hm._loewy(N)
    s, t = block = hm._block(layers)
    beta = hm._ranks(res)

    def A(i):
        if 1 <= i <= res.head:
            return linalg.dense(*hm._tor_block(res.nonzeros[i - 1], L, layers))
        return np.zeros((beta(i - 1) * t, beta(i) * s), dtype=np.int64)

    last = min(3, res.head)
    want = [_excess_from_ranks(L, A(i), A(i + 1), block, beta(i))
            for i in range(last + 1)]
    assert [h.length - h.nu for h in hm._homology_window(res, N, last)] == want


class _LosingLinalg(_CountingLinalg):
    """linalg whose first nonzero left kernel of a map with entries (one
    inside the complex) comes back one row short."""

    lost = False

    def kernel_rref(self, rows, cols, vals, shape, p, room):
        kr, kc, kv, pivots = super().kernel_rref(rows, cols, vals, shape, p, room)
        if (len(self.matrices) % 2 == 0 and self.matrices[-1].size
                and pivots and not self.lost):
            self.lost = True
            keep = kr < len(pivots) - 1
            return kr[keep], kc[keep], kv[keep], pivots[:-1]
        return kr, kc, kv, pivots


@pytest.mark.parametrize("kind", ["Tor", "Ext"])
def test_left_kernel_rank_is_cross_checked(kind, monkeypatch):
    # a degree reads the rank of its map in from the left kernel, and the
    # degree that reads the same map as its map out from the kernel; a lost
    # left kernel row makes the two disagree
    R = make_ring(101, 3, identity_form(3))
    M = random_module(R, 2, 2, seed=3)
    N = random_module(R, 2, 1, seed=4)
    res = resolve(M, 4)
    window = hm._homology_window if kind == "Tor" else hm._cohomology_window
    assert list(window(res, N, 3))
    monkeypatch.setattr(hm, "linalg", _LosingLinalg())
    with pytest.raises(CertificateError, match=f"{kind} map .* left kernel"):
        list(window(res, N, 3))


def _in_random_basis(N, seed):
    """N with its action matrices conjugated by a random invertible matrix."""
    p, d = N.ring.p, N.dim
    rng = np.random.default_rng(seed)
    while True:
        P = rng.integers(0, p, size=(d, d), dtype=np.int64)
        if rank_array(P, p) == d:
            break
    Pinv = np.stack(solve_many(P, np.eye(d, dtype=np.int64), p), axis=1)
    ops = np.einsum("ab,ibc,cd->iad", P, N.all_ops[1:], Pinv) % p
    return FiniteModule(N.ring, ops[:-1], ops[-1])


def _layered_modules(R, seed):
    """N with one, two and three Loewy layers, each also in a random basis:
    k^2, R^1, a random module with m^2 N = 0 and one with m^2 N != 0."""
    e = R.e
    mods = [FiniteModule(R, np.zeros((e, 2, 2), dtype=np.int64)),
            FiniteModule.free(R, 1),
            random_module(R, 2, 2, seed=seed),
            random_module(R, e + 1, 1, seed=seed + 1)]
    assert [len(hilbert_function(N)) for N in mods] == [1, 3, 2, 3]
    return mods + [_in_random_basis(N, seed + k) for k, N in enumerate(mods)]


def _reference_homology(res, N, w, step=1):
    """(length, nu, m-annihilated, cycles, boundaries) of F_*(M) tensor N
    (step 1) or of Hom(F_*(M), N) (step -1) in degrees 0..w, from the full
    matrices on N's own basis: the map out of degree i is del_i tensor N,
    or Hom(del_{i+1}, N), which precomposes with del_{i+1}."""
    p, d = N.ring.p, N.dim

    def b(j):
        return res.betti_head[j] if 0 <= j <= res.head else 0

    def D(i):
        j = i if step > 0 else i + 1   # the differential the map is built on
        if 1 <= j <= res.head:
            G = res.diff(j)
            if step > 0:
                return free_kmat(G, N.all_ops, p)
            return np.einsum("ajc,cxy->axjy", G, N.all_ops).reshape(
                b(j) * d, b(j - 1) * d) % p
        return np.zeros((b(i - step) * d, b(i) * d), dtype=np.int64)

    out = []
    for i in range(w + 1):
        Z = kernel_array(D(i), p)
        R, _, rank = rref_array(D(i + step).T, p)
        li = Z.shape[0] - rank
        extra = _radical_excess_with_w(N, Z, R[:rank], (d, d))
        out.append((li, li - extra, extra == 0, Z, R[:rank]))
    return out


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("e", [2, 3, 4])
def test_layer_windows_match_full_matrix_reference(p, e):
    R = make_ring(p, e, identity_form(e))
    M = random_module(R, 1, 1, seed=60 + e)
    # the lift of iota has its entries in m, that of the identity does not
    maps = [_iota(M), ModuleMap(M, M, np.eye(M.dim, dtype=np.int64))]
    for N in _layered_modules(R, 70 + e):
        res = resolve(M, 4)
        w = min(3, res.head - 1)
        got = [(h.length, h.nu, h.m_annihilated)
               for h in hm._homology_window(res, N, w)]
        assert got == [r[:3] for r in _reference_homology(res, N, w)]
        for phi in maps:
            ranks = [r.rank for r in tor_induced(phi, N, 3)]
            wi = len(ranks) - 1
            ra, rb = resolve(phi.source, wi + 1), resolve(M, wi + 1)
            ha, hb = _reference_homology(ra, N, wi), _reference_homology(rb, N, wi)
            lift = lift_chain_map(phi, wi)
            want = []
            for i in range(wi + 1):
                img = ha[i][3] @ free_kmat(lift[i], N.all_ops, p).T % p
                B = hb[i][4]
                want.append(rank_array(np.concatenate([B, img]), p) - B.shape[0])
            assert ranks == want


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([3, 4]), st.sampled_from([3, 101]), st.integers(1, 2),
       st.integers(1, 2), st.integers(0, 2), st.integers(0, 2**31))
def test_windows_in_any_basis_match_the_full_matrix_reference(e, p, gm, gn, rn, seed):
    # the Tor and Ext windows run on N's Loewy copy, re-based layer by layer;
    # N drawn in a random basis must give the lengths, nu and
    # m-annihilation of the full matrices on that basis
    R = make_ring(p, e, identity_form(e))
    M = random_module(R, gm, 1, seed=seed)
    N = _in_random_basis(random_module(R, gn, rn, seed=seed + 1), seed + 2)
    res = resolve(M, 4)
    res.extend(4)
    w = min(3, res.head - 1)
    for window, step in ((hm._homology_window, 1), (hm._cohomology_window, -1)):
        want = [r[:3] for r in _reference_homology(res, N, w, step)]
        assert [(h.length, h.nu, h.m_annihilated) for h in window(res, N, w)] == want


def _trial_4():
    """Trial 4 of `verify main-theorem` at the README defaults, with the
    resolutions of M and N warmed through the cutoff."""
    cfg = TrialConfig(trials=25, cutoff=25)
    ring = _ring_for(cfg)
    rng = np.random.default_rng(cfg.seed + 4)
    M, N = _draw_module(ring, cfg, rng), _draw_module(ring, cfg, rng)
    resolve(M, 25)
    resolve(N, 25)
    return M, N


def _kernel_entries(build, M, N, monkeypatch):
    """Entries of every matrix homology hands to `linalg.kernel_rref` while
    build(M, N, 25) serves its table."""
    counting = _CountingLinalg()
    with monkeypatch.context() as mp:
        mp.setattr(hm, "linalg", counting)
        build(M, N, 25)
    return sum(np.count_nonzero(A) for A in counting.matrices)


@pytest.mark.parametrize("build", [tor, ext], ids=["tor", "ext"])
def test_homology_work_does_not_depend_on_the_basis_of_N(build, monkeypatch):
    # the windows eliminate N's Loewy copy, each layer re-based, so N written
    # in a random basis costs about what the drawn basis costs (in N's own
    # basis the random one cost 2.3x for Tor and 3.4x for Ext), and the
    # drawn basis costs no more than N's own basis did (18015 and 21140)
    M, N = _trial_4()
    drawn = _kernel_entries(build, M, N, monkeypatch)
    assert drawn <= {tor: 18015, ext: 21140}[build]
    for seed in (1, 2):
        M, N = _trial_4()
        rebased = _kernel_entries(build, M, _in_random_basis(N, seed), monkeypatch)
        assert rebased <= 1.25 * drawn, (seed, rebased, drawn)


@pytest.mark.parametrize("p", [2, 101])
@pytest.mark.parametrize("e", [2, 3, 4])
def test_loewy_copy_is_adapted(p, e):
    R = make_ring(p, e, identity_form(e))
    for N in _layered_modules(R, 80 + e):
        L, h = hm._loewy(N)
        assert hm._loewy(N)[0] is L
        assert list(h[:len(hilbert_function(N))]) == hilbert_function(N)
        assert hilbert_function(L) == hilbert_function(N)
        h0, h1, _ = h
        for op in L.all_ops[1:]:
            # m maps each layer into the layers after it
            assert not op[:h0].any()
            assert not op[h0:h0 + h1, h0:].any()
            assert not op[:, h0 + h1:].any()


def _not_adapted(L):
    """L with its first and last basis vectors swapped: when mN != 0 some
    action has a nonzero entry in the last row, which lands in the top
    layer."""
    perm = list(range(L.dim))
    perm[0], perm[-1] = perm[-1], perm[0]
    ops = L.all_ops[1:][:, perm][:, :, perm]
    return FiniteModule(L.ring, ops[:-1], ops[-1])


def _nonzeros(G):
    """The nonzeros of the entry array G, as a resolution stores them."""
    gen, target, slot = np.nonzero(G)
    return Nonzeros(gen, target, slot, G[gen, target, slot], G.shape)


def _check_triplets(triplets, p):
    """The triplets' matrix, after checking that they hold int64 values in
    [1, p) at distinct positions inside their shape."""
    rows, cols, vals, shape = triplets
    for x in (rows, cols, vals):
        assert x.dtype == np.int64 and x.shape == vals.shape
    assert vals.size == 0 or (vals.min() >= 1 and vals.max() < p)
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(vals)
    assert np.all(rows < shape[0]) and np.all(cols < shape[1])
    return linalg.dense(rows, cols, vals, shape)


@pytest.mark.parametrize("p", [2, 3, 101, 65521])
@pytest.mark.parametrize("e", [2, 3, 4])
def test_tor_block_matches_full_matrix(p, e):
    R = make_ring(p, e, identity_form(e))
    rng = np.random.default_rng(90 + e)
    for N in _layered_modules(R, 90 + e):
        L, layers = hm._loewy(N)
        s, t = hm._block(layers)
        d = L.dim
        for a, j in ((3, 2), (1, 4), (0, 2), (2, 0), (0, 0)):
            G = rng.integers(0, p, size=(a, j, R.dim), dtype=np.int64)
            G[:, :, 0] = 0
            full = free_kmat(G, L.all_ops, p).reshape(j, d, a, d)
            block = hm._tor_block(_nonzeros(G), L, layers)
            assert block[3] == (j * t, a * s)
            assert np.array_equal(_check_triplets(block, p),
                                  full[:, d - t:, :, :s].reshape(j * t, a * s))
            full[:, d - t:, :, :s] = 0
            assert not full.any()
        G = rng.integers(0, p, size=(2, 3, R.dim), dtype=np.int64)
        G[:, :, 0] = 0
        G[1, 2, 0] = 1
        with pytest.raises(CertificateError):
            hm._tor_block(_nonzeros(G), L, layers)
        if layers[1]:
            G[1, 2, 0] = 0
            with pytest.raises(CertificateError):
                hm._tor_block(_nonzeros(G), _not_adapted(L), layers)


@pytest.mark.parametrize("p", [2, 3, 101, 65521])
@pytest.mark.parametrize("e", [2, 3, 4])
def test_ext_diff_matches_dense_einsum(p, e):
    # the Hom-complex matrix on N's own basis, unit entries of del included
    R = make_ring(p, e, identity_form(e))
    rng = np.random.default_rng(100 + e)
    for N in _layered_modules(R, 100 + e):
        d = N.dim
        for a, j in ((3, 2), (1, 4), (0, 2), (2, 0), (0, 0)):
            G = rng.integers(0, p, size=(a, j, R.dim), dtype=np.int64)
            G[rng.random(G.shape) < 0.5] = 0
            want = np.einsum("ajc,cxy->axjy", G, N.all_ops) % p
            got = hm._ext_diff(_nonzeros(G), N)
            assert got[3] == (a * d, j * d)
            assert np.array_equal(_check_triplets(got, p),
                                  want.reshape(a * d, j * d))


CORRUPTIONS = ["tor-window", "ext-window", "tail", "duality", "tor-block", "loewy-basis"]


def _serve_corrupted(kind):
    """Serve a table from deliberately corrupted data.  The Tor window gets
    a copy of N in a random basis with the Loewy layer sizes of the true
    copy, which `_tor_block`'s adaptedness check refuses, and "tor-block"
    a unit entry in a differential of the resolution, which `_tor_block`
    refuses too, and "loewy-basis" a Loewy copy re-based by zero layer
    transforms, which `_loewy`'s check Q Q^-1 = I refuses.  The Ext window
    gets identity matrices for its differentials, so D_i D_{i+1} != 0 and
    a homology length goes negative.  The tail gets a negative length count in degree n, past the
    materialized window, and the duality check a Tor_0(M, N*) one too
    long."""
    R = make_ring(101, 3, identity_form(3))
    M = random_module(R, 1, 1, seed=41)
    N = random_module(R, 1, 1, seed=42)
    if kind == "tor-window":
        name, orig = "_loewy", hm._loewy

        def fake(N):
            L, layers = orig(N)
            return _in_random_basis(L, 43), layers
    elif kind == "ext-window":
        name, orig = "_ext_diff", hm._ext_diff

        def fake(G, N):
            shape = orig(G, N)[3]
            diagonal = np.arange(min(shape))
            return diagonal, diagonal, np.ones_like(diagonal), shape
    elif kind == "tor-block":
        name, orig = "_tor_block", hm._tor_block

        def fake(G, L, layers):
            G = G.dense()
            G[0, 0, 0] = 1
            return orig(_nonzeros(G), L, layers)
    elif kind == "loewy-basis":
        name, orig = "_rref_bases", hm._rref_bases

        def fake(Xs, p):
            # not invertible: any candidate built on them has an empty
            # corner, fewer nonzeros than the basis as built
            return [(0 * T, 0 * C) for T, C in orig(Xs, p)]
    elif kind == "tail":
        name, orig = "_base", hm._base

        def fake(*args):
            return orig(*args)[:-1] + [-1]
    else:
        name, orig = "tor", hm.tor

        def fake(M, N, n):
            table = orig(M, N, n)
            table.entries[0] = replace(table.entries[0],
                                       length=table.entries[0].length + 1)
            return table
    setattr(hm, name, fake)
    try:
        if kind.startswith("tor") or kind in ("tail", "loewy-basis"):
            tor(M, N, 12)
        else:
            ext(M, N, 12)
    finally:
        setattr(hm, name, orig)


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_corrupted_homology_raises_certificate_error(kind):
    with pytest.raises(CertificateError):
        _serve_corrupted(kind)


def test_corrupted_homology_raises_under_python_O():
    # the homology checks must not be asserts that -O strips
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), os.environ.get("PYTHONPATH", "")]
    code = ("import test_homology as t\n"
            "for kind in t.CORRUPTIONS:\n"
            "    try:\n"
            "        t._serve_corrupted(kind)\n"
            "    except t.CertificateError:\n"
            "        continue\n"
            "    raise SystemExit('no CertificateError: ' + kind)\n")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], cwd=here, capture_output=True,
        text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
    assert proc.returncode == 0, proc.stderr
