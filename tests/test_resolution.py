import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gorlab import (
    FiniteModule,
    expand_rational,
    hyperbolic_form,
    identity_form,
    make_ring,
    random_module,
    random_nondegenerate_form,
    resolve,
)
import gorlab.resolution as rs
from gorlab.errors import CertificateError, NotMaterialized
from gorlab.linalg import kernel_array, rank_array, rref_array
from gorlab.resolution import (
    DEFAULT_BUDGET,
    TAIL_OVERLAP,
    MinimalFreeResolution,
    betti_numbers,
    free_kmat,
    k_resolution,
    k_syzygy_dims,
    lift_chain_map,
    negative_syzygy,
    syzygy,
)
from gorlab.modules import ModuleMap

# Betti numbers of k over the e = 3 ring: expansion of 1/(1 - 3t + t^2)
K3_BETTI = [1, 3, 8, 21, 55, 144, 377, 987, 2584, 6765, 17711]


def test_residue_field_betti_e3(k3):
    assert betti_numbers(k3, 10) == K3_BETTI


def test_residue_field_betti_e2(R2):
    # 1/(1 - 2t + t^2) = 1/(1-t)^2: beta_i = i + 1
    res = k_resolution(R2)
    assert res.betti(12) == list(range(1, 14))


def test_free_module_resolves_in_zero_steps(R3):
    res = resolve(FiniteModule.free(R3, 2), 8)
    assert res.finite and res.betti(8) == [2] + [0] * 8


def test_cyclic_rx_betti(Rx3):
    # R/(x_1): b_{i+1} = 3 b_i - b_{i-1} starting 1, 1
    assert betti_numbers(Rx3, 8) == [1, 1, 2, 5, 13, 34, 89, 233, 610]


def test_differentials_compose_to_zero(R3):
    M = random_module(R3, 2, 2, seed=21)
    res = resolve(M, 5)
    res.extend(5)
    for i in range(1, min(5, res.head)):
        prod = res.kmat(i) @ res.kmat(i + 1) % 101
        assert not prod.any()
    # minimality: no differential entry has a unit (degree-0) component
    for i in range(1, min(5, res.head) + 1):
        assert not res.diff(i)[:, :, 0].any()


def test_certified_tail_matches_recurrence(R3):
    M = random_module(R3, 2, 2, seed=33)
    b = resolve(M, 40).betti(40)
    e = R3.e
    J = resolve(M, 40).junction()[0]
    for i in range(J + 1, 40):
        assert b[i + 1] == e * b[i] - b[i - 1]


def test_certified_betti_agree_with_honest_extension(R3):
    # dual-route check: the certified tail of a cached resolution against an
    # honest materialization of a fresh one
    M = random_module(R3, 2, 1, seed=5)
    certified = resolve(M, 10)
    assert certified.head == 7
    honest = MinimalFreeResolution(M)
    honest.extend(10)
    assert honest.head > 7
    # betti_head holds only the honestly computed degrees, here 0..10
    assert honest.betti_head == certified.betti(10)


def test_budget_stop_ends_the_head_silently(R3):
    # the CLI `resolve m1.json --steps 10` writes 8 differentials: the
    # kernel problem of the ninth would exceed DEFAULT_BUDGET columns
    res = MinimalFreeResolution(random_module(R3, 2, 2, seed=5))
    res.extend(10, budget_stop=True)
    assert res.head == 8
    assert res.betti_head[-1] * R3.dim > DEFAULT_BUDGET


def test_step_refused_before_allocation(R3, monkeypatch):
    # the memory guard refuses a step that would not fit, before the step
    # allocates anything
    res = MinimalFreeResolution(random_module(R3, 2, 2, seed=5))
    res.extend(4)
    need = res._step_bytes()
    monkeypatch.setattr(rs, "_available_bytes", lambda: need - 1)

    def step(self):
        raise AssertionError("the step ran")

    monkeypatch.setattr(MinimalFreeResolution, "_step", step)
    with pytest.raises(NotMaterialized, match="resolution step 5"):
        res.extend(6)
    assert res.head == 4


def test_available_bytes_reads_the_memory_cgroup(tmp_path, monkeypatch):
    limit, usage, stat = (tmp_path / f for f in ("limit", "usage", "stat"))
    usage.write_text("600000\n")
    stat.write_text("cache 300000\ninactive_file 100000\n")
    v2 = (str(limit), str(usage), str(stat), "inactive_file")
    monkeypatch.setattr(rs, "_CGROUP_FILES", ((str(tmp_path / "none"),) * 4, v2))
    limit.write_text("max\n")
    assert rs._cgroup_room(2**60) == float("inf")
    # the page cache the kernel can reclaim counts as room
    limit.write_text("1000000\n")
    assert rs._cgroup_room(2**60) == 500000
    assert rs._available_bytes() <= 500000
    # a limit at or above the RAM binds nothing the RAM does not
    assert rs._cgroup_room(1000000) == float("inf")
    # where sysconf and resource are missing, only the cgroup is read
    monkeypatch.delattr(os, "sysconf")
    assert rs._available_bytes() == 500000


def test_betti_match_geometric_expansion(k3, R3):
    assert resolve(k3, 20).betti(20) == expand_rational([1], R3.e, 20)


def test_syzygy_module_dims(k3, R3):
    dims = k_syzygy_dims(R3, 100)[:4]
    for i in (1, 2, 3):
        assert syzygy(k3, i).dim == dims[i]


def test_negative_syzygy_inverts_syzygy(k3, R3):
    N = negative_syzygy(k3, 1)
    back = syzygy(N, 1)
    assert back.dim == k3.dim
    # and its minimal number of generators matches k
    from gorlab import nu
    assert nu(back) == 1


def test_lift_chain_map_identity(R3):
    M = random_module(R3, 2, 2, seed=8)
    ident = ModuleMap(M, M, np.eye(M.dim, dtype=np.int64))
    lift = lift_chain_map(ident, 4)
    res = resolve(M, 4)
    for i in range(5):
        F = lift.kmat(i)
        b = res.betti(4)[i]
        assert F.shape == (b * R3.dim, b * R3.dim)
        # lifting the identity gives an isomorphism in every degree
        assert rank_array(F, 101) == b * R3.dim


def test_free_kmat_is_block_regular_representation(R3):
    G = np.zeros((1, 1, 5), dtype=np.int64)
    G[0, 0, 1] = 1  # multiplication by x_1 on R
    K = free_kmat(R3, G)
    v = np.zeros(5, dtype=np.int64)
    v[0] = 1
    assert np.array_equal(K @ v % 101, R3.x(1).coeffs % 101)


def _generic_step(ring, A):
    """Oracle for one resolution step: the kernel of the k-matrix A by
    generic elimination, its pivots, nu and nu_m.  nu_m = dim m*K is the rank
    of the images of K under x_1..x_e, w acting blockwise on the free
    module."""
    p, D = ring.p, ring.dim
    R, piv, nk = rref_array(kernel_array(A, p), p)
    K = R[:nk]
    blocks = np.eye(A.shape[1] // D, dtype=np.int64)
    mK = np.concatenate([K @ np.kron(blocks, ring.basis_reg[c]).T % p
                         for c in range(1, D)])
    nu_m = rank_array(mK, p)
    return K, list(piv), nk - nu_m, nu_m


@st.composite
def small_modules(draw):
    e = draw(st.sampled_from((2, 3, 4)))
    p = draw(st.sampled_from((3, 101)))
    seed = draw(st.integers(0, 10**6))
    form = draw(st.sampled_from((
        identity_form(e), hyperbolic_form(e),
        random_nondegenerate_form(e, p, np.random.default_rng(seed)))))
    ring = make_ring(p, e, form)
    return random_module(ring, draw(st.integers(1, 3)),
                         draw(st.integers(1, 3)), seed)


@settings(max_examples=30, deadline=None)
@given(small_modules())
def test_graded_step_matches_generic_kernel(M):
    # every step past the cover takes ker(L) + wF; the k-matrix route agrees
    res = MinimalFreeResolution(M)
    res.extend(4)
    for s in range(res.head):
        K, piv, nu, nu_m = _generic_step(M.ring, res.kmat(s))
        data = res.syz[s]
        assert np.array_equal(data.rows, K)
        assert list(data.pivots) == piv
        assert (data.nu, data.nu_m) == (nu, nu_m)


def _certify_corrupted_tail():
    """Certify a fresh resolution whose nu(m M_{J+1}) past the junction J
    has been corrupted."""
    R = make_ring(101, 3, identity_form(3))
    res = MinimalFreeResolution(random_module(R, 2, 2, seed=33))
    J = res.junction()[0]
    res.extend(J + TAIL_OVERLAP)
    res.syz[J].nu_m += 1
    res.tail_certificate()


def test_corrupted_tail_raises_certificate_error():
    with pytest.raises(CertificateError):
        _certify_corrupted_tail()


def test_corrupted_tail_raises_under_python_O():
    # the certificate checks must not be asserts that -O strips
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), os.environ.get("PYTHONPATH", "")]
    code = ("import test_resolution as t\n"
            "try:\n"
            "    t._certify_corrupted_tail()\n"
            "except t.CertificateError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('no CertificateError')\n")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], cwd=here, capture_output=True,
        text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
    assert proc.returncode == 0, proc.stderr
