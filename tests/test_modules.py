import numpy as np
import pytest

from gorlab import (
    FiniteModule,
    cyclic_module,
    direct_sum,
    from_presentation,
    hilbert_function,
    hom_space,
    identity_form,
    make_ring,
    matlis_dual,
    nu,
    radical_submodule,
    random_module,
    socle,
    split_extension,
)
from gorlab.errors import ConfigError, UnitIdeal
from gorlab.modules import (
    Presentation,
    quotient,
    radical_rows,
    radical_square_rows,
    socle_rows,
    submodule,
)


def test_free_module_invariants(R3):
    F = FiniteModule.free(R3, 1)
    assert F.dim == 5 and nu(F) == 1
    assert hilbert_function(F) == [1, 3, 1]
    assert radical_rows(F)[0].shape[0] == 4
    assert radical_square_rows(F)[0].shape[0] == 1
    S, _ = socle(F)
    assert S.dim == 1  # soc(R) = m^2 for a free module


def test_residue_field(k3):
    assert k3.dim == 1 and nu(k3) == 1
    assert hilbert_function(k3) == [1]
    assert radical_rows(k3)[0].shape[0] == 0
    assert socle(k3)[0].dim == 1


def test_cyclic_quotients(R3, Rx3, Rmodsoc3):
    # (x_1) contains x_1^2 = w, so the quotient has basis 1, x_2, x_3
    assert Rx3.dim == 3 and hilbert_function(Rx3) == [1, 2]
    assert Rmodsoc3.dim == 4 and hilbert_function(Rmodsoc3) == [1, 3]
    with pytest.raises(UnitIdeal):
        cyclic_module(R3, [R3.element([1, 0, 0, 0, 0])])
    M, _ = cyclic_module(R3, [R3.x(1), R3.x(2), R3.x(3)])
    assert M.dim == 1  # R/m = k


def test_submodule_quotient_dims_add(R3):
    M = random_module(R3, 2, 2, seed=11)
    U, piv = radical_rows(M)
    sub, incl = submodule(M, U, piv)
    quo, proj = quotient(M, U, piv)
    assert sub.dim + quo.dim == M.dim
    assert quo.dim == nu(M)
    # the inclusion is a module map: commutes with every x_i
    for a in range(R3.e):
        lhs = M.actions[a] @ incl.matrix % 101
        rhs = incl.matrix @ sub.actions[a] % 101
        assert np.array_equal(lhs, rhs)


def test_matlis_duality_dims_and_involution(R3, k3, Rx3):
    for M in (k3, Rx3, random_module(R3, 2, 3, seed=4)):
        D = matlis_dual(M)
        assert D.dim == M.dim
        assert matlis_dual(D).dim == M.dim
        # duality swaps generators and socle
        assert nu(D) == socle(M)[0].dim
        assert socle(D)[0].dim == nu(M)
    assert matlis_dual(k3).dim == 1


def test_hom_into_ring_is_matlis_dual(R3):
    # R is self-injective: Hom(M, R) has k-dimension dim M* = dim M
    for seed in range(5):
        M = random_module(R3, 2, 2, seed=seed)
        assert len(hom_space(M, FiniteModule.free(R3, 1))) == M.dim


def test_direct_sum(R3, k3, Rx3):
    S, iM, iN = direct_sum(k3, Rx3)
    assert S.dim == k3.dim + Rx3.dim
    assert nu(S) == nu(k3) + nu(Rx3)
    assert iM.matrix.shape == (S.dim, k3.dim)


def test_presentation_round_trip(R3):
    entries = np.zeros((2, 1, 5), dtype=np.int64)
    entries[0, 0, 1] = 1  # relation x_1 * g_0 = 0
    M, proj = from_presentation(Presentation(R3, entries))
    assert nu(M) == 2
    assert proj.matrix.shape == (M.dim, 2 * 5)


def test_split_extension(R3):
    M = FiniteModule.free(R3, 2)
    x = np.zeros(M.dim, dtype=np.int64)
    x[0] = 1  # the first free generator
    data = split_extension(M, x)
    assert data.A.dim + data.B.dim == M.dim
    assert data.A.dim == 5  # Rx = R for a free generator
    # ann(x) = 0 for a free generator
    assert data.annihilator.shape[0] == 0


def test_split_extension_annihilator_of_socle_quotient(R3, Rmodsoc3):
    x = np.zeros(Rmodsoc3.dim, dtype=np.int64)
    x[0] = 1
    data = split_extension(Rmodsoc3, x)
    # x generates R/m^2, so ann(x) = m^2 = soc, which is one-dimensional
    assert data.annihilator.shape[0] == 1


def test_random_module_is_seeded(R3):
    a = random_module(R3, 3, 2, seed=7)
    b = random_module(R3, 3, 2, seed=7)
    c = random_module(R3, 3, 2, seed=8)
    assert a.dim == b.dim and np.array_equal(a.actions, b.actions)
    assert a.dim != c.dim or not np.array_equal(a.actions, c.actions)


@pytest.mark.parametrize("g, r", [(0, 2), (-1, 2), (2, -1)])
def test_random_module_refuses_bad_sizes(R3, g, r):
    with pytest.raises(ConfigError):
        random_module(R3, g, r, seed=0)


def test_hilbert_function_sums_to_dim(R3):
    for seed in range(8):
        M = random_module(R3, 3, 3, seed=seed)
        assert sum(hilbert_function(M)) == M.dim


def test_minimal_generators_and_radical(R3):
    M = random_module(R3, 2, 1, seed=2)
    # nu(M) against the dimension of the top M/mM
    g = quotient(M, *radical_rows(M))[0].dim
    assert g == nu(M)
    rad, _ = radical_submodule(M)
    assert rad.dim == M.dim - g


@pytest.mark.parametrize("p", [3, 65521])
def test_actions_off_the_ring_relations_are_refused(p):
    R = make_ring(p, 3, identity_form(3))
    E = np.eye(4, dtype=np.int64)

    def unit(i, j):
        return np.outer(E[i], E[j])

    zero = np.zeros((4, 4), dtype=np.int64)
    # x_2 x_1 != 0 = x_1 x_2: the actions do not commute
    with pytest.raises(ValueError, match=r"x_i x_j = B\[i\]\[j\] w"):
        FiniteModule(R, [unit(1, 0), unit(2, 1), zero], zero)
    # x_1 a shift with x_1^3 != 0 and w derived as x_1^2: x_1 w != 0 (the
    # relations fail too, at x_2^2 = 0 != w, but m^3 = 0 is checked first)
    with pytest.raises(ValueError, match=r"m\^3 = 0"):
        FiniteModule(R, [unit(1, 0) + unit(2, 1) + unit(3, 2), zero, zero])
    # while R/(x_1), built through the same check, passes at p
    assert cyclic_module(R, [R.x(1)])[0].dim == 3
