import numpy as np
import pytest

from gorlab import FiniteModule, direct_sum, is_koszul, koszul_series_check, nu
from gorlab.errors import RadicalSquareNonzero
from gorlab.koszul import KOSZUL, NOT_KOSZUL, split_off_k_witness
from gorlab.modules import matlis_dual, radical_rows
from gorlab.resolution import k_syzygy_dims, residue_field_module, syzygy


def test_residue_field_is_koszul(k3):
    v = is_koszul(k3)
    assert v.is_koszul() and v.witness is None


def test_free_module_is_koszul(R3):
    assert is_koszul(FiniteModule.free(R3, 1)).is_koszul()


def test_cyclic_rx_is_koszul(Rx3):
    assert is_koszul(Rx3).verdict == KOSZUL


def test_r_mod_socle_is_not_koszul(Rmodsoc3, R3):
    # the first syzygy of R/m^2 is soc(R) = k, a split copy of k
    v = is_koszul(Rmodsoc3)
    assert v.verdict == NOT_KOSZUL
    j, element = v.witness
    assert j == 1
    # the witness is a socle element of the syzygy inside F_0 = R:
    # it must be a multiple of w
    assert element.shape == (5,)
    assert not element[:4].any() and element[4] != 0


def test_split_off_k_witness(R3, k3, Rx3):
    assert split_off_k_witness(Rx3) is None
    S, _, _ = direct_sum(Rx3, k3)
    w = split_off_k_witness(S)
    assert w is not None
    # the witness is a socle element outside mS
    U, piv = radical_rows(S)
    from gorlab.linalg import reduce_mod_rowspace
    assert reduce_mod_rowspace(U, piv, w.reshape(1, -1), 101).any()


def test_i_max_respects_dimension_bound(R3, k3):
    v = is_koszul(k3)
    dims = k_syzygy_dims(R3, k3.dim)
    assert v.i_max == len(dims) - 2


def k_negative(ring, i):
    """k_{-i} = (the i-th syzygy of k*)*, the i-th negative syzygy of the
    residue field: the oracle of the dimension bound of the Koszul test."""
    return matlis_dual(syzygy(matlis_dual(residue_field_module(ring)), i))


def test_k_negative_dims(R3):
    # dim k_{-i} = dim k_i by Matlis duality of the construction
    dims = k_syzygy_dims(R3, 40)
    for i in (1, 2):
        assert k_negative(R3, i).dim == dims[i]


def test_koszul_series_check_agrees(k3, Rx3, Rmodsoc3):
    for M, expect in ((k3, True), (Rx3, True), (Rmodsoc3, False)):
        report = koszul_series_check(M, 10)
        assert report.verdict.is_koszul() == expect
        assert report.formula_holds == expect
        assert not report.flagged


def test_koszul_series_check_requires_m2_zero(R3):
    with pytest.raises(RadicalSquareNonzero):
        koszul_series_check(FiniteModule.free(R3, 1), 8)


def test_zero_module_is_koszul(R3):
    assert is_koszul(FiniteModule.zero(R3)).is_koszul()
