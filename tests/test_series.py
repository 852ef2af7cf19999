import pytest

from gorlab import (
    FiniteModule,
    certify_rational,
    expand_rational,
    hilbert_series,
    koszul_formula_holds,
    poincare_series,
    random_module,
    series_identity_check,
    tor_series,
)
from gorlab.errors import ConfigError, InsufficientDegree, RadicalSquareNonzero
from gorlab.series import (
    TruncatedIntegerSeries,
    alternate,
    ext_series,
)


def certificate_is_sound(S, cert) -> bool:
    """Re-expanding q(t)/(1 - e t + t^2) must reproduce S exactly."""
    return tuple(expand_rational(cert.numerator, cert.e, cert.truncation)) \
        == S.coefficients


def test_expand_rational_geometric():
    assert expand_rational([1], 3, 6) == [1, 3, 8, 21, 55, 144, 377]
    assert expand_rational([1], 2, 5) == [1, 2, 3, 4, 5, 6]


def test_certify_geometric_series():
    S = TruncatedIntegerSeries("poincare", (1, 3, 8, 21, 55, 144, 377))
    cert = certify_rational(S, 3)
    assert cert.s == 0 and cert.numerator == (1,)
    assert certificate_is_sound(S, cert)


def test_certify_shifted_tail():
    S = TruncatedIntegerSeries("poincare", (1, 1, 2, 5, 13, 34, 89))
    cert = certify_rational(S, 3)
    assert cert.s == 1 and cert.numerator == (1, -2)
    assert certificate_is_sound(S, cert)


def test_certify_rejects_non_recurrent_series():
    S = TruncatedIntegerSeries("hilbert", (1, 2, 3, 4, 5, 6, 7))
    with pytest.raises(InsufficientDegree) as exc:
        certify_rational(S, 3)
    assert exc.value.violating_index == 5


def test_certify_enforces_margin():
    S = TruncatedIntegerSeries("poincare", (1, 1, 2, 5, 13, 34))
    with pytest.raises(InsufficientDegree):
        certify_rational(S, 3)  # s = 1 leaves margin 4 < 5
    cert = certify_rational(S, 3, min_margin=4)
    assert cert.s == 1


@pytest.mark.parametrize("margin", [0, -1])
def test_certify_refuses_a_margin_below_one(margin):
    # refused before any coefficient is read, even of a series that is too
    # short to certify at all
    for coeffs in ((1, 3, 8), (1,)):
        with pytest.raises(ConfigError, match="margin"):
            certify_rational(TruncatedIntegerSeries("poincare", coeffs), 3,
                             min_margin=margin)


def test_hilbert_series(R3, Rx3, k3):
    assert hilbert_series(FiniteModule.free(R3, 1)).coefficients == (1, 3, 1)
    assert hilbert_series(Rx3).coefficients == (1, 2)
    assert hilbert_series(k3).coefficients == (1,)


def test_poincare_series(k3, Rx3):
    assert poincare_series(k3, 6).coefficients == (1, 3, 8, 21, 55, 144, 377)
    assert poincare_series(Rx3, 5).coefficients == (1, 1, 2, 5, 13, 34)


def test_tor_series_against_k_is_poincare(R3, k3):
    M = random_module(R3, 2, 2, seed=51)
    P = poincare_series(M, 8).coefficients
    assert tor_series(M, k3, 8, mode="length").coefficients == P
    assert tor_series(M, k3, 8, mode="nu").coefficients == P


def test_alternate():
    assert alternate([1, 2, 3]) == [1, -2, 3]


def test_ext_series_matches_table(R3):
    M = random_module(R3, 1, 1, seed=52)
    N = random_module(R3, 2, 2, seed=53)
    from gorlab import ext
    assert list(ext_series(M, N, 6, mode="length").coefficients) == \
        ext(M, N, 6).lengths()


def test_koszul_formula_for_koszul_modules(k3, Rx3):
    assert koszul_formula_holds(k3, 10)
    assert koszul_formula_holds(Rx3, 10)


def test_koszul_formula_fails_for_r_mod_socle(Rmodsoc3):
    # H(t) = 1 + 3t but the first syzygy is a split copy of k
    assert not koszul_formula_holds(Rmodsoc3, 10)


def test_series_identity_check_e3(R3, Rx3):
    N = random_module(R3, 2, 2, seed=54)
    report = series_identity_check(Rx3, N, 10)
    assert report.consistent


def test_series_identity_check_e2_counterexample(Rx2):
    # the length series never equals the product H_M(-t) P_N(t): already at
    # degree 0 the tensor product has length 2 against product coefficient 1
    report = series_identity_check(Rx2, Rx2, 10)
    assert report.length_equality_through == -1
    assert report.consistent  # the equality-iff-vanishing criterion still holds


def test_series_identity_requires_m2_zero(R3):
    with pytest.raises(RadicalSquareNonzero):
        series_identity_check(FiniteModule.free(R3, 1),
                              FiniteModule.free(R3, 1), 8)


def test_certify_main_theorem_series(R3):
    M = random_module(R3, 2, 1, seed=55)
    N = random_module(R3, 1, 2, seed=56)
    for mode in ("nu", "length"):
        for fn in (tor_series, ext_series):
            cert = certify_rational(fn(M, N, 20, mode), 3)
            assert certificate_is_sound(fn(M, N, 20, mode), cert)
