import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy

from gorlab import make_ring, validate_general_algebra
from gorlab.errors import (
    CubeNotZero,
    Degenerate,
    EmbeddingDimTooSmall,
    NotCommutative,
    NotPrime,
    NotSymmetric,
)
from gorlab.ring import (
    hyperbolic_form,
    identity_form,
    random_nondegenerate_form,
)


def structure_constants(ring):
    """The full multiplication table of a ring, for round-trip validation."""
    d = ring.dim
    c = np.zeros((d, d, d), dtype=np.int64)
    for i in range(d):
        c[i] = ring.basis_reg[i].T
    return c % ring.p


def test_identity_form_multiplication(R3):
    # x_i x_j = delta_ij w, x_i w = 0, 1 is the identity
    w = R3.w()
    for i in range(1, 4):
        for j in range(1, 4):
            prod = R3.x(i) * R3.x(j)
            expect = w.coeffs if i == j else np.zeros(5, dtype=np.int64)
            assert np.array_equal(prod.coeffs, expect)
        assert not (R3.x(i) * w).coeffs.any()
    one = R3.element([1, 0, 0, 0, 0])
    assert np.array_equal((one * R3.x(2)).coeffs, R3.x(2).coeffs)
    assert not (w * w).coeffs.any()


def test_hyperbolic_form_squares_vanish(R2):
    # in k[x,y]/(x^2, y^2): x^2 = y^2 = 0, xy = w
    assert not (R2.x(1) * R2.x(1)).coeffs.any()
    assert not (R2.x(2) * R2.x(2)).coeffs.any()
    assert np.array_equal((R2.x(1) * R2.x(2)).coeffs, R2.w().coeffs)


def test_ring_axioms_on_random_elements(R3):
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c = (R3.element(rng.integers(0, 101, size=5)) for _ in range(3))
        assert np.array_equal((a * b).coeffs, (b * a).coeffs)
        assert np.array_equal(((a * b) * c).coeffs, (a * (b * c)).coeffs)


def test_hilbert_series_of_ring_is_1_e_1(R3, R2):
    from gorlab import FiniteModule, hilbert_function
    assert hilbert_function(FiniteModule.free(R3, 1)) == [1, 3, 1]
    assert hilbert_function(FiniteModule.free(R2, 1)) == [1, 2, 1]


def test_invalid_constructions_raise():
    with pytest.raises(Degenerate):
        make_ring(101, 2, [[1, 0], [0, 0]])
    with pytest.raises(NotPrime):
        make_ring(100, 2, identity_form(2))
    with pytest.raises(EmbeddingDimTooSmall):
        make_ring(101, 1, [[1]])
    with pytest.raises(NotSymmetric):
        make_ring(101, 2, [[0, 1], [2, 0]])


def test_random_form_is_symmetric_nondegenerate_and_seeded():
    a = random_nondegenerate_form(4, 101, np.random.default_rng(9))
    b = random_nondegenerate_form(4, 101, np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert np.array_equal(a, a.T % 101)
    make_ring(101, 4, a)  # nondegeneracy: constructor accepts it


def test_random_form_over_gf2_in_odd_dimension_terminates():
    # U + U^T is alternating over GF(2); a hang must fail, not stall the suite
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), os.environ.get("PYTHONPATH", "")]
    code = ("import numpy as np\n"
            "from gorlab.linalg import rank_array\n"
            "from gorlab.ring import random_nondegenerate_form\n"
            "for e in (1, 3, 5):\n"
            "    for seed in range(20):\n"
            "        B = random_nondegenerate_form(e, 2, np.random.default_rng(seed))\n"
            "        assert B.shape == (e, e) and np.array_equal(B, B.T)\n"
            "        assert set(B.flat) <= {0, 1} and rank_array(B, 2) == e\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("e, p", [(2, 2), (4, 2), (3, 3), (3, 101), (4, 101)])
def test_random_form_keeps_its_draws_where_they_terminated(e, p):
    # the first nondegenerate U + U^T, as drawn before the GF(2) fix; the
    # determinant is sympy's, independent of the rank the draw tests
    rng = np.random.default_rng(17)
    while True:
        U = rng.integers(0, p, size=(e, e))
        want = (U + U.T) % p
        if sympy.Matrix(want).det() % p:
            break
    assert np.array_equal(
        random_nondegenerate_form(e, p, np.random.default_rng(17)), want)


def test_structure_constants_round_trip(R3):
    report = validate_general_algebra(101, structure_constants(R3))
    assert report.accepted and report.graded and report.socle_rank == 1
    assert np.array_equal(report.form, R3.form)


def test_validation_rejects_broken_tables(R3):
    c = structure_constants(R3)
    bad = c.copy()
    bad[1, 2, 4] = 7  # x_1 x_2 != x_2 x_1
    with pytest.raises(NotCommutative):
        validate_general_algebra(101, bad)
    bad = c.copy()
    bad[1, 1, 1] = 1  # x_1^2 picks up a degree-1 term; m^3 != 0 follows
    with pytest.raises((CubeNotZero, NotCommutative, Exception)):
        validate_general_algebra(101, bad)


def test_validation_flags_non_normal_basis(R3):
    # rebase so that basis element 0 is the unit 1 + x_1 instead of 1: the
    # algebra is unchanged, but the table is no longer in normal form
    c = structure_constants(R3)
    d = R3.dim
    T = np.eye(d, dtype=np.int64)
    T[0, 1] = 1          # new basis vector 0 is 1 + x_1
    Tinv = np.linalg.inv(T).astype(np.int64) % 101
    moved = np.einsum("ia,jb,abc,ck->ijk", T, T, c, Tinv) % 101
    report = validate_general_algebra(101, moved)
    assert not report.accepted and report.reason
