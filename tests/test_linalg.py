import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gorlab.linalg import (
    absorb_rows,
    kernel_array,
    kernel_rref,
    rank_array,
    reduce_mod_rowspace,
    row_space,
    rref_array,
    solve_array,
    solve_many,
)

PRIMES = (2, 5, 101)


def test_rref_invertible_2x2_is_identity():
    # det = 2*3 - 4*1 = 2 != 0 mod 5
    R, piv, rank = rref_array(np.array([[2, 4], [1, 3]]), 5)
    assert rank == 2
    assert np.array_equal(R[:2], np.eye(2, dtype=np.int64))
    assert list(piv) == [0, 1]


def test_rref_dependent_rows_collapse():
    A = np.array([[1, 2, 3], [2, 4, 6]])
    R, piv, rank = rref_array(A, 7)
    assert rank == 1
    assert np.array_equal(R[0], np.array([1, 2, 3]))
    assert not R[1].any()
    K = kernel_array(A, 7)
    assert K.shape[0] == 2
    assert not (A @ K.T % 7).any()


def test_kernel_of_full_rank_is_empty():
    K = kernel_array(np.array([[1, 0], [0, 1], [1, 1]]), 101)
    assert K.shape == (0, 2)


@st.composite
def matrix_and_prime(draw):
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(1, 6))
    data = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols,
                         max_size=rows * cols))
    return np.array(data, dtype=np.int64).reshape(rows, cols), p


@settings(max_examples=60, deadline=None)
@given(matrix_and_prime())
def test_rref_is_idempotent_and_rank_stable(mp):
    A, p = mp
    R, piv, rank = rref_array(A, p)
    R2, piv2, rank2 = rref_array(R[:rank], p)
    assert np.array_equal(R[:rank], R2[:rank2])
    assert list(piv) == list(piv2)
    assert rank_array(A, p) == rank
    # pivot columns of an rref matrix carry one unit entry and nothing else
    for t, c in enumerate(piv):
        col = R[:rank, c]
        assert col[t] == 1 and np.count_nonzero(col) == 1


@settings(max_examples=60, deadline=None)
@given(matrix_and_prime())
def test_rank_nullity_and_kernel_annihilation(mp):
    A, p = mp
    K = kernel_array(A, p)
    assert rank_array(A, p) + K.shape[0] == A.shape[1]
    if K.size:
        assert not (A @ K.T % p).any()
    assert rank_array(K, p) == K.shape[0]


def _kernel_loop(A, p):
    """Reference kernel basis: one free column at a time."""
    R, pivots, rank = rref_array(A, p)
    free = [c for c in range(A.shape[1]) if c not in pivots]
    K = np.zeros((len(free), A.shape[1]), dtype=np.int64)
    for i, c in enumerate(free):
        K[i, c] = 1
        if rank:
            K[i, pivots] = (-R[:rank, c]) % p
    return K


@settings(max_examples=60, deadline=None)
@given(matrix_and_prime())
def test_kernel_rref_is_rref_of_kernel(mp):
    A, p = mp
    assert np.array_equal(kernel_array(A, p), _kernel_loop(A, p))
    # the column-reversed kernel read backwards is the canonical rref basis
    K, piv = kernel_rref(A, p)
    R, rpiv, rank = rref_array(kernel_array(A, p), p)
    assert np.array_equal(K, R[:rank])
    assert piv == list(rpiv)


@settings(max_examples=40, deadline=None)
@given(matrix_and_prime(), st.integers(0, 10**6))
def test_solve_many_recovers_consistent_systems(mp, seed):
    A, p = mp
    rng = np.random.default_rng(seed)
    X = rng.integers(0, p, size=(A.shape[1], 3))
    B = A @ X % p
    for j, x in enumerate(solve_many(A, B, p)):
        assert x is not None
        assert np.array_equal(A @ x % p, B[:, j])


@settings(max_examples=40, deadline=None)
@given(matrix_and_prime(), st.integers(0, 10**6))
def test_reduce_mod_rowspace_vanishes_on_span(mp, seed):
    A, p = mp
    R, piv, rank = rref_array(A, p)
    R = R[:rank]
    rng = np.random.default_rng(seed)
    if rank:
        V = rng.integers(0, p, size=(4, rank)) @ R % p
        assert not reduce_mod_rowspace(R, piv, V, p).any()
    W = rng.integers(0, p, size=(4, A.shape[1]))
    red = reduce_mod_rowspace(R, piv, W, p)
    # the reduction differs from the input by a row-space element
    for t in range(4):
        diff = (W[t] - red[t]) % p
        assert rank_array(np.vstack([R, diff]), p) == rank


@settings(max_examples=60, deadline=None)
@given(matrix_and_prime(), st.integers(1, 4))
def test_row_space_matches_full_rref(mp, chunk):
    A, p = mp
    R, piv, rank = rref_array(A, p)
    B, bpiv = row_space(A, p, chunk=chunk)
    assert np.array_equal(B, R[:rank])
    assert list(bpiv) == list(piv)


@settings(max_examples=60, deadline=None)
@given(matrix_and_prime(), st.integers(0, 10**6))
def test_absorb_rows_matches_rref_of_stack(mp, seed):
    A, p = mp
    B, piv = row_space(A, p)
    C = np.random.default_rng(seed).integers(0, p, size=(3, A.shape[1]))
    C[1] = 0
    R, rpiv, rank = rref_array(np.vstack([A, C]), p)
    S, spiv = absorb_rows(B, piv, C, p)
    assert np.array_equal(S, R[:rank])
    assert list(spiv) == list(rpiv)
    # rows already in the span leave the basis as it is
    S2, spiv2 = absorb_rows(S, spiv, S[:2], p)
    assert np.array_equal(S2, S) and list(spiv2) == list(spiv)


def test_absorb_rows_leaves_its_arguments_unchanged():
    # only the residue is eliminated in place, and against an empty basis
    # the residue is the caller's C itself unless it is copied first
    p = 7
    C = np.array([[0, 2, 4, 1], [3, 1, 0, 5], [3, 3, 4, 6]], dtype=np.int64)
    B0 = np.zeros((0, 4), dtype=np.int64)
    keep = C.copy()
    B, piv = absorb_rows(B0, [], C, p)
    assert np.array_equal(C, keep)
    basis = B.copy()
    absorb_rows(B, piv, C, p)
    absorb_rows(B[:1], piv[:1], C, p)
    assert np.array_equal(C, keep) and np.array_equal(B, basis)


def test_solve_array_rejects_inconsistent_system():
    A = np.array([[1, 2], [2, 4]])
    b = np.array([1, 1])  # second row forces 2 = 1
    assert solve_array(A, b, 5) is None
