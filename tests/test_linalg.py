from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from gorlab import linalg
from gorlab.errors import NotMaterialized
from gorlab.linalg import (
    kernel_array,
    kernel_rref,
    matmul_mod,
    rank_array,
    rank_triplets,
    reduce_mod_rowspace,
    row_space,
    rref_array,
    rref_inplace,
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


def _kernel_rref_rows(A, p):
    """kernel_rref of A, from A's nonzeros, as dense rows and pivots; the
    entries must be nonzero, in [1, p) and in row-major order."""
    rows, cols = np.nonzero(A)
    kr, kc, kv, piv = kernel_rref(rows, cols, A[rows, cols], A.shape, p)
    n = A.shape[1]
    lin = kr * n + kc
    assert np.all(np.diff(lin) > 0)
    assert kv.size == 0 or (kv.min() >= 1 and kv.max() < p)
    K = np.zeros((len(piv), n), dtype=np.int64)
    K[kr, kc] = kv
    return K, piv


@settings(max_examples=60, deadline=None)
@given(matrix_and_prime())
def test_kernel_rref_is_rref_of_kernel(mp):
    A, p = mp
    assert np.array_equal(kernel_array(A, p), _kernel_loop(A, p))
    # one elimination gives the canonical rref basis
    K, piv = _kernel_rref_rows(A, p)
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
    # computed on the free columns only, it is still W - W[:, piv] R
    assert np.array_equal(red, (W - W[:, list(piv)] @ R) % p)
    # the reduction differs from the input by a row-space element
    for t in range(4):
        diff = (W[t] - red[t]) % p
        assert rank_array(np.vstack([R, diff]), p) == rank


@settings(max_examples=60, deadline=None)
@given(matrix_and_prime())
def test_row_space_matches_full_rref(mp):
    A, p = mp
    R, piv, rank = rref_array(A, p)
    B, bpiv = row_space(A, p)
    assert np.array_equal(B, R[:rank])
    assert list(bpiv) == list(piv)


def test_solve_array_rejects_inconsistent_system():
    A = np.array([[1, 2], [2, 4]])
    b = np.array([1, 1])  # second row forces 2 = 1
    assert solve_array(A, b, 5) is None


@st.composite
def sparse_or_dense(draw):
    """A matrix over GF(p) for p in {2, 3, 101, 65521}: any shape up to
    14 x 14, empty ones included, nonzero at a drawn density, with some of
    its rows and columns zeroed."""
    p = draw(st.sampled_from((2, 3, 101, 65521)))
    m, n = draw(st.integers(0, 14)), draw(st.integers(0, 14))
    density = draw(st.sampled_from((0.0, 0.03, 0.1, 0.3, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(1, p, size=(m, n)) * (rng.random((m, n)) < density)
    A[draw(st.lists(st.integers(0, max(m - 1, 0)), max_size=3)) if m else []] = 0
    A[:, draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=3)) if n else []] = 0
    return A.astype(np.int64), p


def _sympy_rref(A, p):
    m, n = A.shape
    R = np.zeros((m, n), dtype=np.int64)
    if not (m and n):
        return R, []
    F = GF(p)
    D, piv = DomainMatrix([[F(int(x)) for x in row] for row in A.tolist()], (m, n), F).rref()
    R[:] = [[int(x) % p for x in row] for row in D.to_list()]
    return R, list(piv)


@settings(max_examples=200, deadline=None)
@given(sparse_or_dense())
def test_sparse_and_dense_rref_agree_with_sympy(mp):
    # sparse and dense inputs alike
    A, p = mp
    want, wpiv = _sympy_rref(A, p)
    R = A.copy()
    assert rref_inplace(R, p) == wpiv
    assert np.array_equal(R, want)


@settings(max_examples=60, deadline=None)
@given(sparse_or_dense())
def test_rref_inplace_writes_r_in_place(mp):
    # the caller's array ends as the rref, rows of zeros below the rank,
    # and nothing around it is written: R is a view into a larger array
    # whose border holds p, an entry no rref has
    A, p = mp
    want, wpiv = _sympy_rref(A, p)
    m, n = A.shape
    outer = np.full((m + 2, n + 2), p, dtype=np.int64)
    R = outer[1:m + 1, 1:n + 1]
    R[:] = A
    assert rref_inplace(R, p) == wpiv
    assert np.array_equal(R, want) and not R[len(wpiv):].any()
    R[:] = p
    assert (outer == p).all()


@settings(max_examples=200, deadline=None)
@given(sparse_or_dense(), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_left_kernel_counts_the_rank_added_to_the_column_space(mp, r, seed):
    # over a field col(A) is the common zero set of the left kernel K, so
    # the rank that the rows of V add to col(A) is the rank of V K^T; the
    # oracle eliminates [A | V^T] and A over GF(p) with sympy
    A, p = mp
    m = A.shape[0]
    rng = np.random.default_rng(seed)
    V = rng.integers(0, p, size=(r, m))
    # half of the rows inside col(A), so the added rank is often below r
    V[: r // 2] = rng.integers(0, p, size=(r // 2, A.shape[1])) @ A.T % p
    K = kernel_array(A.T, p)
    rank = len(_sympy_rref(A, p)[1])
    assert K.shape == (m - rank, m)
    want = len(_sympy_rref(np.concatenate([A, V.T], axis=1), p)[1]) - rank
    assert rank_array(matmul_mod(V, K.T, p), p) == want


def test_matmul_mod_is_exact_past_the_float64_bound():
    # 2.2 million products near p^2 sum past 2^53, where float64 rounds
    # (on OpenBLAS it is off for this draw), so the product is taken in
    # int64, whose sum is exact
    p, k = 65521, 2_200_000
    X = np.random.default_rng(3).integers(p - 100, p, size=(1, k))
    exact = int((X * X).sum())
    assert k * (p - 1) ** 2 >= 2 ** 53 and exact >= 2 ** 53
    assert matmul_mod(X, X.T, p).tolist() == [[exact % p]]
    # below the bound the float64 product is exact
    Y = np.full((2, 3, 1000), p - 1, dtype=np.int64)
    assert np.array_equal(matmul_mod(Y, Y.transpose(0, 2, 1), p),
                          np.full((2, 3, 3), 1000 % p))


def _triplets(A):
    rows, cols = np.nonzero(A)
    return rows, cols, A[rows, cols], A.shape


def _check_kernel(A, kernel, p):
    """Check that kernel_rref's output `kernel` for A is A's kernel in rref:
    of the oracle's nullity, killed by A, and its own rref."""
    kr, kc, kv, piv = kernel
    n = A.shape[1]
    K = linalg.dense(kr, kc, kv, (len(piv), n))
    assert K.shape == (n - len(_sympy_rref(A, p)[1]), n)
    assert not matmul_mod(A, K.T, p).any()
    R, rpiv = _sympy_rref(K, p)
    assert np.array_equal(R, K) and rpiv == piv


@settings(max_examples=200, deadline=None)
@given(sparse_or_dense())
def test_kernel_rref_agrees_with_sympy(mp):
    # for the matrix and its transpose (rows and columns swapped, so not in
    # row-major order)
    A, p = mp
    rows, cols, vals, (m, n) = _triplets(A)
    _check_kernel(A, kernel_rref(rows, cols, vals, (m, n), p), p)
    _check_kernel(A.T, kernel_rref(cols, rows, vals, (n, m), p), p)


@settings(max_examples=100, deadline=None)
@given(sparse_or_dense())
def test_kernel_rref_matches_kernel_array(mp):
    # the basis is the canonical one: sympy's, and the rref of the span of
    # kernel_array's basis; kernel_array's is the free-column basis, on
    # inputs above `_SMALL_ENTRIES` entries (which take the peel) too
    A, p = mp
    assert np.array_equal(kernel_array(A, p), _kernel_loop(A, p))
    out = kernel_rref(*_triplets(A), p)
    _check_kernel(A, out, p)
    R, rpiv = row_space(kernel_array(A, p), p)
    assert np.array_equal(linalg.dense(*out[:3], R.shape), R)
    assert out[3] == list(rpiv)


def test_solve_many_without_columns():
    # A x = b with no unknowns is solvable only for b = 0
    A = np.zeros((2, 0), dtype=np.int64)
    assert solve_many(A, [[1], [0]], 5) == [None]
    [x] = solve_many(A, [[0], [0]], 5)
    assert x.shape == (0,)
    assert solve_array(A, [0, 3], 5) is None
    # and with no equations every system is solvable
    [x] = solve_many(np.zeros((0, 3), dtype=np.int64), np.zeros((0, 1)), 5)
    assert x.tolist() == [0, 0, 0]


def _planted_singletons(A, kind, rng, p):
    """A with rows that `kernel_rref`'s pre-pass peels, at random places:
    singleton rows; a chain of them, where peeling one leaves the next
    with one entry; two singleton rows in one column; or zero rows."""
    m, n = A.shape
    k = int(rng.integers(1, n + 1))
    cols = rng.permutation(n)[:k]
    units = rng.integers(1, p, size=(k, 2))
    if kind == "singletons":
        planted = np.zeros((k, n), dtype=np.int64)
        planted[np.arange(k), cols] = units[:, 0]
    elif kind == "chain":
        # row 0 is e_{c0}; row t has entries at c_{t-1} and c_t
        planted = np.zeros((k, n), dtype=np.int64)
        planted[np.arange(k), cols] = units[:, 0]
        planted[np.arange(1, k), cols[:-1]] = units[1:, 1]
    elif kind == "shared column":
        planted = np.zeros((2, n), dtype=np.int64)
        planted[:, cols[0]] = units[0]
    else:   # zero rows
        planted = np.zeros((k, n), dtype=np.int64)
    B = np.concatenate([A, planted])
    return B[rng.permutation(len(B))]


@st.composite
def sparse_for_kernel_rref(draw):
    """A matrix over GF(p) at a density from 1% to 30%, or an edge case:
    no rows, no columns, the zero matrix, full column rank (a permuted
    identity under sparse rows), or rows planted for the singleton-row
    pre-pass (`_planted_singletons`)."""
    p = draw(st.sampled_from((2, 3, 101, 65521)))
    kind = draw(st.sampled_from(("sparse", "sparse", "no rows", "no columns",
                                 "zero", "full column rank", "singletons",
                                 "chain", "shared column", "zero rows")))
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.01, 0.03, 0.06, 0.1, 0.15, 0.3)))
    A = rng.integers(1, p, size=(m, n)) * (rng.random((m, n)) < density)
    if kind == "no rows":
        A = A[:0]
    elif kind == "no columns":
        A = A[:, :0]
    elif kind == "zero":
        A[:] = 0
    elif kind == "full column rank":
        A = np.concatenate([np.eye(n, dtype=np.int64)[rng.permutation(n)], A])
    elif kind in ("singletons", "chain", "shared column", "zero rows"):
        A = _planted_singletons(A, kind, rng, p)
    return A.astype(np.int64), p


@settings(max_examples=200, deadline=None)
@given(sparse_for_kernel_rref())
def test_kernel_rref_matches_two_eliminations_on_sparse_inputs(mp):
    # the oracle eliminates twice: a kernel basis, then the rref of its span
    A, p = mp
    K, piv = _kernel_rref_rows(A, p)
    R, rpiv = row_space(kernel_array(A, p), p)
    assert np.array_equal(K, R) and piv == list(rpiv)


def _peeled_away(n, kind, rng, p):
    """An input that the pre-pass peels completely, with a zero kernel: a
    permuted, scaled identity (peeled in one round) or a chain (one row
    per round), stacked on rows whose columns all get pinned."""
    cols = rng.permutation(n)
    A = np.zeros((n, n), dtype=np.int64)
    A[np.arange(n), cols] = rng.integers(1, p, size=n)
    if kind == "chain":
        A[np.arange(1, n), cols[:-1]] = rng.integers(1, p, size=n - 1)
    B = rng.integers(1, p, size=(n, n)) * (rng.random((n, n)) < 0.3)
    C = np.concatenate([A, B])
    return C[rng.permutation(2 * n)]


@pytest.mark.parametrize("kind", ["identity", "chain"])
def test_kernel_rref_peels_a_full_rank_input_before_eliminating(kind, monkeypatch):
    # every column is a structural pivot, so the elimination gets no entry
    # at all and the kernel is zero, as the two-elimination oracle finds
    p, n = 101, 30
    A = _peeled_away(n, kind, np.random.default_rng(7), p)
    handed, real = [], linalg._eliminate

    def eliminate(rows, lead, p, budget=float("inf"), stored=0):
        handed.append((sum(len(r) for r in rows if r is not None),
                       sum(r is not None for r in rows), stored))
        return real(rows, lead, p, budget, stored)

    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    K, piv = _kernel_rref_rows(A, p)
    assert handed == [(0, 0, 0)]
    assert K.shape == (0, n) and piv == []
    monkeypatch.undo()
    assert kernel_array(A, p).shape == (0, n)


# `linalg._SMALL_ENTRIES` values that send every input, the empty one too,
# down one conversion route: numpy, or plain Python
NUMPY_ROUTE, PYTHON_ROUTE = -1, 10**6


def _on_route(route, *args):
    """kernel_rref(*args) with every input sent down `route`."""
    real = linalg._SMALL_ENTRIES
    linalg._SMALL_ENTRIES = route
    try:
        return kernel_rref(*args)
    finally:
        linalg._SMALL_ENTRIES = real


@settings(max_examples=200, deadline=None)
@given(sparse_for_kernel_rref())
def test_kernel_rref_routes_agree(mp):
    # for the matrix and its transpose (not in row-major order): the same
    # rows, cols, vals (int64 arrays) and pivots from either route, for a
    # caller that passes arrays and one that passes lists
    A, p = mp
    rows, cols, vals, (m, n) = _triplets(A)
    for args in ((rows, cols, vals, (m, n), p), (cols, rows, vals, (n, m), p)):
        a = _on_route(NUMPY_ROUTE, *args)
        lists = [x.tolist() for x in args[:3]] + list(args[3:])
        for route in (NUMPY_ROUTE, PYTHON_ROUTE):
            for b in (_on_route(route, *args), _on_route(route, *lists)):
                assert b[3] == a[3]
                for x, y in zip(a[:3], b[:3]):
                    assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y)


@pytest.mark.parametrize("entries", [5, 6])
def test_kernel_rref_routes_refuse_alike(entries, monkeypatch):
    # six entries, no singleton row; room for 5 refuses before the
    # elimination, room for 6 at its first fill (column 4 pivots on row 0,
    # and clearing it from row 1 stores 7): the same text from either route
    A = np.array([[1, 1, 0, 0, 1], [0, 0, 1, 1, 1]], dtype=np.int64)
    rows, cols, vals, (m, n) = _triplets(A)
    room = linalg.ENTRY_BYTES * entries + linalg.LINE_BYTES * (m + n)
    crossed, real = [], linalg._eliminate

    def eliminate(*args):
        out = real(*args)
        crossed.append(out is None)
        return out

    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    texts = []
    for route in (NUMPY_ROUTE, PYTHON_ROUTE):
        with pytest.raises(NotMaterialized) as exc:
            _on_route(route, rows, cols, vals, (m, n), 101, room)
        texts.append(str(exc.value))
    assert texts[0] == texts[1]
    assert texts[0].endswith(f"room for {entries} stored entries")
    assert crossed == ([] if entries == 5 else [True, True])


@pytest.mark.parametrize("kind", ["sparse", "empty", "peeled away"])
def test_kernel_rref_routes_eliminate_once(kind, monkeypatch):
    # `_eliminate` is the one elimination engine of both routes
    rng, p = np.random.default_rng(11), 101
    if kind == "sparse":
        A = rng.integers(1, p, size=(6, 9)) * (rng.random((6, 9)) < 0.3)
    elif kind == "empty":
        A = np.zeros((3, 4), dtype=np.int64)
    else:
        A = _peeled_away(5, "chain", rng, p)
    calls, real = [], linalg._eliminate

    def eliminate(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    for route in (NUMPY_ROUTE, PYTHON_ROUTE):
        calls.clear()
        _on_route(route, *_triplets(A), p)
        assert len(calls) == 1


@settings(max_examples=200, deadline=None)
@given(sparse_or_dense(), st.integers(0, 2**32 - 1))
def test_sparse_rows_is_the_incidence_of_the_matrix(mp, seed):
    # on lists, in any order of the entries, empty inputs included: rows[i]
    # maps the columns of row i to its entries (None for a zero row)
    A, _ = mp
    ri, ci = np.nonzero(A)
    order = np.random.default_rng(seed).permutation(len(ri))
    ri, ci = ri[order], ci[order]
    rows = linalg._sparse_rows(ri.tolist(), ci.tolist(), A[ri, ci].tolist(), A.shape[0])
    assert rows == [{c: A[i, c] for c in np.flatnonzero(A[i]).tolist()} or None
                    for i in range(A.shape[0])]
    assert linalg._sparse_rows([], [], [], 3) == [None] * 3


def _gauss_jordan(rows, columns, p, budget=float("inf"), stored=0):
    """Reference elimination, one pass: the Gauss-Jordan engine that
    `linalg._eliminate` and `linalg._back_substitute` replace.  Each column
    in the order `columns` takes as pivot the sparsest unused row nonzero
    there (the lowest index on a tie) and is cleared from every other row,
    the used ones too.  Returns {pivot column: row} in pivot order, or None
    once more than `budget` entries are stored, checked after each row
    update."""
    used = bytearray(len(rows))
    pivot_row = {}
    for c in columns:
        col = [i for i, row in enumerate(rows) if row and c in row]
        free = [i for i in col if not used[i]]
        if not free:
            continue
        best = min(free, key=lambda i: (len(rows[i]), i))
        prow = rows[best]
        inv = pow(prow[c], p - 2, p)
        for j in prow:
            prow[j] = prow[j] * inv % p
        used[best] = 1
        pivot_row[c] = best
        for i in col:
            if i == best:
                continue
            row = rows[i]
            f = p - row.pop(c)
            for j, v in prow.items():
                if j == c:
                    continue
                x = (row.get(j, 0) + f * v) % p
                if x and j not in row:
                    stored += 1
                elif not x:
                    stored -= 1
                if x:
                    row[j] = x
                else:
                    del row[j]
            stored -= 1
            if stored > budget:
                return None
    return pivot_row


def _rows_of(A):
    """A's rows as `linalg._sparse_rows` builds them, and their entries."""
    ri, ci = np.nonzero(A)
    return linalg._sparse_rows(ri.tolist(), ci.tolist(), A[ri, ci].tolist(), A.shape[0]), len(ri)


def _two_passes(A, p, lead, budget=float("inf")):
    """{pivot column: reduced row, its unit lead included} of `_eliminate`
    then `_back_substitute` on A's rows with `lead`, or None where either
    pass refuses."""
    rows, stored = _rows_of(A)
    done = linalg._eliminate(rows, lead, p, budget, stored)
    if done is None or not linalg._back_substitute(done[0], lead, p, budget, done[1]):
        return None
    return {c: {c: 1, **row} for c, row in done[0].items()}


def _reference(A, p, lead, budget=float("inf")):
    """{pivot column: reduced row} of the reference `_gauss_jordan`, its
    columns in the order `lead` reads them (right to left for max, left to
    right for min), or None."""
    rows, stored = _rows_of(A)
    columns = sorted({c for row in rows if row for c in row}, reverse=lead is max)
    pivot_row = _gauss_jordan(rows, columns, p, budget, stored)
    return None if pivot_row is None else {c: rows[i] for c, i in pivot_row.items()}


@st.composite
def engine_inputs(draw):
    """A matrix mod 2, 3, 101 or 65521 for the engine: a draw of
    `sparse_for_kernel_rref` (empty and zero matrices among them), a
    rank-deficient product of two thin matrices, or an all-singleton
    matrix, every row with at most one entry and columns shared."""
    kind = draw(st.sampled_from(("drawn", "rank deficient", "all singletons")))
    A, p = draw(sparse_for_kernel_rref())
    if kind == "drawn":
        return A, p
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    if kind == "rank deficient":
        r = draw(st.integers(0, 4))
        A = rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, n)) % p
    else:
        A = np.zeros((m, n), dtype=np.int64)
        if n:
            A[np.arange(m), rng.integers(0, n, size=m)] = rng.integers(1, p, size=m)
    return A.astype(np.int64), p


@settings(max_examples=200, deadline=None)
@given(engine_inputs())
def test_forward_pass_and_back_substitution_are_gauss_jordan(mp):
    # the same pivot columns, each with the same reduced row, for both
    # leads: the highest column (kernel_rref, rank_triplets) against the
    # columns right to left, and the lowest (rref_inplace) against them left
    # to right.  The inputs draw empty, rank-deficient and all-singleton
    # matrices mod 2, 3, 101 and 65521
    A, p = mp
    for lead in (max, min):
        assert _two_passes(A, p, lead) == _reference(A, p, lead)


def test_the_forward_pass_may_hold_more_than_gauss_jordan():
    # the peak of stored entries is not bounded by Gauss-Jordan's: row
    # insertion reduces a row by a pivot row Gauss-Jordan has already
    # shrunk.  Led by their lowest columns, rows 2 and 3 (three entries
    # each) go in first and both lead at column 11, so row 3 is reduced by
    # row 2 and grows by one entry; Gauss-Jordan first pivots row 0 on
    # column 0 and row 1 on column 1, which shrinks row 0 to its pivot,
    # before that growth.  Gauss-Jordan stays within the 27 input entries,
    # row insertion needs 28, and both end with the same rows
    A = np.zeros((4, 24), dtype=np.int64)
    A[0, :11] = 1
    A[1, 1:11] = 1
    A[2, [11, 20, 21]] = 1
    A[3, [11, 22, 23]] = 1
    assert np.count_nonzero(A) == 27
    assert _reference(A, 101, min, budget=27) is not None
    assert _two_passes(A, 101, min, budget=27) is None
    assert _two_passes(A, 101, min, budget=28) == _reference(A, 101, min)


@settings(max_examples=200, deadline=None)
@given(engine_inputs())
def test_row_insertion_stores_what_it_holds_and_agrees_with_a_dense_reference(mp):
    # for both leads the forward pass counts as stored exactly the entries
    # its pivot rows hold, their unit leads included, and empties every
    # other row; kernel_rref, rank_triplets and rref_inplace, which run it
    # with the back-substitution, agree with sympy's dense rref of the same
    # draw (test_forward_pass_and_back_substitution_are_gauss_jordan
    # compares the two passes with Gauss-Jordan on these draws)
    A, p = mp
    for lead in (max, min):
        rows, stored = _rows_of(A)
        pivots, held = linalg._eliminate(rows, lead, p, stored=stored)
        assert held == sum(len(row) + 1 for row in pivots.values())
        # every row that found no pivot column vanished on the way
        kept = {id(row) for row in pivots.values()}
        assert not any(row for row in rows if row is not None and id(row) not in kept)
        # each pivot row is held without its lead, before all its columns
        assert all(c not in row and lead([c, *row]) == c for c, row in pivots.items())
    want, wpiv = _sympy_rref(A, p)
    R = A.copy()
    assert rref_inplace(R, p) == wpiv and np.array_equal(R, want)
    assert rank_triplets(*_triplets(A), p) == len(wpiv)
    _check_kernel(A, kernel_rref(*_triplets(A), p), p)


@pytest.mark.parametrize("route", [NUMPY_ROUTE, PYTHON_ROUTE])
def test_kernel_rref_of_full_column_rank_skips_the_back_substitution(route, monkeypatch):
    # the kernel of a full-column-rank input is zero, so no reduced row is
    # read: the forward pass runs, the back-substitution does not; an input
    # with a free column runs both once
    rng, p = np.random.default_rng(5), 101
    full = np.concatenate([np.triu(rng.integers(1, p, size=(8, 8))),
                           rng.integers(0, p, size=(3, 8))])
    assert rank_array(full, p) == 8
    free = full[:, :7] @ rng.integers(0, p, size=(7, 9)) % p
    calls, real = [], (linalg._eliminate, linalg._back_substitute)

    def eliminate(*args):
        calls.append("forward")
        return real[0](*args)

    def back_substitute(*args):
        calls.append("back")
        return real[1](*args)

    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    monkeypatch.setattr(linalg, "_back_substitute", back_substitute)
    for A, want in ((full, ["forward"]), (free, ["forward", "back"])):
        calls.clear()
        kr, kc, kv, piv = _on_route(route, *_triplets(A), p)
        assert calls == want
        assert len(piv) == A.shape[1] - rank_array(A, p)
        assert kr.dtype == kc.dtype == kv.dtype == np.int64
    # the zero kernel comes back as empty int64 arrays to a list caller too
    *out, piv = _on_route(route, *(x.tolist() for x in _triplets(full)[:3]), full.shape, p)
    assert piv == [] and all(x.dtype == np.int64 and x.shape == (0,) for x in out)


def _bidiagonal(m, n, rng, p):
    """The m x n matrix with nonzeros on its diagonal and the one above:
    for n > m no row has one entry, and peeling the singleton column 0
    leaves column 1 with one, and so on along the chain."""
    A = np.zeros((m, n), dtype=np.int64)
    k = min(m, n)
    A[np.arange(k), np.arange(k)] = rng.integers(1, p, size=k)
    up = np.arange(min(m, n - 1))
    A[up, up + 1] = rng.integers(1, p, size=len(up))
    return A


@st.composite
def sparse_for_rank(draw):
    """An input of `sparse_for_kernel_rref` or its transpose, whose planted
    singleton rows are singleton columns, or a bidiagonal matrix, whose
    singleton columns peel one at a time, or [[a, b]], two singleton
    columns in one row."""
    kind = draw(st.sampled_from(("as drawn", "transposed", "bidiagonal", "one row")))
    A, p = draw(sparse_for_kernel_rref())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "transposed":
        A = A.T.copy()
    elif kind == "bidiagonal":
        m = draw(st.integers(1, 30))
        A = _bidiagonal(m, max(m + draw(st.integers(-2, 2)), 1), rng, p)
        A = A[rng.permutation(A.shape[0])][:, rng.permutation(A.shape[1])]
    elif kind == "one row":
        A = rng.integers(1, p, size=(1, 2))
    return A, p


@settings(max_examples=300, deadline=None)
@given(sparse_for_rank())
def test_rank_triplets_is_the_rank(mp):
    # the rank of the forward pass, after peeling singleton rows and columns
    # on the numpy route and unpeeled on the plain one, equals the dense
    # rank, for the matrix and its transpose; the numpy route's peel leaves
    # the forward pass no row and no column with one entry
    A, p = mp
    real = linalg._SMALL_ENTRIES, linalg._eliminate
    handed = []

    def eliminate(rows, *args):
        if linalg._SMALL_ENTRIES == NUMPY_ROUTE:
            columns = Counter(c for r in rows if r for c in r)
            handed.append(([len(r) for r in rows if r], list(columns.values())))
        return real[1](rows, *args)

    for B in (A, A.T):
        want = rank_array(B, p)
        for route in (NUMPY_ROUTE, PYTHON_ROUTE):
            linalg._SMALL_ENTRIES, linalg._eliminate = route, eliminate
            try:
                assert rank_triplets(*_triplets(B), p) == want
            finally:
                linalg._SMALL_ENTRIES, linalg._eliminate = real
    assert len(handed) == 2 and all(1 not in x + y for x, y in handed)


def test_rank_triplets_peels_singleton_columns():
    # [[1, 1]]: both columns have one entry, in the same row, so the row is
    # peeled once and the rank is 1 with no arithmetic; a bidiagonal chain
    # peels whole, and the two-row input that kernel_rref eliminates (see
    # test_kernel_rref_routes_refuse_alike) peels whole too.  The plain
    # route peels nothing and finds the same rank
    rng, p = np.random.default_rng(3), 101
    handed, real = [], linalg._eliminate

    def eliminate(rows, lead, p, budget=float("inf"), stored=0):
        handed.append(stored)
        return real(rows, lead, p, budget, stored)

    for A, rank in ((np.array([[1, 1]]), 1), (_bidiagonal(12, 13, rng, p), 12),
                    (np.array([[1, 1, 0, 0, 1], [0, 0, 1, 1, 1]]), 2)):
        for route in (NUMPY_ROUTE, PYTHON_ROUTE):
            handed.clear()
            linalg._eliminate, real_small = eliminate, linalg._SMALL_ENTRIES
            linalg._SMALL_ENTRIES = route
            try:
                assert rank_triplets(*_triplets(A), p) == rank
            finally:
                linalg._eliminate, linalg._SMALL_ENTRIES = real, real_small
            assert handed == [0] or route == PYTHON_ROUTE


@pytest.mark.parametrize("entries", [linalg._SMALL_ENTRIES, linalg._SMALL_ENTRIES + 1])
def test_rank_triplets_routes_agree_on_both_sides_of_the_threshold(entries, monkeypatch):
    # inputs of as many entries as the plain route takes and one more, each
    # sent down its own route and then down both: the same rank, and the
    # numpy route hands `_eliminate` the plain route's rows less the lines
    # `_peel` drops (the columns of singleton rows, then the rows of
    # singleton columns), with the stored count those rows hold, each route
    # leading rows by their highest column
    rng, p = np.random.default_rng(entries), 101
    for _ in range(20):
        m, n = (int(x) for x in rng.integers(8, 20, size=2))
        A = np.zeros((m, n), dtype=np.int64)
        A.flat[rng.permutation(m * n)[:entries]] = rng.integers(1, p, size=entries)
        handed, real = [], linalg._eliminate

        def eliminate(rows, lead, p, budget=float("inf"), stored=0):
            handed.append(([None if r is None else dict(r) for r in rows], lead, stored))
            return real(rows, lead, p, budget, stored)

        monkeypatch.setattr(linalg, "_eliminate", eliminate)
        ranks = [rank_triplets(*_triplets(A), p)]
        for route in (NUMPY_ROUTE, PYTHON_ROUTE):
            monkeypatch.setattr(linalg, "_SMALL_ENTRIES", route)
            ranks.append(rank_triplets(*_triplets(A), p))
        monkeypatch.undo()
        assert ranks == [rank_array(A, p)] * 3
        own, peeled, plain = handed
        assert own == (plain if linalg.plain_route(entries) else peeled)
        ri, ci, vi, pinned = linalg._peel(*_triplets(A)[:3], n)
        marked = linalg._peel(ci, ri, vi, m)[3]
        left = [None if r is None or marked[i]
                else {c: v for c, v in r.items() if not pinned[c]} or None
                for i, r in enumerate(plain[0])]
        assert peeled == (left, max, sum(len(r) for r in left if r))


@pytest.mark.parametrize("route", [NUMPY_ROUTE, PYTHON_ROUTE])
def test_rank_triplets_refuses_before_eliminating(route, monkeypatch):
    # room for one entry less than the input: NotMaterialized with
    # kernel_rref's text, before the pre-pass and before `_eliminate` sees
    # the input
    A = np.array([[1, 1, 0, 0, 1], [0, 0, 1, 1, 1]], dtype=np.int64)
    rows, cols, vals, (m, n) = _triplets(A)
    room = linalg.ENTRY_BYTES * (len(vals) - 1) + linalg.LINE_BYTES * (m + n)
    seen = []
    monkeypatch.setattr(linalg, "_eliminate", lambda *args: seen.append(args))
    monkeypatch.setattr(linalg, "_peel", lambda *args: seen.append(args))
    monkeypatch.setattr(linalg, "_SMALL_ENTRIES", route)
    texts = []
    for read in (rank_triplets, kernel_rref):
        with pytest.raises(NotMaterialized) as exc:
            read(rows, cols, vals, (m, n), 101, room)
        texts.append(str(exc.value))
    assert seen == [] and texts[0] == texts[1]
    assert texts[0].endswith(f"room for {len(vals) - 1} stored entries")
