"""Exact linear algebra kernel: rank/kernel/solve and the sparse
structure-tensor kernel Bilinear.

The rank oracle is a second, independent elimination with permuted row
order; solve and kernel are checked by multiplying back.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hopflab.fields import QQ, PrimeField
from hopflab.linalg import (Bilinear, DimensionError, Matrix, Tensor,
                            kernel_basis, mat_mul, mat_vec, rank, solve,
                            sparse_rank)
from hopflab.catalog import sweedler_h4, sigma_t


def rank_oracle(m, order):
    """Row-echelon rank with externally supplied row order."""
    rows = [list(m.data[i]) for i in order]
    cols = m.cols
    rk = 0
    for pc in range(cols):
        piv = None
        for r in range(rk, len(rows)):
            if rows[r][pc]:
                piv = r
                break
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        fp = rows[rk][pc]
        for r in range(rk + 1, len(rows)):
            if rows[r][pc]:
                mult = m.field.div(rows[r][pc], fp)
                rows[r] = [a - b * mult for a, b in zip(rows[r], rows[rk])]
        rk += 1
    return rk


def assert_no_floats(m):
    assert not any(isinstance(x, float) for x in m.entries)


def rand_matrix(rng, field, rows, cols, lo=-5, hi=5):
    return Matrix(field, rows, cols,
                  [[field.from_int(rng.randint(lo, hi)) for _ in range(cols)]
                   for _ in range(rows)])


def test_rank_identity_and_zero():
    assert rank(Matrix.identity(QQ, 2)) == 2
    assert rank(Matrix.zeros(QQ, 3, 3)) == 0


def test_rank_sigma_matrix_cross_checked():
    h4 = sweedler_h4(QQ)
    m = sigma_t(h4, 1).sigma
    r = rank(m)
    rng = random.Random(7)
    for _ in range(5):
        order = list(range(m.rows))
        rng.shuffle(order)
        assert rank_oracle(m, order) == r
    assert r == 2  # two distinct nonzero row patterns


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_sparse_rank_equals_rank(field):
    """sparse_rank on dict rows equals rank on the same rows as a Matrix,
    for sparse random rows mixed with zero, duplicate and proportional
    rows; rows may carry explicit zero coefficients and are not changed."""
    rng = random.Random(9)
    assert sparse_rank(field, []) == 0
    assert sparse_rank(field, [{}, {3: field.zero}]) == 0
    for _ in range(60):
        rows, cols = rng.randint(1, 10), rng.randint(1, 12)
        dense = [[field.from_int(rng.randint(-3, 3))
                  if rng.random() < 0.2 else field.zero
                  for _ in range(cols)] for _ in range(rows)]
        dense.append(list(dense[0]))
        dense.append([x * field.from_int(rng.choice([-2, 2, 3]))
                      for x in dense[-2]])
        dense.append([field.zero] * cols)
        rng.shuffle(dense)
        sparse = [{c: x for c, x in enumerate(row) if x or rng.random() < 0.1}
                  for row in dense]
        before = [dict(row) for row in sparse]
        assert sparse_rank(field, sparse) == rank(
            Matrix(field, len(dense), cols, dense))
        assert sparse == before


def test_kernel_identity_and_zero():
    assert kernel_basis(Matrix.identity(QQ, 3)).cols == 0
    k = kernel_basis(Matrix.zeros(QQ, 4, 4))
    assert k.cols == 4
    assert k == Matrix.identity(QQ, 4)


def test_kernel_of_rank3_matrix_multiply_back():
    rng = random.Random(3)
    # a 4x6 matrix of rank 3: product of random 4x3 and 3x6 full-rank pieces
    while True:
        a = rand_matrix(rng, QQ, 4, 3)
        b = rand_matrix(rng, QQ, 3, 6)
        m = mat_mul(a, b)
        if rank(a) == 3 and rank(b) == 3:
            break
    assert rank(m) == 3
    ker = kernel_basis(m)
    assert ker.cols == 3
    for j in range(ker.cols):
        assert not any(mat_vec(m, ker.column(j)))


def test_solve_identity():
    b = Matrix(QQ, 3, 1, [[QQ.from_int(5)], [QQ.from_int(-2)],
                          [QQ.from_int(7)]])
    x = solve(Matrix.identity(QQ, 3), b)
    assert x == b


def test_solve_inconsistent_returns_none():
    # column space of m is spanned by (1,1); b = (1,0) lies outside
    one = QQ.one
    m = Matrix(QQ, 2, 2, [[one, one], [one, one]])
    b = Matrix(QQ, 2, 1, [[one], [QQ.zero]])
    assert solve(m, b) is None


def test_solve_h4_antipode_multiply_back():
    h4 = sweedler_h4(QQ)
    m = h4.antipode
    b = Matrix(QQ, 4, 1, [[x] for x in h4.unit])
    x = solve(m, b)
    assert x is not None
    assert mat_vec(m, x.column(0)) == h4.unit


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionError):
        solve(Matrix.identity(QQ, 2), Matrix.zeros(QQ, 3, 1))


@pytest.mark.parametrize("rows, cols, data", [
    (2, 2, [[1, 0]]), (2, 2, [[1, 0], [0]]), (1, 2, [[1, 0, 0]])])
def test_matrix_shape_error_is_typed(rows, cols, data):
    with pytest.raises(DimensionError, match="not %d rows of %d" % (rows, cols)):
        Matrix(QQ, rows, cols, data)


def test_tensor_shape_error_is_typed():
    with pytest.raises(DimensionError, match=r"shape \(2, 2\) needs 4"):
        Tensor(QQ, (2, 2), [1, 2, 3])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 10 ** 6),
       st.sampled_from(["Q", "F5", "F13"]))
def test_rank_nullity_random(rows, cols, seed, fkind):
    field = {"Q": QQ, "F5": PrimeField(5), "F13": PrimeField(13)}[fkind]
    rng = random.Random(seed)
    m = rand_matrix(rng, field, rows, cols)
    ker = kernel_basis(m)
    assert rank(m) + ker.cols == cols
    assert_no_floats(ker)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10 ** 6))
def test_solve_multiply_back_random(n, seed):
    rng = random.Random(seed)
    m = rand_matrix(rng, QQ, n, n)
    x_true = rand_matrix(rng, QQ, n, 1)
    b = mat_mul(m, x_true)
    x = solve(m, b)
    assert x is not None
    assert mat_mul(m, x) == b
    assert_no_floats(x)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 10 ** 6))
def test_bilinear_matches_dense_definition(n0, n1, n2, seed):
    rng = random.Random(seed)
    field = PrimeField(7)

    def rand_vec(n):
        return [field.from_int(rng.choice([0, 0, 1, -2, 3])) for _ in range(n)]

    t = Tensor(field, (n0, n1, n2), rand_vec(n0 * n1 * n2))
    kernel = Bilinear(t)

    def entry(i, j, k):
        return t.data[(i * n1 + j) * n2 + k]

    u, v = rand_vec(n0), rand_vec(n1)
    assert kernel.apply(u, v) == [
        sum((u[i] * v[j] * entry(i, j, k) for i in range(n0)
             for j in range(n1)), field.zero) for k in range(n2)]
    for i in range(n0):
        assert kernel.apply_basis(i, v) == [
            sum((v[j] * entry(i, j, k) for j in range(n1)), field.zero)
            for k in range(n2)]
        assert kernel.terms(i) == [(j, k, entry(i, j, k)) for j in range(n1)
                                   for k in range(n2) if entry(i, j, k)]
        for j in range(n1):
            dense = [entry(i, j, k) for k in range(n2)]
            assert kernel.dense_row(i, j) == dense
            assert kernel.row(i, j) == [(k, c) for k, c in enumerate(dense)
                                        if c]
