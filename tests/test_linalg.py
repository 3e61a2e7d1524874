"""Exact linear algebra kernel: rank/kernel/solve and the sparse
structure-tensor kernel Bilinear.

The oracle of the elimination is the one Gauss–Jordan of reference.py:
rank, kernel, solve and inverse must agree with it exactly, and the
echelon basis must have its span and pivot columns.  Solve and kernel are
also checked by multiplying back.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopflab.fields import QQ, PrimeField
from hopflab.linalg import (Bilinear, DimensionError, Matrix, Tensor,
                            are_inverse, kernel_basis, mat_inverse, mat_mul,
                            rank, row_space_echelon, solve, sparse_kernel,
                            sparse_rank, sparse_solve, sparse_sum)
from hopflab.catalog import sweedler_h4, sigma_t
from hopflab.twist import are_conv_inverse
import reference as ref
from reference import changes, columns_as_rows, dense_row


def mat_vec(m, x):
    """m·x for a column vector x (list of length m.cols)."""
    zero = m.field.zero
    out = []
    for row in m.data:
        s = zero
        for c, v in enumerate(x):
            if v and row[c]:
                s = s + row[c] * v
        out.append(s)
    return out


FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(5)],
                                 ids=["Q", "F5"])


def random_matrix(rng, field, rows, cols, density):
    """Entries ±1..3 and, over ℚ, halves and thirds, at the given density;
    over ℚ some zeros are Fraction(0) rather than 0."""
    def entry():
        if rng.random() >= density:
            return Fraction(0) if field is QQ and rng.random() < 0.2 \
                else field.zero
        return field.ratio(rng.choice([-3, -2, -1, 1, 2, 3]),
                           rng.choice([1, 1, 1, 2, 3]))
    return Matrix(field, rows, cols,
                  [[entry() for _ in range(cols)] for _ in range(rows)])


def elimination_inputs(field, seed):
    """No rows, all-zero rows, then seeded square, wide, tall sparse and
    rank-deficient matrices (products through a narrow middle, with zero,
    repeated and proportional rows mixed in)."""
    rng = random.Random(seed)
    yield Matrix(field, 0, 3, [])
    yield Matrix.zeros(field, 3, 4)
    yield Matrix(field, 4, 3, [[field.zero] * 3, [field.one] * 3,
                               [field.zero] * 3, [field.one] * 3])
    for i in range(80):
        kind = i % 4
        if kind == 0:
            n = rng.randint(1, 6)
            yield random_matrix(rng, field, n, n, rng.choice([0.3, 0.7, 1]))
        elif kind == 1:
            yield random_matrix(rng, field, rng.randint(1, 4),
                                rng.randint(5, 9), 0.5)
        elif kind == 2:
            yield random_matrix(rng, field, rng.randint(10, 30),
                                rng.randint(2, 8), 0.12)
        else:
            r, c = rng.randint(2, 7), rng.randint(2, 7)
            k = rng.randint(1, min(r, c) - 1)
            m = mat_mul(random_matrix(rng, field, r, k, 0.6),
                        random_matrix(rng, field, k, c, 0.6))
            rows = m.data + [[field.zero] * c, list(m.data[0]),
                             [x * field.from_int(-2) for x in m.data[-1]]]
            rng.shuffle(rows)
            yield Matrix(field, len(rows), c, rows)


def sparse_rows(rng, m):
    """m's rows as dicts, with some explicit zero coefficients kept."""
    return [{c: x for c, x in enumerate(row) if x or rng.random() < 0.3}
            for row in m.data]


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
        assert ref.rank(Matrix.from_rows(QQ, [m.data[i] for i in order])) \
            == r
    assert r == 2  # two distinct nonzero row patterns


@FIELDS
def test_sparse_rank_equals_rank(field):
    """sparse_rank on dict rows equals the dense reference rank of the same
    rows, for the reference cases and for sparse random rows mixed with
    zero, duplicate and proportional rows; rows may carry explicit zero
    coefficients and are not changed.  With a cap it is min(cap, rank)."""
    rng = random.Random(9)
    assert sparse_rank(field, []) == 0
    assert sparse_rank(field, [{}, {3: field.zero}]) == 0
    assert sparse_rank(field, [{}, {3: field.zero}], 0) == 0

    def check(m):
        sparse = sparse_rows(rng, m)
        before = [dict(row) for row in sparse]
        full = ref.rank(m)
        assert sparse_rank(field, sparse) == full
        for cap in range(full + 2):
            assert sparse_rank(field, sparse, cap) == min(cap, full)
        assert sparse == before

    for m in elimination_inputs(field, 9):
        check(m)
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
        check(Matrix(field, len(dense), cols, dense))


@FIELDS
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_elimination_matches_dense_reference(field, seed):
    """rank, kernel_basis, solve and mat_inverse equal the dense reference
    exactly, on consistent and inconsistent right-hand sides; the inputs
    are not changed."""
    rng = random.Random(seed)
    inconsistent = 0
    for m in elimination_inputs(field, seed):
        before = [row[:] for row in m.data]
        assert rank(m) == ref.rank(m)
        assert kernel_basis(m) == ref.kernel_basis(m)
        x = random_matrix(rng, field, m.cols, rng.randint(1, 3), 0.6)
        consistent = mat_mul(m, x)
        arbitrary = random_matrix(rng, field, m.rows, 2, 0.6)
        assert solve(m, consistent) == ref.solve(m, consistent)
        assert solve(m, consistent) is not None
        assert solve(m, arbitrary) == ref.solve(m, arbitrary)
        inconsistent += solve(m, arbitrary) is None
        if m.rows == m.cols:
            assert mat_inverse(m) == ref.inverse(m)
        assert m.data == before
    assert inconsistent >= 20


@FIELDS
def test_row_space_echelon_matches_dense_reference(field):
    """The echelon basis spans the rows' span, has the dense reference's
    pivot columns, and each row leads at its pivot column."""
    for m in elimination_inputs(field, 5):
        vectors = [row[:] for row in m.data]
        ech = row_space_echelon(field, vectors, m.cols)
        assert vectors == m.data
        leads = [next(c for c, x in enumerate(r) if x) for r in ech]
        assert leads == ref.pivot_columns(m)
        both = Matrix(field, len(ech) + m.rows, m.cols, ech + vectors)
        assert ref.rank(both) == ref.rank(m) == len(ech)


# -- the dict-row kernel and solve ------------------------------------------

@st.composite
def systems(draw):
    """(field, M, [B, ...]) over ℚ or F₅: M of kind random, zero, full rank
    (a shuffled echelon block) or random with zero columns, and right-hand
    sides M·X (solvable) and drawn ones (often not)."""
    field = draw(st.sampled_from([QQ, PrimeField(5)]))
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["random", "zero", "full_rank",
                                 "zero_columns"]))
    nums = st.integers(-3, 3)
    dens = st.integers(1, 3) if field is QQ else st.just(1)

    def entry(nonzero=False):
        n = draw(nums.filter(bool) if nonzero else nums)
        return field.ratio(n, draw(dens))

    data = [[field.zero] * cols for _ in range(rows)]
    if kind in ("random", "zero_columns"):
        data = [[entry() for _ in range(cols)] for _ in range(rows)]
    if kind == "zero_columns" and cols:
        for c in draw(st.sets(st.integers(0, cols - 1), min_size=1)):
            for row in data:
                row[c] = field.zero
    if kind == "full_rank":
        for i in range(min(rows, cols)):
            data[i][i] = entry(nonzero=True)
            for c in range(i + 1, cols):
                data[i][c] = entry()
        data = draw(st.permutations(data))
    m = Matrix(field, rows, cols, [list(row) for row in data])
    k = draw(st.integers(1, 3))
    x = Matrix(field, cols, k, [[entry() for _ in range(k)]
                                for _ in range(cols)])
    drawn = Matrix(field, rows, k, [[entry() for _ in range(k)]
                                    for _ in range(rows)])
    return field, m, [mat_mul(m, x), drawn]


def dict_rows(rng, data):
    """data's rows as dicts, with some explicit zeros kept, as items()."""
    return [{c: x for c, x in enumerate(row) if x or rng.random() < 0.3}
            .items() for row in data]


@settings(max_examples=150, deadline=None)
@given(systems(), st.integers(0, 10 ** 6))
def test_dict_row_kernel_and_solve_match_matrix_reference(system, seed):
    """sparse_kernel and sparse_solve on dict rows give exactly what the
    Matrix kernel_basis and solve gave: the same kernel vectors in the
    same order, the same particular solution (free variables 0) and None
    where it was None; kernel_basis and solve, now read off them, still
    equal those references."""
    field, m, rhs = system
    rng = random.Random(seed)
    want = ref.kernel_basis(m)
    got = sparse_kernel(field, dict_rows(rng, m.data), m.cols)
    assert got == columns_as_rows(want)
    for vec in got:         # 1 at its free column, the last index
        assert vec[-1][1] == field.one
        assert [i for i, _ in vec] == sorted({i for i, _ in vec})
    assert kernel_basis(m) == want
    for b in rhs:
        want = ref.solve(m, b)
        got = sparse_solve(field, dict_rows(rng, [
            mr + br for mr, br in zip(m.data, b.data)]), m.cols, b.cols)
        if want is None:
            assert got is None
        else:
            assert got == columns_as_rows(want)
        assert solve(m, b) == want
    assert ref.solve(m, rhs[0]) is not None


@FIELDS
def test_dict_row_solve_unsolvable_and_edge_shapes(field):
    """An unsolvable right-hand side gives None; the zero matrix has the
    identity kernel, and no rows or no columns are handled."""
    one, zero = field.one, field.zero
    two = field.from_int(2)
    # x₀ + x₁ = 1 and 2x₀ + 2x₁ = 1: inconsistent in any characteristic ≠ 2
    rows = [{0: one, 1: one, 2: one}.items(), {0: two, 1: two, 2: one}.items()]
    assert sparse_solve(field, rows, 2, 1) is None
    assert sparse_solve(field, [{0: zero, 1: one}.items()], 1, 1) is None
    assert sparse_kernel(field, [{}.items()] * 3, 4) == [
        [(c, one)] for c in range(4)]
    assert sparse_kernel(field, [], 2) == [[(0, one)], [(1, one)]]
    assert sparse_kernel(field, [{0: one}.items()], 1) == []
    assert sparse_kernel(field, [{}.items()], 0) == []
    assert sparse_solve(field, [], 2, 3) == [[], [], []]
    # full rank with a zero column: x₁ is free and stays 0
    # 2x₀ + x₂ = (1, 0) and x₂ = (2, 1), the right-hand sides from column 3
    rows = [{0: two, 2: one, 3: one}.items(),
            {2: one, 3: two, 4: one}.items()]
    half = field.div(one, two)
    assert sparse_solve(field, rows, 3, 2) == [[(0, -half), (2, two)],
                                               [(0, -half), (2, one)]]
    assert sparse_kernel(field, [{0: two, 2: one}.items()], 3) == [
        [(1, one)], [(0, field.div(-one, two)), (2, one)]]


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
    field = rng.choice([PrimeField(7), QQ])

    def rand_vec(n):
        return [field.ratio(*rng.choice([(0, 1), (0, 1), (1, 1), (-2, 1),
                                         (3, 1), (1, 2), (-2, 3)]))
                for _ in range(n)]

    t = Tensor(field, (n0, n1, n2), rand_vec(n0 * n1 * n2))
    kernel = Bilinear(t)
    scale = kernel.lifted_rows()[1]

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
            assert dense_row(t, i, j) == dense
            assert kernel.row(i, j) == [(k, c) for k, c in enumerate(dense)
                                        if c]
            lifted = kernel.lifted_rows()[0][i][j]
            assert [(k, field.reduce(c, scale)) for k, c in lifted] == \
                kernel.row(i, j)
            assert all(type(c) is int for _, c in lifted)
        terms = kernel.terms(i)
        assert [(j, k, field.reduce(c, scale)) for j, k, c in
                kernel.lifted_terms()[0][i]] == terms
        assert {key: field.reduce(c, scale) for key, c in
                kernel.flat_tables()[0][i].items()} == \
            {j * n2 + k: c for j, k, c in terms}
    # the scale is the entries' common denominator: 1 over F_p, and over ℚ
    # the lifted tables of integral data are the sparse tables themselves
    assert kernel.lifted_terms()[1] == kernel.flat_tables()[1] == scale
    dens = {Fraction(x).denominator for x in t.data}
    assert scale == (1 if field.kind == "Fp" else math.lcm(*dens))
    if scale == 1 and field.kind == "Q" and n0:
        assert kernel.lifted_rows()[0][0] is kernel.rows(0)


def test_tensor_keeps_one_bilinear_and_frees_without_the_collector():
    """A Tensor's tables are one Bilinear, built on first use; it holds no
    reference back to the tensor, so with the cyclic collector off a
    tensor whose lifted tables were read is freed by del alone."""
    import gc
    import weakref
    field = PrimeField(5)
    t = Tensor(field, (2, 2, 2), [field.from_int(x)
                                  for x in (1, 0, 2, 0, 0, 3, 4, 1)])
    kernel = t.bilinear()
    assert t.bilinear() is kernel
    kernel.lifted_rows(), kernel.lifted_terms(), kernel.flat_tables()
    assert kernel.row(1, 0) == [(1, field.from_int(3))]
    gone = weakref.ref(t)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del t
        assert gone() is None
    finally:
        if enabled:
            gc.enable()
    assert kernel.terms(0) == [(0, 0, field.one), (1, 0, field.from_int(2))]


# -- tables shared per content ---------------------------------------------

def _tables_of(kernel):
    """Every table of a Bilinear, each read once."""
    return (kernel.rows(0), kernel.terms(0), kernel.lifted_rows(),
            kernel.lifted_terms(), kernel.flat_tables())


def _f5_tensor(field, values=(1, 0, 2, 0, 0, 3, 4, 1)):
    return Tensor(field, (2, 2, 2), [field.from_int(x) for x in values])


@FIELDS
def test_equal_live_tensors_read_the_same_tables(field):
    """Two live tensors with equal shape and data over one field object
    read the same table lists, whichever of them reads which table first;
    a tensor with other data, or another shape, reads its own."""
    a, b = _f5_tensor(field), _f5_tensor(field)
    ka, kb = a.bilinear(), b.bilinear()
    assert ka is not kb
    ka.rows(0), kb.lifted_rows()            # each builds a first table
    for x, y in zip(_tables_of(ka), _tables_of(kb)):
        assert x is y
    other = _f5_tensor(field, (1, 0, 2, 0, 0, 3, 4, 2)).bilinear()
    reshaped = Tensor(field, (1, 4, 2), list(a.data)).bilinear()
    for kernel in (other, reshaped):
        assert all(x is not y for x, y in zip(_tables_of(kernel),
                                               _tables_of(ka)))
    assert other.row(1, 1) == [(0, field.from_int(4)), (1, field.from_int(2))]


def test_tables_are_not_shared_across_field_objects():
    """Fields compare by spec, but sharing is per field object: tensors over
    two PrimeField(5) objects build their own tables, each with its own
    field's elements."""
    f1, f2 = PrimeField(5), PrimeField(5)
    assert f1 == f2
    k1, k2 = _f5_tensor(f1).bilinear(), _f5_tensor(f2).bilinear()
    for x, y in zip(_tables_of(k1), _tables_of(k2)):
        assert x == y and x is not y
    assert type(k2.row(0, 0)[0][1]) is type(f2.one)
    assert type(k1.row(0, 0)[0][1]) is not type(f2.one)


@FIELDS
def test_data_edited_before_the_first_table_is_what_is_read(field):
    """A structure on a tensor takes its Bilinear at once but reads no table
    until asked: data edited in place before then is what it reads, and
    whether it shares is decided on the edited data."""
    a = _f5_tensor(field)
    ka = a.bilinear()
    ka.rows(0)
    b = _f5_tensor(field)                   # equal to a until edited
    kb = b.bilinear()
    b.data[0] = field.from_int(2)
    assert kb.row(0, 0) == [(0, field.from_int(2))]
    assert kb.rows(0) is not ka.rows(0)
    c = _f5_tensor(field, (2, 0, 2, 0, 0, 3, 4, 1))
    kc = c.bilinear()
    c.data[0] = field.one                   # now equal to a
    assert kc.rows(0) is ka.rows(0)


def test_registry_empties_with_the_last_tensor_without_the_collector():
    """With the cyclic collector off, the registry entry of a content lives
    as long as some tensor of that content whose tables were read, and no
    longer; a later tensor of that content then builds its tables anew."""
    import gc
    from hopflab import linalg
    field = PrimeField(5)

    def entries():
        return [key for key in linalg._TABLES if key[0] == id(field)]

    enabled = gc.isenabled()
    gc.disable()
    try:
        a, b = _f5_tensor(field), _f5_tensor(field)
        rows = b.bilinear().rows(0)
        a.bilinear().lifted_terms()
        assert len(entries()) == 1
        del b
        assert len(entries()) == 1 and a.bilinear().rows(0) is rows
        del a
        assert entries() == []
        c = _f5_tensor(field)
        assert c.bilinear().rows(0) == rows and c.bilinear().rows(0) is not rows
        del c
        assert entries() == []
    finally:
        if enabled:
            gc.enable()


def test_no_tensor_or_table_outlives_a_suite_pass_without_the_collector():
    """A run_suite call frees every Tensor it built, and every registry
    entry, by reference counting alone: no table crosses passes."""
    import gc
    from hopflab import linalg
    from hopflab.suite import run_suite

    def tensors():
        return sum(1 for o in gc.get_objects() if type(o) is Tensor)

    field = PrimeField(5)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before, keys = tensors(), set(linalg._TABLES)
        overall, details = run_suite(field)
        assert overall.ok
        del overall, details
        assert tensors() == before
        assert set(linalg._TABLES) <= keys
    finally:
        if enabled:
            gc.enable()


@FIELDS
def test_dual_cocycle_product_inverse_is_a_convolution_inverse(field):
    """θ_t·θ_s gets θ_s⁻¹·θ_t⁻¹ as its inverse, unsolved: it is the
    convolution inverse on H* for every default (t, s)."""
    from hopflab.catalog import theta_t
    from hopflab.hopf import dual_hopf
    from hopflab.suite import T_DEFAULT
    from hopflab.twist import dual_cocycle_product
    h4 = sweedler_h4(field)
    thetas = {t: theta_t(h4, t) for t in T_DEFAULT}
    for t in T_DEFAULT:
        for s in T_DEFAULT:
            d = dual_cocycle_product(thetas[t], thetas[s])
            assert are_conv_inverse(dual_hopf(h4), d.theta, d.theta_inv)


# -- leg permutations, sparse sums and inverse pairs --------------------------

ORDERS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
       st.sampled_from(["Q", "F5"]), st.integers(0, 10 ** 6))
def test_permuted_matches_index_formula(n0, n1, n2, fkind, seed):
    """Axis a of t.permuted(order) is axis order[a] of t, for all six
    orders, and permuting by the inverse order gives t back."""
    rng = random.Random(seed)
    field = QQ if fkind == "Q" else PrimeField(5)
    shape = (n0, n1, n2)
    t = Tensor(field, shape, [field.ratio(rng.randint(-3, 3), rng.choice(
        [1, 2, 3])) for _ in range(n0 * n1 * n2)])
    for order in ORDERS:
        out = t.permuted(order)
        assert out.shape == tuple(shape[a] for a in order)
        for x in range(out.shape[0]):
            for y in range(out.shape[1]):
                for z in range(out.shape[2]):
                    idx = [0, 0, 0]
                    for a, v in zip(order, (x, y, z)):
                        idx[a] = v
                    assert out.data[(x * out.shape[1] + y) * out.shape[2]
                                    + z] == t.data[(idx[0] * n1 + idx[1])
                                                   * n2 + idx[2]]
        inverse = tuple(order.index(a) for a in range(3))
        assert out.permuted(inverse) == t


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(-2, 2)),
                max_size=20), st.sampled_from(["Q", "F5"]))
def test_sparse_sum_equals_dense_accumulation(pairs, fkind):
    field = QQ if fkind == "Q" else PrimeField(5)
    pairs = [(k, field.from_int(w)) for k, w in pairs]
    dense = [field.zero] * 7
    for k, w in pairs:
        dense[k] = dense[k] + w
    out = sparse_sum(pairs)
    assert out == {k: w for k, w in enumerate(dense) if w}
    assert all(out.values())
    # keys keep the order in which they were first given
    first = list(dict.fromkeys(k for k, _ in pairs))
    assert list(out) == [k for k in first if k in out]


@FIELDS
def test_inverse_pairs_fail_after_one_entry_change(field):
    """are_inverse on (S, S⁻¹) of H₄ and are_conv_inverse on (σ₁, σ₁⁻¹)
    hold, and fail after every ±1 change of one entry of S⁻¹ or σ₁⁻¹, and
    are_inverse fails on a one-sided inverse."""
    h4 = sweedler_h4(field)
    s1 = sigma_t(h4, 1)
    assert are_inverse(h4.antipode, h4.antipode_inv)
    assert are_conv_inverse(h4, s1.sigma, s1.sigma_inv)
    for bad in changes(h4.antipode_inv):
        assert not are_inverse(h4.antipode, bad)
    # a one-sided inverse is not enough: ab = 1 but ba ≠ 1
    row = Matrix(field, 1, 2, [[field.one, field.zero]])
    assert not are_inverse(row, row.transpose())
    for bad in changes(s1.sigma_inv):
        assert not are_conv_inverse(h4, s1.sigma, bad)
