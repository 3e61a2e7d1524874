"""The loops that sum lifted values (fields.Field.lift) against the
field-element loops they replaced: σ̲'s two displayed forms, the
convolutions, the M⊗N term kernel and the Miyashita-Ulbrich action.

Each reference below is the replaced loop as it was written on field
elements; the lifted loop must give the same object, or raise the same
error, on every ±1 one-entry change of its input, over ℚ and F₅.  A guard
counts F_p element operations, so that field arithmetic does not come back
into these loops.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopflab import fields
from hopflab.fields import PrimeField, RESIDUE_TABLE_BOUND, field_from_spec
from hopflab.galois import (_comodule_galois, _equalizer, mu_action_and_pi,
                            unit_object)
from hopflab.linalg import Matrix, Tensor, kernel_basis, solve
from hopflab.report import VerificationError, require_agree
from hopflab.twist import (TwoCocycle, conv_operator2, convolve2, deform,
                           eval2)
from hopflab.yd import (YdAlgebra, YdModule, _braid_terms, _kron, _matrix,
                        eta, sigma_algebra, sigma_module, yd_tensor)
from hopflab.catalog import (end_regular, regular_comodule_module, r_t,
                             sigma_t, sweedler_h4)
from conftest import dense_row
from test_convolution_routes import dense_eval2
from test_hopf import one_entry_changes, one_matrix_changes


# -- the replaced field-element loops ------------------------------------------

def reference_sigma_module(s, mod):
    """σ̲(M) with both displayed forms summed on field elements, the
    pairing σ(h₄m₁S⁻¹(h₂) ⊗ h₁) read through dense_eval2, and the per-call
    live terms: sigma_module before its per-cocycle lifted tables."""
    h = mod.host
    n, m, f = h.dim, mod.dim, h.field
    sig, inv = s.sigma, s.sigma_inv
    first = [any(row[a] for row in sig.data) for a in range(n)]
    last = [any(row) for row in inv.data]

    def live_terms(i, k):
        return [(idx, w) for idx, w in h.copower(i, k)
                if first[idx[0]] and last[idx[-1]]]

    def twisted(i, p):
        acc = [f.zero] * m
        for (a, b, c3), w in live_terms(i, 3):
            for q0, k0, c0 in mod.coact.terms(p):
                s2 = inv.data[c3][k0]
                if not s2:
                    continue
                for q1, x in mod.act.row(b, q0):
                    w2 = w * c0 * s2 * x
                    for q2, k2, c2 in mod.coact.terms(q1):
                        s1 = sig.data[k2][a]
                        if s1:
                            acc[q2] = acc[q2] + w2 * c2 * s1
        return acc

    def twisted_expanded(i, p):
        acc = [f.zero] * m
        for (a, b, c3, d, e), w in live_terms(i, 5):
            for q0, k0, c0 in mod.coact.terms(p):
                for q1, k1, c1 in mod.coact.terms(q0):
                    s2 = inv.data[e][k0]
                    if not s2:
                        continue
                    u = h.mul_vec(dense_row(h.mult, d, k1),
                                  h.antipode_inv.data[b])
                    s1 = dense_eval2(sig, u, a)
                    if not s1:
                        continue
                    w2 = w * c0 * c1 * s1 * s2
                    for q, x in mod.act.row(c3, q1):
                        acc[q] = acc[q] + w2 * x
        return acc

    one = [[twisted(i, p) for p in range(m)] for i in range(n)]
    two = [[twisted_expanded(i, p) for p in range(m)] for i in range(n)]
    require_agree("twisted-action", (range(n), range(m), range(m)),
                  lambda i, j, k: (one[i][j][k], two[i][j][k]))
    return YdModule(deform(s), m, Tensor.from_rows(f, (n, m, m), one),
                    Tensor(f, (m, m, n), list(mod.coaction.data)))


def reference_convolve2(h, f, g):
    out = Matrix.zeros(h.field, h.dim, h.dim)
    for x in range(h.dim):
        for y in range(h.dim):
            acc = h.field.zero
            for a, b, ca in h.delta.terms(x):
                for c, d, cd in h.delta.terms(y):
                    fv = f.data[a][c]
                    if fv:
                        gv = g.data[b][d]
                        if gv:
                            acc = acc + ca * cd * fv * gv
            out.data[x][y] = acc
    return out


def reference_conv_operator2(h, f):
    n = h.dim
    op = Matrix.zeros(h.field, n * n, n * n)
    for x in range(n):
        for y in range(n):
            row = op.data[x * n + y]
            for a, b, ca in h.delta.terms(x):
                for c, d, cd in h.delta.terms(y):
                    fv = f.data[a][c]
                    if fv:
                        row[b * n + d] = row[b * n + d] + ca * cd * fv
    return op


def reference_matrix(field, terms, da, db):
    mat = Matrix.zeros(field, len(terms), da * db)
    for row, ts in zip(mat.data, terms):
        for a, b, c in ts:
            row[a * db + b] = row[a * db + b] + c
    return mat


def reference_paired(ma, mb, f):
    """m⊗n ↦ Σ m₀⊗n₀ f(n₁⊗m₁) on field elements, f read through eval2."""
    return reference_matrix(ma.host.field, [
        [(p0, q0, c1 * c2 * eval2(f, k2, k1))
         for p0, k1, c1 in ma.coact.terms(p) for q0, k2, c2 in mb.coact.terms(q)
         if eval2(f, k2, k1)]
        for p in range(ma.dim) for q in range(mb.dim)], ma.dim, mb.dim)


def reference_braid(ma, mb):
    return reference_matrix(ma.host.field, [
        [(q0, p1, c * x) for q0, k, c in mb.coact.terms(q)
         for p1, x in ma.act.row(k, p)]
        for p in range(ma.dim) for q in range(mb.dim)], mb.dim, ma.dim)


def reference_kron(fa, fb):
    ra = [[(a, x) for a, x in enumerate(row) if x] for row in fa.data]
    rb = [[(b, y) for b, y in enumerate(row) if y] for row in fb.data]
    return reference_matrix(fa.field, [
        [(a, b, x * y) for a, x in ta for b, y in tb]
        for ta in ra for tb in rb], fa.cols, fb.cols)


def reference_yd_tensor(ma, mb):
    """M⊗N's action Δ(e_i)·(m⊗n) and reversed-product coaction, summed on
    field elements."""
    h = ma.host
    f, n, db = h.field, h.dim, mb.dim
    dim = ma.dim * db
    action = []
    for i in range(n):
        action += reference_matrix(f, [
            [(p1, q1, c * y * z) for a, b, c in h.delta.terms(i)
             for p1, y in ma.act.row(a, p) for q1, z in mb.act.row(b, q)]
            for p in range(ma.dim) for q in range(db)], ma.dim, db).data
    coaction = []
    for src in range(dim):
        p, q = divmod(src, db)
        rows = [[f.zero] * n for _ in range(dim)]
        for p0, k1, c1 in ma.coact.terms(p):
            for q0, k2, c2 in mb.coact.terms(q):
                row = rows[p0 * db + q0]
                for k, cm in h.mul.row(k2, k1):
                    row[k] = row[k] + c1 * c2 * cm
        coaction += rows
    return YdModule(h, dim,
                    Tensor(f, (n, dim, dim), [x for r in action for x in r]),
                    Tensor(f, (dim, dim, n), [x for r in coaction for x in r]))


def reference_mu_action(alg):
    """π(A)'s Miyashita-Ulbrich action as _mu_action_and_pi built it on
    field elements, from the dense columns of ker βᵀ and of the
    β-preimages of 1⊗e_k and dense v_p·a·v_r tables.  Returns the witness
    of mu_action_well_defined and the action's coordinate rows (None for
    a vector outside π(A)), or the VerificationError raised."""
    h = alg.host
    f, n, m = h.field, h.dim, alg.dim
    gal, sub0, beta_rows = _comodule_galois(alg)
    if not gal.ok:
        return "not Galois"
    mrow = alg.mul.row

    def times(p, left):
        return [(t, j, c * w) for j, x in enumerate(sub0.rows) for k, c in x
                for t, w in (mrow(p, k) if left else mrow(k, p))]

    pi_sub = _equalizer(f, sub0.dim, [times(p, True) for p in range(m)],
                        [times(p, False) for p in range(m)])
    beta = Matrix(f, m * n, m * m, [[row.get(c, f.zero) for row in beta_rows]
                                    for c in range(m * n)])
    rhs = Matrix.zeros(f, m * n, n)
    for k in range(n):
        for y, u in enumerate(alg.unit):
            if u:
                rhs.data[y * n + k][k] = u
    part = solve(beta, rhs)
    if part is None:
        return "no preimages"
    ker = kernel_basis(beta)

    def dense(terms):
        acc = [f.zero] * m
        for c, t in terms:
            for k, w in t:
                acc[k] = acc[k] + c * w
        return acc

    def triple_table(avs):
        out = []
        for p in range(m):
            vas = [(t, c) for t, c in enumerate(
                dense((c, mrow(p, j)) for j, c in avs)) if c]
            out.append([dense((c, mrow(t, r)) for t, c in vas)
                        for r in range(m)])
        return out

    tables = [triple_table(a) for a in pi_sub.rows]

    def act_by(coeffs, a_idx):
        acc = [f.zero] * m
        tab = tables[a_idx]
        for src, v in enumerate(coeffs):
            if v:
                p, r = divmod(src, m)
                for t, w in enumerate(tab[p][r]):
                    if w:
                        acc[t] = acc[t] + v * w
        return acc

    zero = [f.zero] * m
    witness = next(((j, a) for j in range(ker.cols)
                    for a in range(pi_sub.dim)
                    if act_by(ker.column(j), a) != zero), None)
    acts = [pi_sub.coordinates(act_by(part.column(k), a))
            for k in range(n) for a in range(pi_sub.dim)]
    return witness, acts


# -- comparisons on one-entry changes ---------------------------------------

def outcome(build, *args):
    """build(*args), or the message of the VerificationError it raises."""
    try:
        return build(*args)
    except VerificationError as exc:
        return str(exc)


def same_module(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.structures_equal(b)


def module_changes(mod):
    """mod, then every copy with one entry of its action or of its
    coaction raised or lowered by 1."""
    yield mod
    for t in one_entry_changes(mod.action):
        yield YdModule(mod.host, mod.dim, t, mod.coaction)
    for t in one_entry_changes(mod.coaction):
        yield YdModule(mod.host, mod.dim, mod.action, t)


@pytest.fixture(scope="module", params=["Q", "Fp:5"])
def host(request):
    h = sweedler_h4(field_from_spec(request.param), verify=False)
    return h, sigma_t(h, 1), regular_comodule_module(r_t(h, 1))


@pytest.mark.parametrize("which", ["regular", "I"])
def test_sigma_images_match_the_field_element_forms(host, which):
    """σ̲₁ of the regular module and of I, and of every one-entry change of
    their tensors: the same module, or the same disagreement witness."""
    h, s, reg = host
    mod = reg if which == "regular" else unit_object(h).module
    raised = 0
    for bad in module_changes(mod):
        got = outcome(sigma_module, s, bad)
        assert same_module(got, outcome(reference_sigma_module, s, bad))
        raised += isinstance(got, str)
    assert raised


def test_sigma_of_regular_tensor_regular_matches(host):
    """σ̲₁(M⊗M) for M the regular module and for every one-entry change of
    M's coaction, so each change reaches M⊗M through both factors."""
    h, s, reg = host
    raised = 0
    for t in [reg.coaction] + list(one_entry_changes(reg.coaction)):
        m2 = YdModule(h, 4, reg.action, t)
        tens = yd_tensor(m2, m2)
        assert same_module(tens, reference_yd_tensor(m2, m2))
        got = outcome(sigma_module, s, tens)
        assert same_module(got, outcome(reference_sigma_module, s, tens))
        raised += isinstance(got, str)
    assert raised


def test_convolutions_match(host):
    """σ₁ * σ₁⁻¹ and the operator X ↦ σ₁ * X, for σ₁ and every one-entry
    change of it."""
    h, s, _ = host
    for f in [s.sigma] + list(one_matrix_changes(s.sigma)):
        assert convolve2(h, f, s.sigma_inv) == reference_convolve2(
            h, f, s.sigma_inv)
        assert convolve2(h, s.sigma_inv, f) == reference_convolve2(
            h, s.sigma_inv, f)
        assert conv_operator2(h, f) == reference_conv_operator2(h, f)


def test_term_kernel_matrices_match(host):
    """The matrices of η and ξ and of Φ, for the regular module M and every
    one-entry change of M's tensors, and σ₁ ⊗ σ₁⁻¹ as a Kronecker product
    for every one-entry change of σ₁."""
    h, s, reg = host
    uo = unit_object(h).module
    for bad in module_changes(reg):
        try:
            got = eta(s, bad, uo)
        except VerificationError:
            got = None
        want = (reference_paired(bad, uo, s.sigma_inv),
                reference_paired(bad, uo, s.sigma))
        assert got is None or got == want
        assert _matrix(h.field, _braid_terms(bad, uo), uo.dim, bad.dim) == \
            reference_braid(bad, uo)
        assert _matrix(h.field, _braid_terms(uo, bad), bad.dim, uo.dim) == \
            reference_braid(uo, bad)
    for bad in [s.sigma] + list(one_matrix_changes(s.sigma)):
        assert _kron(bad, s.sigma_inv) == reference_kron(bad, s.sigma_inv)
        assert _kron(s.sigma_inv, bad) == reference_kron(s.sigma_inv, bad)


def test_mu_action_matches_the_dense_loop(host):
    """π(End(M))'s action, for M the regular module, and for every ±1
    change of one entry of End(M)'s unit, which moves the β-preimages of
    1⊗e_k: the same mu_action_well_defined witness and the same action, or
    the same refusal."""
    h, _, reg = host
    end = end_regular(r_t(h, 1))
    changes = [list(end.unit)] + [
        end.unit[:i] + [end.unit[i] + step] + end.unit[i + 1:]
        for i in range(end.dim) for step in (h.field.one, -h.field.one)]
    built = 0
    for unit in changes:
        alg = YdAlgebra(end.module, end.mult, unit)
        want = reference_mu_action(alg)
        try:
            pi, rep = mu_action_and_pi(alg)
        except VerificationError as exc:
            refused = {"β-preimages of 1⊗h do not exist": "no preimages",
                       "MU action leaves the centralizer": "outside"}
            why = refused.get(str(exc), "later")
            assert why == ("no preimages" if want == "no preimages" else
                           "outside" if None in want[1] else "later")
            continue
        built += 1
        well = [c.witness for c in rep.checks
                if c.name == "mu_action_well_defined"]
        assert well == [want[0]]
        acts = [list(pi.module.action.data[(k * pi.dim + a) * pi.dim:
                                    (k * pi.dim + a + 1) * pi.dim])
                for k in range(h.dim) for a in range(pi.dim)]
        assert acts == want[1]
    assert built


# -- int-first ℚ constructions -------------------------------------------------

def integral_fractions(values):
    return [x for x in values
            if isinstance(x, Fraction) and x.denominator == 1]


def test_sigma_images_hold_no_integral_fraction():
    """σ̲₁'s action on End(regular) and on regular⊗regular over ℚ is summed
    through σ₁'s halves, but every integral entry is an int."""
    h = sweedler_h4(fields.QQ, verify=False)
    s = sigma_t(h, 1)
    reg = regular_comodule_module(r_t(h, 1))
    end = sigma_algebra(s, end_regular(r_t(h, 1)))
    tens = sigma_module(s, yd_tensor(reg, reg))
    assert integral_fractions(end.module.action.data) == []
    assert integral_fractions(tens.action.data) == []


# -- reduce_vec and the large-prime path ----------------------------------------

LARGE = 4099
assert LARGE > RESIDUE_TABLE_BOUND


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["Q", "Fp:5", "Fp:%d" % LARGE]),
       st.lists(st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6),
                                   st.integers(-10 ** 6, 10 ** 6),
                                   st.integers(1, 4)), max_size=5),
                max_size=6))
def test_reduce_vec_of_lifted_sums_is_the_field_sum(spec, coords):
    """reduce_vec of Σ lift(x)·lift(y) per coordinate equals the sum of the
    products taken on field elements, coordinate by coordinate."""
    f = field_from_spec(spec)
    pairs = [[(f.ratio(a, c), f.from_int(b)) for a, b, c in terms]
             for terms in coords]
    lifted = [sum(f.lift(x) * f.lift(y) for x, y in terms)
              for terms in pairs]
    field_sums = []
    for terms in pairs:
        acc = f.zero
        for x, y in terms:
            acc = acc + x * y
        field_sums.append(acc)
    got = f.reduce_vec(lifted)
    assert got == field_sums
    if f.kind == "Fp":
        assert all(type(x) is f.elem for x in got)
    else:
        assert integral_fractions(got) == []


def test_sigma_image_over_a_large_prime_matches():
    """σ̲₁ of the regular module over F_4099, whose elements are built on
    lookup, equals the field-element forms."""
    h = sweedler_h4(PrimeField(LARGE), verify=False)
    s = sigma_t(h, 1)
    reg = regular_comodule_module(r_t(h, 1))
    got = sigma_module(s, reg)
    assert got.structures_equal(reference_sigma_module(s, reg))
    assert all(type(x) is h.field.elem for x in got.action.data)


# -- the guard ----------------------------------------------------------------

def test_repeated_constructions_do_no_field_arithmetic(monkeypatch):
    """Once a cocycle and the modules have been used, a second sigma_module,
    convolve2, yd_tensor and eta over F₅ sum only plain ints: no
    FpElem.__mul__ or __add__ runs."""
    h = sweedler_h4(PrimeField(5), verify=False)
    s = sigma_t(h, 1)
    reg = regular_comodule_module(r_t(h, 1))
    uo = unit_object(h).module
    runs = [lambda: sigma_module(s, reg),
            lambda: convolve2(h, s.sigma, s.sigma_inv),
            lambda: yd_tensor(reg, uo),
            lambda: eta(s, reg, uo)]
    for run in runs:
        run()
    calls = []
    elem = fields.FpElem
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        inner = elem.__dict__[name]

        def counted(a, b, inner=inner, name=name):
            calls.append(name)
            return inner(a, b)

        monkeypatch.setattr(elem, name, counted)
    assert h.field.one * h.field.one == 1 and calls      # the wrap counts
    del calls[:]
    for run in runs:
        run()
    assert calls == []


def test_equal_cocycles_compare_equal_after_one_builds_its_tables():
    h = sweedler_h4(PrimeField(5), verify=False)
    s = sigma_t(h, 1)
    twin = TwoCocycle(s.host, s.sigma, s.sigma_inv)
    sigma_module(s, regular_comodule_module(r_t(h, 1)))
    assert s._sigma_tables is not None and twin._sigma_tables is None
    assert s == twin
