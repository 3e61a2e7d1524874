"""The loops that sum lifted values (fields.Field.lift) against the
field-element loops of reference.py: σ̲'s two displayed forms, the
convolutions, the M⊗N term kernel and the Miyashita-Ulbrich action; the
crossed compatibility of verify_yd in both forms and verify_yd_algebra's
module- and comodule-algebra axioms; azumaya_check's F and G and its
algebra-map families; H^σ's antipodes S^σ and (S^σ)⁻¹ and the H* product
of the 1-cocycle checks; and χ, φ, ψ and ξ.

Each reference is the loop of reference.py that sums the same formula on
field elements; the lifted loop must give the same object, the same
report rows (verdict, witness and detail), or raise the same error, on
every ±1 one-entry change of its input, over ℚ and F₅, and on one input
over F_4099, whose elements are not tabled.  Over ℚ every ±1/3 one-entry
change is compared too, so that the lifted tables have denominators 1,
2, 3 and 6 and the loops sum at scales other than 1.  Two guards count
field operations, F_p element operations and ℚ QFraction operations, so
that field arithmetic does not come back into these loops.
The Galois relation checks are compared with their dense reference in
test_galois.py.
"""

import sys
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopflab import fields, galois, hopf, twist, yd
from hopflab.fields import PrimeField, RESIDUE_TABLE_BOUND, field_from_spec
from hopflab.hopf import HopfAlgebra
from hopflab.galois import (_comodule_galois, chi_maps, mu_action_and_pi,
                            phi_psi_xi, unit_object)
from hopflab.report import VerificationError
from hopflab.twist import (TwoCocycle, _deform, _dual_product, conv_operator2,
                           convolve2)
from hopflab.yd import (YdAlgebra, YdModule, _braid_terms, _kron, _matrix,
                        azumaya_check, eta, sigma_algebra, sigma_module,
                        verify_yd, verify_yd_algebra, yd_tensor)
from hopflab.catalog import (end_regular, regular_comodule_module, r_t,
                             sigma_t, sweedler_h4)
import reference as ref
from reference import changed, changes, module_changes, outcome, report_rows


def same_module(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.structures_equal(b)


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
    for bad in module_changes(mod, thirds=True):
        got = outcome(sigma_module, s, bad)
        assert same_module(got, outcome(ref.sigma_module, s, bad))
        raised += isinstance(got, str)
    assert raised


def test_sigma_of_regular_tensor_regular_matches(host):
    """σ̲₁(M⊗M) for M the regular module and for every one-entry change of
    M's coaction, so each change reaches M⊗M through both factors."""
    h, s, reg = host
    raised = 0
    for t in [reg.coaction] + list(changes(reg.coaction, thirds=True)):
        m2 = YdModule(h, 4, reg.action, t)
        tens = yd_tensor(m2, m2)
        assert same_module(tens, ref.yd_tensor(m2, m2))
        got = outcome(sigma_module, s, tens)
        assert same_module(got, outcome(ref.sigma_module, s, tens))
        raised += isinstance(got, str)
    assert raised


def test_convolutions_match(host):
    """σ₁ * σ₁⁻¹ and the operator X ↦ σ₁ * X, for σ₁ and every one-entry
    change of it."""
    h, s, _ = host
    for f in [s.sigma] + list(changes(s.sigma, thirds=True)):
        assert convolve2(h, f, s.sigma_inv) == ref.convolve2(
            h, f, s.sigma_inv)
        assert convolve2(h, s.sigma_inv, f) == ref.convolve2(
            h, s.sigma_inv, f)
        assert conv_operator2(h, f) == ref.conv_operator2(h, f)


def test_term_kernel_matrices_match(host):
    """The matrices of η and ξ and of Φ, for the regular module M and every
    one-entry change of M's tensors, and σ₁ ⊗ σ₁⁻¹ as a Kronecker product
    for every one-entry change of σ₁."""
    h, s, reg = host
    uo = unit_object(h).module
    for bad in module_changes(reg, thirds=True):
        try:
            got = eta(s, bad, uo)
        except VerificationError:
            got = None
        want = (ref.paired(bad, uo, s.sigma_inv),
                ref.paired(bad, uo, s.sigma))
        assert got is None or got == want
        assert _matrix(h.field, _braid_terms(bad, uo), uo.dim, bad.dim) == \
            ref.braid_matrix(bad, uo)
        assert _matrix(h.field, _braid_terms(uo, bad), bad.dim, uo.dim) == \
            ref.braid_matrix(uo, bad)
    for bad in [s.sigma] + list(changes(s.sigma, thirds=True)):
        assert _kron(bad, s.sigma_inv) == ref.kron(bad, s.sigma_inv)
        assert _kron(s.sigma_inv, bad) == ref.kron(s.sigma_inv, bad)


def test_mu_action_matches_the_dense_loop(host):
    """π(End(M))'s action, for M the regular module, and for every ±1
    (and, over ℚ, ±1/3) change of one entry of End(M)'s unit, which moves
    the β-preimages of 1⊗e_k: the same mu_action_well_defined witness and
    the same action, or the same refusal."""
    h, _, reg = host
    end = end_regular(r_t(h, 1))
    units = [list(end.unit)] + list(changes(end.unit, thirds=True,
                                            field=h.field))
    built = 0
    for unit, want in zip(units, ref.mu_actions(end, units)):
        alg = YdAlgebra(end.module, end.mult, unit)
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


# -- the checks and certificates on one-entry changes ---------------------------

YD_ROWS = ["yd_compatibility", "yd_compatibility_sinv_form"]
ALGEBRA_ROWS = ["module_algebra", "comodule_algebra"]


def algebra_rows(alg):
    """The references' ALGEBRA_ROWS report rows."""
    return report_rows(ref.module_algebra(alg)) + \
        report_rows(ref.comodule_algebra(alg))


def generators(alg):
    """The package's generators of A and of Ā, as ref.azumaya reads them."""
    return yd.generating_set(alg), yd.generating_set(yd.h_opposite(alg))


def algebra_changes(alg):
    """alg, then every copy with one entry of its product, of its action or
    of its coaction raised or lowered by 1 (and by 1/3 over ℚ)."""
    yield alg
    for t in changes(alg.mult, thirds=True):
        yield YdAlgebra(alg.module, t, alg.unit)
    for mod in module_changes(alg.module, thirds=True):
        if mod is not alg.module:
            yield YdAlgebra(mod, alg.mult, alg.unit)


def cocycle_changes(s):
    """s, then every cocycle with one entry of σ or of σ⁻¹ raised or
    lowered by 1 (and by 1/3 over ℚ; a cocycle or not)."""
    yield s
    for bad in changes(s.sigma, thirds=True):
        yield TwoCocycle(s.host, bad, s.sigma_inv)
    for bad in changes(s.sigma_inv, thirds=True):
        yield TwoCocycle(s.host, s.sigma, bad)


def test_yd_checks_match_the_field_element_loops(host):
    """verify_yd's two compatibility rows on the regular module, and
    verify_yd_algebra's module_algebra and comodule_algebra rows on I, for
    each and for every one-entry change of its tensors: the same verdicts,
    witnesses and details."""
    h, _, reg = host
    statuses = set()
    for mod in module_changes(reg, thirds=True):
        got = report_rows(verify_yd(mod), YD_ROWS)
        assert got == ref.yd_compatibility(mod)
        statuses.update(r[1] for r in got)
    for alg in algebra_changes(unit_object(h)):
        got = report_rows(verify_yd_algebra(alg), ALGEBRA_ROWS)
        assert got == algebra_rows(alg)
        statuses.update(r[1] for r in got)
    assert statuses == {"pass", "fail"}


def test_azumaya_matches_the_field_element_loops(host):
    """azumaya_check's report on I and on every one-entry change of its
    product, action and coaction: the same rows as F and G summed on field
    elements."""
    h = host[0]
    statuses = set()
    for alg in algebra_changes(unit_object(h)):
        got = report_rows(azumaya_check(alg))
        assert got == ref.azumaya(alg, generators(alg))
        statuses.update(r[1] for r in got)
    assert statuses == {"pass", "fail"}


def test_deformed_antipodes_match(host):
    """S^σ and (S^σ)⁻¹ of H^σ for σ₁ and for every one-entry change of σ₁
    or of σ₁⁻¹."""
    for c in cocycle_changes(host[1]):
        got, want = _deform(c), ref.deform_host(c)
        assert (got.antipode, got.antipode_inv) == \
            (want.antipode, want.antipode_inv)


def test_dual_products_match(host):
    """μν in H* for μ = ε + e₁* and ν = ε − e₁*, and for every one-entry
    change of either."""
    h = host[0]
    f = h.field
    mu = [x + (f.one if i == 1 else f.zero) for i, x in enumerate(h.counit)]
    nu = [x - (f.one if i == 1 else f.zero) for i, x in enumerate(h.counit)]
    for a in [mu] + list(changes(mu, True, f)):
        for b in [nu] + list(changes(nu, True, f)):
            assert _dual_product(h, a, b) == ref.dual_product(h, a, b)


def test_section3_witnesses_match(host):
    """χ and φ, ψ, ξ (on I) with their inverses for σ₁ and every one-entry
    change of σ₁ or of σ₁⁻¹, and φ, ψ, ξ for σ₁ on every one-entry change
    of I's coaction: the same matrices, or the same refusal."""
    h, s, _ = host
    uo = unit_object(h)
    raised = set()
    for c in cocycle_changes(s):
        got = outcome(chi_maps, c)
        assert got == outcome(ref.chi_maps, c)
        raised.add(isinstance(got, str))
        got = outcome(phi_psi_xi, c, uo)
        assert got == outcome(ref.phi_psi_xi, c, uo)
        raised.add(isinstance(got, str))
    for t in changes(uo.module.coaction, thirds=True):
        alg = YdAlgebra(YdModule(h, uo.dim, uo.module.action, t), uo.mult,
                        uo.unit)
        got = outcome(phi_psi_xi, s, alg)
        assert got == outcome(ref.phi_psi_xi, s, alg)
        raised.add(isinstance(got, str))
    assert raised == {True, False}


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
                max_size=6),
       st.integers(1, 12))
def test_reduce_vec_of_lifted_sums_is_the_field_sum(spec, coords, extra):
    """reduce_vec of Σ x·y per coordinate, summed on the x and the y lifted
    as two lists and so at the product of their scales, equals the sum of
    the products taken on field elements, coordinate by coordinate, and
    reduce_row gives the nonzero ones of them keyed by coordinate.  Over ℚ
    the sums are also multiplied by a drawn factor, which the scale they
    are reduced at carries too; over F_p every scale is 1."""
    f = field_from_spec(spec)
    pairs = [[(f.ratio(a, c), f.from_int(b)) for a, b, c in terms]
             for terms in coords]
    (xs, sx), (ys, sy) = (f.lift([pair[leg] for terms in pairs
                                  for pair in terms]) for leg in (0, 1))
    assert all(type(v) is int for v in xs + ys)
    if f.kind == "Fp":
        assert sx == sy == 1
        extra = 1
    xs, ys = iter(xs), iter(ys)
    lifted = [extra * sum(next(xs) * next(ys) for _ in terms)
              for terms in pairs]
    scale = sx * sy * extra
    field_sums = []
    for terms in pairs:
        acc = f.zero
        for x, y in terms:
            acc = acc + x * y
        field_sums.append(acc)
    got = f.reduce_vec(lifted, scale)
    assert got == field_sums
    row = f.reduce_row(dict(enumerate(lifted)), scale)
    assert row == {i: x for i, x in enumerate(field_sums) if x}
    assert list(map(type, row.values())) == [type(got[i]) for i in row]
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
    assert got.structures_equal(ref.sigma_module(s, reg))
    assert all(type(x) is h.field.elem for x in got.action.data)


def test_checks_over_a_large_prime_match():
    """Over F_4099, whose elements are built on lookup, the YD-algebra
    checks and azumaya_check on I and on I with one coaction entry raised
    by 1, and H^σ's antipodes, the H* products, χ, φ, ψ and ξ for σ₁,
    equal the field-element loops."""
    f = PrimeField(LARGE)
    h = sweedler_h4(f, verify=False)
    s = sigma_t(h, 1)
    uo = unit_object(h)
    bad = YdAlgebra(YdModule(h, uo.dim, uo.module.action,
                             changed(uo.module.coaction, 0, f.one)),
                    uo.mult, uo.unit)
    statuses = set()
    for alg in (uo, bad):
        got = report_rows(verify_yd(alg.module), YD_ROWS)
        assert got == ref.yd_compatibility(alg.module)
        got += report_rows(verify_yd_algebra(alg), ALGEBRA_ROWS)
        assert got[2:] == algebra_rows(alg)
        got += report_rows(azumaya_check(alg))
        assert got[4:] == ref.azumaya(alg, generators(alg))
        statuses.update(r[1] for r in got)
    assert statuses == {"pass", "fail"}
    got, want = _deform(s), ref.deform_host(s)
    assert (got.antipode, got.antipode_inv) == \
        (want.antipode, want.antipode_inv)
    assert all(type(x) is f.elem for x in got.antipode.entries)
    mu = [x + (f.one if i == 1 else f.zero) for i, x in enumerate(h.counit)]
    assert _dual_product(h, mu, h.counit) == ref.dual_product(
        h, mu, h.counit)
    assert chi_maps(s) == ref.chi_maps(s)
    assert phi_psi_xi(s, uo) == ref.phi_psi_xi(s, uo)


# -- the guard ----------------------------------------------------------------

def code_tree(fn, names=None):
    """The code objects of fn's nested functions, comprehensions and
    generator expressions called one of names (fn's own code, when names
    is None), with every code object nested in them."""
    todo = [fn.__code__] if names is None else [
        c for c in fn.__code__.co_consts
        if isinstance(c, types.CodeType) and c.co_name in names]
    assert names is None or len(todo) == len(names)
    out = set()
    while todo:
        code = todo.pop()
        out.add(code)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return out


def lifted_loop_codes():
    """The code of the loops that sum lifted values in the shared axiom
    checks and the YD-algebra, Azumaya, deformation, Section 3 and Galois
    relation checks."""
    return set().union(
        code_tree(hopf.first_action_mismatch, ("block",)),
        code_tree(hopf.first_coaction_mismatch, ("sides",)),
        code_tree(yd.verify_yd, ("compatibility", "compatibility_sinv")),
        code_tree(HopfAlgebra.word_table, ("word",)),
        code_tree(yd.verify_yd_algebra, ("module_algebra",
                                         "comodule_algebra")),
        code_tree(yd.azumaya_check), code_tree(yd.generating_set, (
            "products",)),
        code_tree(twist._deform), code_tree(twist._delta_functional),
        code_tree(twist._dual_product), code_tree(twist.eval2_lifted),
        code_tree(galois._pairing_tables), code_tree(galois.chi_maps),
        code_tree(galois.phi_psi_xi), code_tree(galois._relation_parts),
        code_tree(galois._beta_quotient_bijective, ("first_outside",)))


def guarded_runs(monkeypatch, field, elem):
    """(runs, checks, calls) for the guards: the second sigma_module,
    convolve2, yd_tensor and eta on σ₁ and R₁ over field, and the checks
    whose lifted loops are lifted_loop_codes, each run once already; from
    now on every +, - or * of elem, field's scalar class, appends its
    caller's code to calls."""
    h = sweedler_h4(field, verify=False)
    s = sigma_t(h, 1)
    reg = regular_comodule_module(r_t(h, 1))
    uo = unit_object(h)
    end = end_regular(r_t(h, 1))
    runs = [lambda: sigma_module(s, reg),
            lambda: convolve2(h, s.sigma, s.sigma_inv),
            lambda: yd_tensor(reg, uo.module),
            lambda: eta(s, reg, uo.module)]
    checks = [lambda: verify_yd_algebra(end), lambda: azumaya_check(end),
              lambda: _deform(s), lambda: _dual_product(h, h.counit, h.counit),
              lambda: chi_maps(s), lambda: phi_psi_xi(s, uo),
              lambda: _comodule_galois(end)]
    for run in runs + checks:
        run()
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                 "__rsub__", "__neg__"):
        inner = elem.__dict__[name]

        def counted(*args, inner=inner):
            calls.append(sys._getframe(1).f_code)
            return inner(*args)

        monkeypatch.setattr(elem, name, counted)
    return runs, checks, calls


def test_repeated_constructions_do_no_field_arithmetic(monkeypatch):
    """Once a cocycle and the modules have been used, a second sigma_module,
    convolve2, yd_tensor and eta over F₅ sum only plain ints: no FpElem
    +, - or * runs.  The YD-algebra checks, azumaya_check, H^σ's
    antipodes, the H* products, χ, φ, ψ, ξ and the Galois decisions run
    none in their lifted loops (lifted_loop_codes): the F_p operations
    they make are those of the code around the loops, such as the
    eliminations."""
    f = PrimeField(5)
    runs, checks, calls = guarded_runs(monkeypatch, f, fields.FpElem)
    assert f.one * f.one == 1 and calls      # the wrap counts
    del calls[:]
    for run in runs:
        run()
    assert calls == []
    for run in checks:
        run()
    lifted = lifted_loop_codes()
    assert calls and [c.co_name for c in calls if c in lifted] == []


def test_repeated_constructions_do_no_rational_arithmetic(monkeypatch):
    """The ℚ twin of the F₅ guard: σ₁, σ₁⁻¹ and R₁ carry halves, so the
    lifted tables of σ₁, of the σ̲ images and of the regular module sit at
    scales above 1, yet a second sigma_module, convolve2, yd_tensor and eta
    make no QFraction +, - or *, and the checks make none in their lifted
    loops: every non-integral value is lifted to ints over its table's
    common denominator, and only the reduction divides."""
    runs, checks, calls = guarded_runs(monkeypatch, fields.QQ,
                                       fields.QFraction)
    half = fields.QQ.ratio(1, 2)
    assert half * half == fields.QQ.ratio(1, 4) and calls   # the wrap counts
    del calls[:]
    for run in runs:
        run()
    assert calls == []
    for run in checks:
        run()
    lifted = lifted_loop_codes()
    assert [c.co_name for c in calls if c in lifted] == []


def test_equal_cocycles_compare_equal_after_one_builds_its_tables():
    h = sweedler_h4(PrimeField(5), verify=False)
    s = sigma_t(h, 1)
    twin = TwoCocycle(s.host, s.sigma, s.sigma_inv)
    sigma_module(s, regular_comodule_module(r_t(h, 1)))
    assert s._sigma_tables is not None and twin._sigma_tables is None
    assert s == twin
