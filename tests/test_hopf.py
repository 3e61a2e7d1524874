"""Hopf axiom suite, duals and Hopf maps."""

import random

import pytest

from hopflab.fields import QQ, PrimeField, field_from_spec
from hopflab.linalg import DimensionError, Matrix, Tensor
from hopflab.hopf import (HopfAlgebra, dual_hopf, first_coaction_mismatch,
                          hopf_map_checks, verify_hopf_axioms)
from hopflab.twist import conv_inverse1, deform, two_cocycle
from hopflab.catalog import (dim1_hopf, group_algebra_c2, r_t,
                             regular_comodule_module, sweedler_h4)
from reference import (HOPF_REFERENCED, algebra_map_checks, basis, changed,
                       changes, coaction_mismatch, coboundary, hopf_checks,
                       hopf_rows, hopf_with, product_checks, report_rows,
                       taft_algebra, terms_of, times)


def test_h4_all_axioms(h4):
    rep = verify_hopf_axioms(h4)
    assert rep.ok, rep.render_text()


def test_kc2_all_axioms(kc2):
    assert verify_hopf_axioms(kc2).ok


def test_h4_f5_axioms():
    assert verify_hopf_axioms(sweedler_h4(PrimeField(5))).ok


@pytest.mark.parametrize("part", ["mult", "comult", "unit", "counit",
                                  "antipode", "antipode_inv"])
def test_hopf_shape_error_is_typed(kc2, part):
    parts = dict(mult=kc2.mult, unit=kc2.unit, comult=kc2.comult,
                 counit=kc2.counit, antipode=kc2.antipode,
                 antipode_inv=kc2.antipode_inv)
    parts[part] = {"mult": Tensor.zeros(QQ, (2, 2, 3)),
                   "comult": Tensor.zeros(QQ, (3, 2, 2)),
                   "unit": [1, 0, 0], "counit": [1],
                   "antipode": Matrix.zeros(QQ, 2, 3),
                   "antipode_inv": Matrix.zeros(QQ, 3, 3)}[part]
    with pytest.raises(DimensionError, match=part + " has shape"):
        HopfAlgebra(QQ, 2, ["1", "g"], **parts)


def test_corrupted_antipode_detected(h4):
    bad = Matrix(QQ, 4, 4, [row[:] for row in h4.antipode.data])
    bad.data[2] = [QQ.zero, QQ.zero, QQ.one, QQ.zero]   # S(h) := h
    from hopflab.hopf import HopfAlgebra
    broken = HopfAlgebra(h4.field, 4, h4.basis_names, h4.mult, h4.unit,
                         h4.comult, h4.counit, bad, h4.antipode_inv)
    rep = verify_hopf_axioms(broken)
    fails = {c.name: c for c in rep.failures()}
    assert "antipode" in fails
    assert fails["antipode"].witness == (2,)   # basis index of h


def test_dual_of_kc2_is_kc2_up_to_basis_change(kc2):
    dual = dual_hopf(kc2)
    assert verify_hopf_axioms(dual).ok
    # 1 ↦ δ1+δg, g ↦ δ1-δg is a Hopf isomorphism kC₂ → (kC₂)*
    one = QQ.one
    t = Matrix(QQ, 2, 2, [[one, one], [one, -one]])
    rep = hopf_map_checks(kc2, dual, t)
    assert rep.ok, rep.render_text()


def test_dual_keeps_a_weak_reference_to_its_host():
    """dual_hopf(dual_hopf(h)) is h while h is alive; the dual refers back
    to h weakly, so with the cyclic collector off, h and its dual are freed
    by del alone, and a dual that outlives h takes a new dual of its own."""
    import gc
    import weakref
    h = sweedler_h4(QQ, verify=False)
    d = dual_hopf(h)
    assert dual_hopf(d) is h and dual_hopf(h) is d
    enabled = gc.isenabled()
    gc.disable()
    try:
        gone_h, gone_d = weakref.ref(h), weakref.ref(d)
        del h
        assert gone_h() is None
        dd = dual_hopf(d)
        assert dd.mult == d.comult.permuted((1, 2, 0)) and dual_hopf(d) is dd
        del d, dd
        assert gone_d() is None
    finally:
        if enabled:
            gc.enable()


def test_double_dual_identity(h4):
    dd = dual_hopf(dual_hopf(h4))
    assert dd.mult == h4.mult
    assert dd.comult == h4.comult
    assert dd.unit == h4.unit
    assert dd.counit == h4.counit
    assert dd.antipode == h4.antipode


def test_h4_self_dual_axioms(h4):
    assert verify_hopf_axioms(dual_hopf(h4)).ok


def test_antipode_axiom_vector_form(h4):
    # m∘(S⊗id)∘Δ = unit∘ε checked directly as n→n maps
    delta, e = terms_of(h4.comult), basis(QQ, 4)
    for i in range(4):
        acc = [QQ.zero] * 4
        for j, k, c in delta[i]:
            v = times(h4.mult, h4.antipode.data[j], e[k])
            for t, x in enumerate(v):
                acc[t] = acc[t] + c * x
        assert acc == [h4.counit[i] * u for u in h4.unit]


def test_dim1_hopf():
    assert verify_hopf_axioms(dim1_hopf(QQ)).ok


# -- products of basis vectors: sparse rows against dense references -----------

def product_host(name, f):
    """H₄, H₄*, kC₂, or H₄^∂γ for the non-lazy γ = (1, −1, 2, 2)."""
    if name == "kC2":
        return group_algebra_c2(f)
    h4 = sweedler_h4(f)
    if name == "H4*":
        return dual_hopf(h4)
    if name == "H4^dg":
        gamma = [f.from_int(x) for x in (1, -1, 2, 2)]
        return deform(two_cocycle(
            h4, coboundary(h4, gamma, conv_inverse1(h4, gamma))))
    return h4


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
@pytest.mark.parametrize("name", ["H4", "H4*", "kC2", "H4^dg"])
def test_product_checks_match_dense_products(name, spec):
    """On every ±1 one-entry change of mult (and ±1/3 over ℚ), associativity
    and unit give the dense reference's report tuples, witnesses
    included."""
    h = product_host(name, field_from_spec(spec))
    names = ("associativity", "unit")
    assert report_rows(verify_hopf_axioms(h), names) == \
        report_rows(product_checks(h), names)
    failing = set()
    for mult in changes(h.mult, thirds=True):
        bad = HopfAlgebra(h.field, h.dim, h.basis_names, mult, h.unit,
                          h.comult, h.counit, h.antipode, h.antipode_inv)
        rows = report_rows(verify_hopf_axioms(bad), names)
        assert rows == report_rows(product_checks(bad), names)
        failing |= {r[0] for r in rows if r[1] == "fail"}
    assert failing == set(names)


# -- the shared axiom checks against the references ----------------------------

@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
@pytest.mark.parametrize("name", ["H4", "H4*", "kC2", "H4^dg"])
def test_shared_checks_match_closures(name, spec):
    """On every ±1 one-entry change of mult, comult, unit or antipode (and
    ±1/3 over ℚ), the unit, coassociativity and antipode checks give the
    references' report tuples, and every family fails one of them
    somewhere."""
    h = product_host(name, field_from_spec(spec))
    names = ("unit", "coassociativity", "antipode")
    assert report_rows(verify_hopf_axioms(h), names) == \
        report_rows(hopf_checks(h))
    families = {
        "mult": (hopf_with(h, mult=t) for t in changes(h.mult, True)),
        "comult": (hopf_with(h, comult=t) for t in changes(h.comult, True)),
        "unit": (hopf_with(h, unit=u)
                 for u in changes(h.unit, True, h.field)),
        "antipode": (hopf_with(h, antipode=s)
                     for s in changes(h.antipode, True))}
    failing = set()
    for family, hosts in families.items():
        for bad in hosts:
            rows = report_rows(verify_hopf_axioms(bad), names)
            assert rows == report_rows(hopf_checks(bad))
            if any(r[1] == "fail" and r[2] is not None for r in rows):
                failing.add(family)
    assert failing == set(families)


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_coaction_check_matches_the_field_element_loop(spec):
    """first_coaction_mismatch gives the field-element loop's witness
    (p, q, k1, k2) for H₄'s Δ as its own coaction and for the regular YD
    module's coaction under H₄'s Δ, and for every ±1 one-entry change of
    either (and ±1/3 over ℚ); each passes and fails somewhere."""
    f = field_from_spec(spec)
    h = sweedler_h4(f, verify=False)
    reg = regular_comodule_module(r_t(h, 1))
    seen = set()
    for t in [h.comult] + list(changes(h.comult, thirds=True)):
        d = t.bilinear()
        got = first_coaction_mismatch(d, d)
        assert got == coaction_mismatch(t, t)
        seen.add(("delta", got is None or len(got)))
    for t in [reg.coaction] + list(changes(reg.coaction, thirds=True)):
        got = first_coaction_mismatch(h.delta, t.bilinear())
        assert got == coaction_mismatch(h.comult, t)
        seen.add(("coaction", got is None or len(got)))
    assert seen == {(x, y) for x in ("delta", "coaction") for y in (True, 4)}


# -- the algebra-map checks against the references -----------------------------

@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
@pytest.mark.parametrize("name", ["H4", "H4*", "kC2", "H4^dg"])
def test_algebra_map_checks_match_closures(name, spec):
    """On every ±1 one-entry change of mult, comult, unit or counit (and
    ±1/3 over ℚ), the comult_algebra_map and counit_algebra_map checks give
    the references' report tuples, and both stages of each fail
    somewhere."""
    h = product_host(name, field_from_spec(spec))
    names = ("comult_algebra_map", "counit_algebra_map")
    assert report_rows(verify_hopf_axioms(h), names) == \
        report_rows(algebra_map_checks(h))
    hosts = [hopf_with(h, mult=t) for t in changes(h.mult, True)]
    hosts += [hopf_with(h, comult=t) for t in changes(h.comult, True)]
    hosts += [hopf_with(h, unit=u) for u in changes(h.unit, True, h.field)]
    hosts += [hopf_with(h, counit=u)
              for u in changes(h.counit, True, h.field)]
    witness_sizes = set()
    for bad in hosts:
        rows = report_rows(verify_hopf_axioms(bad), names)
        assert rows == report_rows(algebra_map_checks(bad))
        witness_sizes |= {(r[0], len(r[2])) for r in rows if r[1] == "fail"}
    assert witness_sizes == {("comult_algebra_map", 4),
                             ("comult_algebra_map", 2),
                             ("counit_algebra_map", 2),
                             ("counit_algebra_map", 0)}


# -- Taft algebras: the lifted checks at dimension 9 and 16 --------------------

# verify_hopf_axioms' checks that a test reference decides, in report order
@pytest.mark.parametrize("n, p", [(3, 7), (4, 13)])
def test_taft_algebras_pass(n, p):
    h = taft_algebra(n, p)
    assert h.dim == n * n
    rep = verify_hopf_axioms(h)
    assert rep.ok, rep.render_text()
    assert report_rows(rep, HOPF_REFERENCED) == hopf_rows(h)


def test_taft3_corruptions_match_references():
    """Seeded one-entry changes of T_3 over F_7, a nonzero and a zero entry
    of each structure tensor and vector per round, give the references'
    report tuples; every referenced check fails somewhere."""
    h = taft_algebra(3, 7)
    rng = random.Random(21)
    parts = {"mult": h.mult.data, "comult": h.comult.data, "unit": h.unit,
             "counit": h.counit,
             "antipode": [x for row in h.antipode.data for x in row]}
    failing = set()
    for _ in range(6):
        for part, entries in parts.items():
            for want_zero in (False, True):
                flat = rng.choice([k for k, x in enumerate(entries)
                                   if bool(x) != want_zero])
                step = h.field.from_int(rng.randrange(1, 7))
                bad = hopf_with(h, **{part: changed(getattr(h, part), flat,
                                                    step)})
                rows = report_rows(verify_hopf_axioms(bad), HOPF_REFERENCED)
                assert rows == hopf_rows(bad), (part, flat)
                failing |= {r[0] for r in rows if r[1] == "fail"}
    assert failing == set(HOPF_REFERENCED)
