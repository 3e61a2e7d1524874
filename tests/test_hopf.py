"""Hopf axiom suite, duals and Hopf maps."""

import importlib
import importlib.util
import os
import random
from types import SimpleNamespace

import pytest

from hopflab.fields import QQ, PrimeField, field_from_spec
from hopflab.linalg import (DimensionError, Matrix, Tensor,
                            linear_combination, mat_mul)
from hopflab.hopf import (HopfAlgebra, dual_hopf, first_coaction_mismatch,
                          hopf_map_checks, verify_hopf_axioms)
from hopflab.report import CheckReport, first_mismatch
from hopflab.twist import conv_inverse1, deform, two_cocycle
from hopflab.catalog import (dim1_hopf, group_algebra_c2, r_t,
                             regular_comodule_module, sweedler_h4)
from conftest import dense_row
from test_convolution_routes import ref_coboundary


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
    for i in range(4):
        acc = [QQ.zero] * 4
        for j, k, c in h4.delta.terms(i):
            v = h4.mul_vec(h4.antipode.data[j], h4.basis_vec(k))
            for t, x in enumerate(v):
                acc[t] = acc[t] + c * x
        assert acc == [h4.counit[i] * u for u in h4.unit]


def test_dim1_hopf():
    assert verify_hopf_axioms(dim1_hopf(QQ)).ok


# -- products of basis vectors: sparse rows against dense references -----------

def dense_product_checks(h):
    """associativity and unit as products of dense basis vectors through
    h.mul_vec, the reference the sparse-row checks must match."""
    rep = CheckReport()
    mult, e, every = h.mult, h.basis_vec, range(h.dim)
    bad = first_mismatch((every,) * 3, lambda i, j, k: (
        h.mul_vec(dense_row(mult, i, j), e(k)),
        h.mul_vec(e(i), dense_row(mult, j, k))))
    rep.add("associativity", bad is None, bad)
    bad = first_mismatch((every,), lambda i: (
        (h.mul_vec(h.unit, e(i)), h.mul_vec(e(i), h.unit)), (e(i), e(i))))
    rep.add("unit", bad is None, bad)
    return rep


def report_rows(rep, names=None):
    """The (name, status, witness, detail) tuples of the named checks, or
    of every check when names is None."""
    return [(c.name, c.status, c.witness, c.detail) for c in rep.checks
            if names is None or c.name in names]


def steps(field, thirds=False):
    """±1, and with thirds over ℚ also ±1/3: a changed table then has
    denominators 3, or 6 where it had halves, and its lifted scale moves."""
    one = field.one
    if thirds and field.kind == "Q":
        third = field.ratio(1, 3)
        return one, -one, third, -third
    return one, -one


def one_entry_changes(t, thirds=False):
    """Every copy of the tensor t with one entry raised or lowered by 1
    (or by 1/3, with thirds over ℚ)."""
    for flat in range(len(t.data)):
        for step in steps(t.field, thirds):
            data = list(t.data)
            data[flat] = data[flat] + step
            yield Tensor(t.field, t.shape, data)


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
            h4, ref_coboundary(h4, gamma, conv_inverse1(h4, gamma))))
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
        report_rows(dense_product_checks(h), names)
    failing = set()
    for mult in one_entry_changes(h.mult, thirds=True):
        bad = HopfAlgebra(h.field, h.dim, h.basis_names, mult, h.unit,
                          h.comult, h.counit, h.antipode, h.antipode_inv)
        rows = report_rows(verify_hopf_axioms(bad), names)
        assert rows == report_rows(dense_product_checks(bad), names)
        failing |= {r[0] for r in rows if r[1] == "fail"}
    assert failing == set(names)


# -- the shared axiom checks against the per-verifier closures they replaced ---

def closure_checks(h):
    """unit, coassociativity and antipode as verify_hopf_axioms wrote them
    before hopf.first_unit_mismatch, first_coaction_mismatch and
    first_antipode_mismatch: the reference the shared checks must match."""
    rep = CheckReport()
    n, f, zero = h.dim, h.field, h.field.zero
    mul, delta, e, every = h.mul, h.delta, h.basis_vec, range(h.dim)

    unit = [(t, x) for t, x in enumerate(h.unit) if x]
    bad = first_mismatch((every,), lambda i: (
        (linear_combination(f, n, ((x, mul.row(t, i)) for t, x in unit)),
         linear_combination(f, n, ((x, mul.row(i, t)) for t, x in unit))),
        (e(i), e(i))))
    rep.add("unit", bad is None, bad)

    def coassociativity(i):
        lhs = {}
        rhs = {}
        for j, k, c in delta.terms(i):
            for a, b, c2 in delta.terms(j):
                key = (a, b, k)
                lhs[key] = lhs.get(key, zero) + c * c2
            for a, b, c2 in delta.terms(k):
                key = (j, a, b)
                rhs[key] = rhs.get(key, zero) + c * c2
        return lhs, rhs

    bad = first_mismatch((every,), coassociativity)
    rep.add("coassociativity", bad is None, bad)

    def antipode(i):
        left = [zero] * n
        right = [zero] * n
        for j, k, c in delta.terms(i):
            for t, c2 in enumerate(h.antipode.data[j]):
                if c2:
                    for a, cm in mul.row(t, k):
                        left[a] = left[a] + c * c2 * cm
            for t, c2 in enumerate(h.antipode.data[k]):
                if c2:
                    for a, cm in mul.row(j, t):
                        right[a] = right[a] + c * c2 * cm
        want = [h.counit[i] * x for x in h.unit]
        return (left, right), (want, want)

    bad = first_mismatch((every,), antipode)
    rep.add("antipode", bad is None, bad)
    return rep


def one_vector_changes(v, field, thirds=False):
    """Every copy of the list v with one entry raised or lowered by 1 (or
    by 1/3, with thirds over ℚ)."""
    for i in range(len(v)):
        for step in steps(field, thirds):
            out = list(v)
            out[i] = out[i] + step
            yield out


def one_matrix_changes(m, thirds=False):
    """Every copy of the Matrix m with one entry raised or lowered by 1 (or
    by 1/3, with thirds over ℚ)."""
    for i in range(m.rows):
        for data in one_vector_changes(m.data[i], m.field, thirds):
            yield Matrix(m.field, m.rows, m.cols,
                         m.data[:i] + [data] + m.data[i + 1:])


def hopf_with(h, **changed):
    parts = dict(field=h.field, dim=h.dim, basis_names=h.basis_names,
                 mult=h.mult, unit=h.unit, comult=h.comult, counit=h.counit,
                 antipode=h.antipode, antipode_inv=h.antipode_inv)
    parts.update(changed)
    return HopfAlgebra(**parts)


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
@pytest.mark.parametrize("name", ["H4", "H4*", "kC2", "H4^dg"])
def test_shared_checks_match_closures(name, spec):
    """On every ±1 one-entry change of mult, comult, unit or antipode (and
    ±1/3 over ℚ), the unit, coassociativity and antipode checks give the
    replaced closures' report tuples, and every family fails one of them
    somewhere."""
    h = product_host(name, field_from_spec(spec))
    names = ("unit", "coassociativity", "antipode")
    assert report_rows(verify_hopf_axioms(h), names) == \
        report_rows(closure_checks(h))
    families = {
        "mult": (hopf_with(h, mult=t)
                 for t in one_entry_changes(h.mult, thirds=True)),
        "comult": (hopf_with(h, comult=t)
                   for t in one_entry_changes(h.comult, thirds=True)),
        "unit": (hopf_with(h, unit=u)
                 for u in one_vector_changes(h.unit, h.field, thirds=True)),
        "antipode": (hopf_with(h, antipode=s)
                     for s in one_matrix_changes(h.antipode, thirds=True))}
    failing = set()
    for family, hosts in families.items():
        for bad in hosts:
            rows = report_rows(verify_hopf_axioms(bad), names)
            assert rows == report_rows(closure_checks(bad))
            if any(r[1] == "fail" and r[2] is not None for r in rows):
                failing.add(family)
    assert failing == set(families)


def reference_coaction_mismatch(delta, coact):
    """first_coaction_mismatch as it was written on field elements, before
    it summed lifted terms: dicts keyed (q, k1, k2), compared by
    first_mismatch."""
    zero = coact.field.zero

    def sides(p):
        lhs = {}
        for q0, k, c in coact.terms(p):
            for q1, k1, c1 in coact.terms(q0):
                key = (q1, k1, k)
                lhs[key] = lhs.get(key, zero) + c * c1
        rhs = {}
        for q0, k, c in coact.terms(p):
            for a, b, c2 in delta.terms(k):
                key = (q0, a, b)
                rhs[key] = rhs.get(key, zero) + c * c2
        return lhs, rhs

    return first_mismatch((range(coact.shape[0]),), sides)


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
    for t in [h.comult] + list(one_entry_changes(h.comult, thirds=True)):
        d = t.bilinear()
        got = first_coaction_mismatch(d, d)
        assert got == reference_coaction_mismatch(d, d)
        seen.add(("delta", got is None or len(got)))
    for t in [reg.coaction] + list(one_entry_changes(reg.coaction,
                                                     thirds=True)):
        c = t.bilinear()
        got = first_coaction_mismatch(h.delta, c)
        assert got == reference_coaction_mismatch(h.delta, c)
        seen.add(("coaction", got is None or len(got)))
    assert seen == {(x, y) for x in ("delta", "coaction") for y in (True, 4)}


# -- the algebra-map checks against the closures they replaced -----------------

def closure_algebra_map_checks(h):
    """comult_algebra_map and counit_algebra_map as verify_hopf_axioms wrote
    them on field elements, before they summed lifted tables: the reference
    the lifted checks must match, witnesses and dict-key order included."""
    rep = CheckReport()
    f, zero = h.field, h.field.zero
    mul, delta, every = h.mul, h.delta, range(h.dim)

    def comult_of_product(i, j):
        lhs = {}
        for k, c in mul.row(i, j):
            for a, b, c2 in delta.terms(k):
                key = (a, b)
                lhs[key] = lhs.get(key, zero) + c * c2
        rhs = {}
        for a1, b1, c1 in delta.terms(i):
            for a2, b2, c2 in delta.terms(j):
                for a, ca in mul.row(a1, a2):
                    for b, cb in mul.row(b1, b2):
                        key = (a, b)
                        rhs[key] = rhs.get(key, zero) + c1 * c2 * ca * cb
        return lhs, rhs

    bad = first_mismatch((every,) * 2, comult_of_product)
    if bad is None:
        du = {}
        for j, x in enumerate(h.unit):
            if not x:
                continue
            for a, b, c in delta.terms(j):
                du[(a, b)] = du.get((a, b), zero) + x * c
        bad = first_mismatch((every,) * 2, lambda a, b: (
            du.get((a, b), zero), h.unit[a] * h.unit[b]))
    rep.add("comult_algebra_map", bad is None, bad)

    bad = first_mismatch((every,) * 2, lambda i, j: (
        h.counit_of(dense_row(h.mult, i, j)), h.counit[i] * h.counit[j]))
    if bad is None:
        bad = first_mismatch((), lambda: (h.counit_of(h.unit), f.one))
    rep.add("counit_algebra_map", bad is None, bad)
    return rep


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
@pytest.mark.parametrize("name", ["H4", "H4*", "kC2", "H4^dg"])
def test_algebra_map_checks_match_closures(name, spec):
    """On every ±1 one-entry change of mult, comult, unit or counit (and
    ±1/3 over ℚ), the comult_algebra_map and counit_algebra_map checks give
    the replaced closures' report tuples, and both stages of each fail
    somewhere."""
    h = product_host(name, field_from_spec(spec))
    names = ("comult_algebra_map", "counit_algebra_map")
    assert report_rows(verify_hopf_axioms(h), names) == \
        report_rows(closure_algebra_map_checks(h))
    hosts = [hopf_with(h, mult=t)
             for t in one_entry_changes(h.mult, thirds=True)]
    hosts += [hopf_with(h, comult=t)
              for t in one_entry_changes(h.comult, thirds=True)]
    hosts += [hopf_with(h, unit=u)
              for u in one_vector_changes(h.unit, h.field, thirds=True)]
    hosts += [hopf_with(h, counit=u)
              for u in one_vector_changes(h.counit, h.field, thirds=True)]
    witness_sizes = set()
    for bad in hosts:
        rows = report_rows(verify_hopf_axioms(bad), names)
        assert rows == report_rows(closure_algebra_map_checks(bad))
        witness_sizes |= {(r[0], len(r[2])) for r in rows if r[1] == "fail"}
    assert witness_sizes == {("comult_algebra_map", 4),
                             ("comult_algebra_map", 2),
                             ("counit_algebra_map", 2),
                             ("counit_algebra_map", 0)}


# -- Taft algebras: the lifted checks at dimension 9 and 16 --------------------

TAFT = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                    "perfbench", "taft.py")


def taft_algebra(n, p):
    """T_n over F_p from perfbench/taft.py, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_taft", TAFT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    hl = SimpleNamespace(**{name: importlib.import_module("hopflab." + name)
                            for name in ("fields", "linalg", "hopf")})
    return mod.taft_algebra(hl, n, p)


# verify_hopf_axioms' checks that a test reference decides, in report order
REFERENCED = ("associativity", "unit", "coassociativity",
              "comult_algebra_map", "counit_algebra_map", "antipode")


def reference_rows(h):
    """The REFERENCED report tuples from the dense and closure references."""
    found = {}
    for rep in (dense_product_checks(h), closure_checks(h),
                closure_algebra_map_checks(h)):
        for row in report_rows(rep):
            found.setdefault(row[0], row)
    return [found[name] for name in REFERENCED]


@pytest.mark.parametrize("n, p", [(3, 7), (4, 13)])
def test_taft_algebras_pass(n, p):
    h = taft_algebra(n, p)
    assert h.dim == n * n
    rep = verify_hopf_axioms(h)
    assert rep.ok, rep.render_text()
    assert report_rows(rep, REFERENCED) == reference_rows(h)


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
                data = list(entries)
                data[flat] = data[flat] + h.field.from_int(rng.randrange(1, 7))
                if part in ("mult", "comult"):
                    changed = Tensor(h.field, (9, 9, 9), data)
                elif part == "antipode":
                    changed = Matrix(h.field, 9, 9, [data[r * 9:r * 9 + 9]
                                                     for r in range(9)])
                else:
                    changed = data
                bad = hopf_with(h, **{part: changed})
                rows = report_rows(verify_hopf_axioms(bad), REFERENCED)
                assert rows == reference_rows(bad), (part, flat)
                failing |= {r[0] for r in rows if r[1] == "fail"}
    assert failing == set(REFERENCED)
