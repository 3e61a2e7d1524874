"""Elements of H as sparse rows: the word table, the antipode words, the S
and S⁻¹ tables h.antipodes and twist.eval2_lifted on sparse rows, against
the dense references of reference.py.

The sparse construction must give the reference's object, report or
error on every ±1 one-entry change of its input, over ℚ and F₅.  A guard
keeps h.mul_vec out of them, and every dense product out of a seed-0 F₅
suite pass.
"""

import pytest
from hypothesis import given, settings, strategies as st

from hopflab.catalog import (r_t, regular_comodule_module, sigma_t,
                             sweedler_h4)
from hopflab.fields import field_from_spec
from hopflab.galois import (BimoduleActions, BraidedHopf, act2_tensor,
                            adjoint_module, bimodule_actions, build_hr,
                            chi_maps, phi_psi_xi, unit_object)
from hopflab.hopf import HopfAlgebra
from hopflab.linalg import Bilinear, Matrix, Tensor
from hopflab.quasitriangular import CqtStructure, verify_cqt
from hopflab.suite import run_suite
from hopflab.twist import TwoCocycle, _deform
from hopflab.yd import YdAlgebra, YdModule, end_algebra, verify_yd
import reference as ref
from reference import (changes, hopf_with, module_changes, outcome,
                       report_rows, taft_algebra)


# -- comparisons on one-entry changes -----------------------------------------

def data_of(x):
    """What a construction returned, as nested lists of its structure
    constants; an error message stays itself."""
    if isinstance(x, (tuple, list)):
        return [data_of(y) for y in x]
    if isinstance(x, (Matrix, Tensor)):
        return x.data
    if isinstance(x, YdModule):
        return [x.action.data, x.coaction.data]
    if isinstance(x, YdAlgebra):
        return [data_of(x.module), x.mult.data, x.unit]
    if isinstance(x, BraidedHopf):
        return [data_of(x.underlying), x.braided_antipode.data]
    if isinstance(x, BimoduleActions):
        return [x.left_hr.data, x.right_hr.data, x.act2.data]
    if isinstance(x, HopfAlgebra):
        return [x.mult.data, x.comult.data, x.unit, x.counit,
                x.antipode.data, x.antipode_inv.data]
    return x


def same_outcome(build, reference, *args):
    """build and reference give the same structure constants, or raise the
    same VerificationError; returns whether build raised."""
    got = outcome(build, *args)
    assert data_of(got) == data_of(outcome(reference, *args))
    return isinstance(got, str)


def antipode_changes(h):
    """h with one entry of S, or one of S⁻¹, raised or lowered by 1."""
    for s in changes(h.antipode):
        yield hopf_with(h, antipode=s)
    for s in changes(h.antipode_inv):
        yield hopf_with(h, antipode_inv=s)


def on_host(mod, host):
    return YdModule(host, mod.dim, mod.action, mod.coaction)


@pytest.fixture(scope="module", params=["Q", "Fp:5"])
def case(request):
    h = sweedler_h4(field_from_spec(request.param))
    r1 = r_t(h, 1)
    return h, r1, sigma_t(h, 1), regular_comodule_module(r1)


def test_verify_yd_matches_the_dense_sinv_form(case):
    """verify_yd's full check→witness map on the regular module, with
    yd_compatibility_sinv_form from the reference, on every change of
    the action, the coaction and the host's S⁻¹."""
    h, _, _, reg = case
    mods = list(module_changes(reg))
    mods += [on_host(reg, host) for host in antipode_changes(h)]
    sinv_witnesses = set()
    for mod in mods:
        got = report_rows(verify_yd(mod))
        sinv = ref.yd_compatibility(mod)[1]
        want = [sinv if row[0] == sinv[0] else row for row in got]
        assert got == want
        sinv_witnesses.add(sinv[2])
    assert len(sinv_witnesses - {None}) > 1


def test_verify_cqt_matches_the_dense_cqt4_forms(case):
    """CQT4' and CQT4'' on R₁ and on every change of R₁, of the host's
    mult and of its S and S⁻¹: the dense references' report tuples."""
    h, r1, _, _ = case
    names = ("CQT4'", "CQT4''")
    cqts = [CqtStructure(h, r, r1.r_inv)
            for r in [r1.r] + list(changes(r1.r))]
    cqts += [CqtStructure(hopf_with(h, mult=t), r1.r, r1.r_inv)
             for t in changes(h.mult)]
    cqts += [CqtStructure(host, r1.r, r1.r_inv)
             for host in antipode_changes(h)]
    failing = set()
    for c in cqts:
        rows = report_rows(verify_cqt(c), names)
        assert rows == report_rows(ref.cqt4_forms(c))
        failing |= {row[0] for row in rows if row[1] == "fail"}
    assert failing == set(names)


def test_act2_and_bimodule_actions_match(case):
    """▷₂, −▷ and ◁− on the regular module and on every change of its
    tensors, and ▷₂ for every change of R₁."""
    h, r1, _, reg = case
    bh = build_hr(r1)
    raised = 0
    for mod in module_changes(reg):
        same_outcome(act2_tensor, ref.act2_tensor, r1, mod)
        raised += same_outcome(bimodule_actions, ref.bimodule_actions, bh,
                               mod)
    for r in changes(r1.r):
        raised += same_outcome(act2_tensor, ref.act2_tensor,
                               CqtStructure(h, r, r1.r_inv), reg)
    assert raised


def test_build_hr_and_adjoint_module_match(case):
    """𝓗_R (⋆, S_R, the adjoint coaction and ▷₁) for every change of R₁,
    and 𝓗_R and H's adjoint module for every change of the host's S, S⁻¹
    and mult."""
    h, r1, _, _ = case
    for r in [r1.r] + list(changes(r1.r)):
        same_outcome(build_hr, ref.build_hr, CqtStructure(h, r, r1.r_inv))
    hosts = list(antipode_changes(h))
    for host in hosts:
        same_outcome(build_hr, ref.build_hr,
                     CqtStructure(host, r1.r, r1.r_inv))
    for host in hosts + [hopf_with(h, mult=t) for t in changes(h.mult)]:
        same_outcome(adjoint_module, ref.adjoint_module, host)


def test_end_algebra_matches(case):
    """End(M) for the regular module M, every change of M's tensors and
    M over every change of the host's S and S⁻¹."""
    h, _, _, reg = case
    for mod in list(module_changes(reg)) + [
            on_host(reg, host) for host in antipode_changes(h)]:
        same_outcome(end_algebra, ref.end_algebra, mod)


def cocycle_changes(h, s):
    """σ₁ with one entry of σ or of σ⁻¹ changed, and σ₁ over every change
    of the host's S and S⁻¹."""
    yield s
    for m in changes(s.sigma):
        yield TwoCocycle(h, m, s.sigma_inv)
    for m in changes(s.sigma_inv):
        yield TwoCocycle(h, s.sigma, m)
    for host in antipode_changes(h):
        yield TwoCocycle(host, s.sigma, s.sigma_inv)


def test_chi_phi_psi_xi_and_deform_match(case):
    """χ, φ, ψ, ξ (on I) and H^σ's S^σ and (S^σ)⁻¹ for σ₁ and every
    cocycle change."""
    h, _, s, _ = case
    alg = unit_object(h)
    raised = 0
    for c in cocycle_changes(h, s):
        raised += same_outcome(chi_maps, ref.chi_maps, c)
        raised += same_outcome(phi_psi_xi, ref.phi_psi_xi, c, alg)
        same_outcome(_deform, ref.deform_host, c)
    assert raised


# -- the word product and the S/S⁻¹ tables -----------------------------------

@pytest.fixture(scope="module", params=["H4-Q", "H4-F5", "T3-F7"])
def word_host(request):
    if request.param == "T3-F7":
        return taft_algebra(3, 7)
    return sweedler_h4(field_from_spec(request.param[3:].replace("F", "Fp:")))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_and_antipode_rows_match_dense(word_host, data):
    """h.antipodes holds the rows of S and S⁻¹ and their lifted values, and
    h.antipode_words(leg)[i][t] is the dense product S(e_i)·e_t (leg 0) or
    S⁻¹(e_i)·e_t (leg 1) as a sparse row of lifted sums, in increasing
    index order with no zero."""
    h = word_host
    i, t = (data.draw(st.integers(0, h.dim - 1)) for _ in range(2))
    e_t = [h.field.one if k == t else h.field.zero for k in range(h.dim)]
    lifted, scale = h.antipodes.lifted_rows()
    for leg, m in enumerate((h.antipode, h.antipode_inv)):
        row = h.antipodes.rows(leg)[i]
        assert row == [(k, c) for k, c in enumerate(m.data[i]) if c]
        assert [(k, h.field.reduce(c, scale)) for k, c in lifted[leg][i]] \
            == row
        words, sw = h.antipode_words(leg)
        assert [(k, h.field.reduce(c, sw)) for k, c in words[i][t]] == [
            (k, x) for k, x in enumerate(ref.times(h.mult, m.data[i], e_t))
            if x]


# -- the guard ----------------------------------------------------------------

def test_formulas_multiply_no_dense_vector(monkeypatch):
    """On H₄ over F₅, the constructions and checks whose words are sparse
    rows make no HopfAlgebra.mul_vec call, and a seed-0 F₅ suite pass makes
    no dense product at all: no HopfAlgebra.mul_vec, YdAlgebra.mul_vec or
    Bilinear.apply call."""
    h = sweedler_h4(field_from_spec("Fp:5"))
    r1, s1 = r_t(h, 1), sigma_t(h, 1)
    reg = regular_comodule_module(r1)
    alg = unit_object(h)
    bh = build_hr(r1)
    calls = []

    def count(cls, name):
        inner = getattr(cls, name)

        def counted(self, u, v):
            calls.append((cls.__name__, name))
            return inner(self, u, v)
        monkeypatch.setattr(cls, name, counted)

    for cls in (HopfAlgebra, YdAlgebra):
        count(cls, "mul_vec")
    count(Bilinear, "apply")
    assert h.mul_vec(h.unit, h.unit) == h.unit            # the wraps count
    assert alg.mul_vec(alg.unit, alg.unit) == alg.unit
    assert calls == [("HopfAlgebra", "mul_vec"), ("Bilinear", "apply"),
                     ("YdAlgebra", "mul_vec"), ("Bilinear", "apply")]
    del calls[:]
    verify_yd(reg)
    verify_cqt(r1)
    build_hr(r1)
    bimodule_actions(bh, reg)
    adjoint_module(h)
    end_algebra(reg)
    chi_maps(s1)
    phi_psi_xi(s1, alg)
    assert calls == []
    report, _ = run_suite(h.field, seed=0)
    assert report.ok and calls == []


def test_word_table_forms_each_word_once(word_host, monkeypatch):
    """h.word_table() gives (e_c e_k)·S⁻¹(e_a) as the dense reference does,
    lifted at the table's scale, in increasing index order and without
    zeros; it forms each word on its first read only (a later read gives
    that list again), and a new table starts empty.  On H₄ verify_yd and
    bimodule_actions each open one table and form at most the n³ = 64
    words: a word is formed on its first read in a table, so each
    (table, key) pair counts once."""
    h = word_host
    hs = range(h.dim)
    want = {(c, k, a): [(k2, x) for k2, x in enumerate(ref.word(h, c, k, a))
                        if x]
            for c in hs for k in hs for a in hs}
    words, scale = h.word_table()
    first = {key: words(*key) for key in want}
    assert {key: [(k, h.field.reduce(c, scale)) for k, c in w]
            for key, w in first.items()} == want
    assert all(words(*key) is first[key] for key in want)
    assert h.word_table()[0](0, 0, 0) is not first[0, 0, 0]
    if h.dim == 4:
        formed, tables = set(), []
        inner = HopfAlgebra.word_table

        def recording(self):
            word, sw = inner(self)
            number = len(tables)
            tables.append(number)

            def counted(*key):
                formed.add((number, key))
                return word(*key)
            return counted, sw

        monkeypatch.setattr(HopfAlgebra, "word_table", recording)
        r1 = r_t(h, 1)
        reg = regular_comodule_module(r1)
        bh = build_hr(r1)
        for run in (lambda: verify_yd(reg), lambda: bimodule_actions(bh, reg)):
            formed.clear()
            del tables[:]
            run()
            assert len(tables) == 1 and 0 < len(formed) <= 64
