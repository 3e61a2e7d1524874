"""Hopf axiom suite, duals and Hopf maps."""

import pytest

from hopflab.fields import QQ, PrimeField
from hopflab.linalg import DimensionError, Matrix, Tensor, mat_mul
from hopflab.hopf import (HopfAlgebra, dual_hopf, hopf_map_checks,
                          verify_hopf_axioms)
from hopflab.catalog import dim1_hopf, group_algebra_c2, sweedler_h4


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
            v = h4.mul_vec(h4.S_basis(j), h4.basis_vec(k))
            for t, x in enumerate(v):
                acc[t] = acc[t] + c * x
        assert acc == [h4.counit[i] * u for u in h4.unit]


def test_dim1_hopf():
    assert verify_hopf_axioms(dim1_hopf(QQ)).ok
