"""Hopf axiom suite, duals, iterated coproducts and op/cop variants."""

import pytest

from hopflab.fields import QQ, PrimeField
from hopflab.linalg import Matrix, mat_mul
from hopflab.hopf import (dual_hopf, hopf_map_checks, iterated_coproduct,
                          op_cop, verify_hopf_axioms)
from hopflab.catalog import dim1_hopf, group_algebra_c2, sweedler_h4


def test_h4_all_axioms(h4):
    rep = verify_hopf_axioms(h4)
    assert rep.ok, rep.render_text()


def test_kc2_all_axioms(kc2):
    assert verify_hopf_axioms(kc2).ok


def test_h4_f5_axioms():
    assert verify_hopf_axioms(sweedler_h4(PrimeField(5))).ok


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


def test_iterated_coproduct_identity_and_delta(h4):
    t1 = iterated_coproduct(h4, 1)
    assert t1.shape == (4, 4)
    ident = Matrix.identity(QQ, 4)
    assert t1.data == ident.entries
    t2 = iterated_coproduct(h4, 2)
    assert t2.shape == (4, 16)
    assert t2.data == h4.comult.data


def test_iterated_coproduct_order_independent(h4):
    # (Δ⊗id)Δ vs (id⊗Δ)Δ entrywise
    n = 4
    lhs = {}
    rhs = {}
    for i in range(n):
        for j, k, c in h4.delta.terms(i):
            for a, b, c2 in h4.delta.terms(j):
                lhs[(i, a, b, k)] = lhs.get((i, a, b, k), QQ.zero) + c * c2
            for a, b, c2 in h4.delta.terms(k):
                rhs[(i, j, a, b)] = rhs.get((i, j, a, b), QQ.zero) + c * c2
    assert lhs == rhs
    t3 = iterated_coproduct(h4, 3)
    for (i, a, b, c), v in lhs.items():
        assert t3.data[i * n ** 3 + (a * n + b) * n + c] == v


def test_op_cop_identity_when_no_flip(h4):
    same = op_cop(h4, False, False)
    assert same.structures_equal(h4)


def test_kc2_fully_flipped_identical(kc2):
    assert op_cop(kc2, True, True).structures_equal(kc2)


def test_h4_op_has_sinv_antipode(h4):
    hop = op_cop(h4, True, False)
    assert hop.antipode == h4.antipode_inv
    assert verify_hopf_axioms(hop).ok
    hcop = op_cop(h4, False, True)
    assert hcop.antipode == h4.antipode_inv
    assert verify_hopf_axioms(hcop).ok
    both = op_cop(h4, True, True)
    assert both.antipode == h4.antipode
    assert verify_hopf_axioms(both).ok


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
