"""CQT/QT verification, deformations and induced YD structures."""

import pytest

from hopflab.fields import QQ, field_from_spec
from hopflab.hopf import HopfAlgebra, dual_hopf
from hopflab.linalg import DimensionError, Matrix, Tensor, check_shape
from hopflab.report import CheckReport, first_mismatch
from hopflab.twist import eps_eps, two_cocycle
from hopflab.quasitriangular import (CqtStructure, QtStructure,
                                     cqt_structure, deform_cqt, deform_qt,
                                     qt_structure, verify_cqt, verify_qt,
                                     yd_from_comodule)
from hopflab.yd import dual_module, verify_yd
from hopflab.catalog import (cqt_c2, group_algebra_c2, qt_c2, qt_t, r_t,
                             sigma_t, sweedler_h4, theta_t, trivial_module)
from conftest import dense_row
from test_hopf import one_entry_changes, one_matrix_changes, report_rows


def yd_from_module(q, action):
    """YD module on a left module via the ℛ-induced coaction
    a ↦ Σ (ℛ²·a)⊗ℛ¹: the dual of yd_from_comodule for ℛ read as R on H*,
    applied to M's action as M*'s coaction."""
    h = q.host
    m = action.shape[1]
    check_shape("action", action.shape, (h.dim, m, m))
    r = CqtStructure(dual_hopf(h), q.rr, q.rr_inv)
    return dual_module(yd_from_comodule(r, action.permuted((1, 2, 0))))


def test_r_t_passes(h4):
    for t in (-2, -1, 0, 1, 2, 3):
        rep = verify_cqt(r_t(h4, t))
        assert rep.ok, rep.render_text()


def test_trivial_r_on_kc2(kc2):
    c = cqt_structure(kc2, eps_eps(kc2))
    assert verify_cqt(c).ok


def test_induced_yd_shape_errors_are_typed(kc2):
    with pytest.raises(DimensionError, match="coaction has shape"):
        yd_from_comodule(cqt_c2(kc2, 1), Tensor.zeros(QQ, (2, 2, 3)))
    with pytest.raises(DimensionError, match="action has shape"):
        yd_from_module(qt_c2(kc2), Tensor.zeros(QQ, (3, 2, 2)))


def test_sign_r_on_kc2(kc2):
    assert verify_cqt(cqt_c2(kc2, -1)).ok


def test_cqt_rejects_corruption(h4):
    r1 = r_t(h4, 1)
    bad = Matrix(QQ, 4, 4, [row[:] for row in r1.r.data])
    bad.data[2][3] = QQ.one   # R(h⊗gh) := 1 instead of -1
    rep = verify_cqt(CqtStructure(h4, bad, r1.r_inv))
    assert not rep.ok


def dense_cqt4_prime(c):
    """CQT4' with S(h₁)g₂h₃ as products of dense basis vectors through
    h.mul_vec, the reference the sparse-row check must match."""
    h, r = c.host, c.r
    n, f, e = h.dim, h.field, h.basis_vec

    def sides(g, x):
        lhs = [f.zero] * n
        for a, b, ca in h.delta.terms(g):
            lhs[a] = lhs[a] + ca * r.data[b][x]
        rhs = [f.zero] * n
        for (x1, x2, x3), w in h.copower(x, 3):
            for a, b, ca in h.delta.terms(g):
                vec = h.mul_vec(h.mul_vec(h.antipode.data[x1], e(b)), e(x3))
                for k, cv in enumerate(vec):
                    rhs[k] = rhs[k] + w * ca * r.data[a][x2] * cv
        return lhs, rhs

    rep = CheckReport()
    bad = first_mismatch((range(n),) * 2, sides)
    rep.add("CQT4'", bad is None, bad, "Σg1R(g2⊗h) = ΣR(g1⊗h2)S(h1)g2h3")
    return rep


def test_cqt4_prime_matches_dense_products(h4):
    """On every ±1 one-entry change of the host's mult under R_1, CQT4'
    gives the dense reference's report tuple."""
    r1 = r_t(h4, 1)
    names = ("CQT4'",)
    assert report_rows(verify_cqt(r1), names) == \
        report_rows(dense_cqt4_prime(r1))
    failing = 0
    for mult in one_entry_changes(h4.mult):
        bad = CqtStructure(HopfAlgebra(
            QQ, 4, h4.basis_names, mult, h4.unit, h4.comult, h4.counit,
            h4.antipode, h4.antipode_inv), r1.r, r1.r_inv)
        rows = report_rows(verify_cqt(bad), names)
        assert rows == report_rows(dense_cqt4_prime(bad))
        failing += rows[0][1] == "fail"
    assert failing


def closure_qt123(q):
    """QT1-QT3 as verify_qt wrote them before twist's H⊗H⊗H arithmetic:
    the reference."""
    h, rr, zero = q.host, q.rr, q.host.field.zero
    n = h.dim
    terms = [(i, j, rr.data[i][j]) for i in range(n) for j in range(n)
             if rr.data[i][j]]
    rep = CheckReport()

    def qt1():
        lhs = {}
        for i, j, x in terms:
            for a, b, c in h.delta.terms(i):
                key = (a, b, j)
                lhs[key] = lhs.get(key, zero) + x * c
        rhs = {}
        for i, j, x in terms:
            for p, qq, y in terms:
                for k, cm in h.mul.row(j, qq):
                    key = (i, p, k)
                    rhs[key] = rhs.get(key, zero) + x * y * cm
        return lhs, rhs

    bad = first_mismatch((), qt1)
    rep.add("QT1", bad is None, bad, "ΣΔ(ℛ1)⊗ℛ2 = Σℛ1⊗r1⊗ℛ2r2")

    left = [zero] * n
    right = [zero] * n
    for i, j, x in terms:
        if h.counit[i]:
            left[j] = left[j] + h.counit[i] * x
        if h.counit[j]:
            right[i] = right[i] + h.counit[j] * x
    rep.add("QT2", left == h.unit and right == h.unit)

    def qt3():
        lhs = {}
        for i, j, x in terms:
            for a, b, c in h.delta.terms(j):
                key = (i, a, b)
                lhs[key] = lhs.get(key, zero) + x * c
        rhs = {}
        for i, j, x in terms:
            for p, qq, y in terms:
                for k, cm in h.mul.row(i, p):
                    key = (k, qq, j)
                    rhs[key] = rhs.get(key, zero) + x * y * cm
        return lhs, rhs

    bad = first_mismatch((), qt3)
    rep.add("QT3", bad is None, bad, "Σℛ1⊗Δ(ℛ2) = Σℛ1r1⊗r2⊗ℛ2")
    return rep


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
@pytest.mark.parametrize("name", ["R0", "R1", "qt_c2"])
def test_qt123_match_closures(name, spec):
    """On every ±1 one-entry change of ℛ₀, ℛ₁ or qt_c2, QT1-QT3 give the
    replaced loops' report tuples, and QT1 and QT3 fail with a witness
    somewhere."""
    f = field_from_spec(spec)
    q = qt_c2(group_algebra_c2(f)) if name == "qt_c2" else \
        qt_t(sweedler_h4(f), int(name[1]))
    names = ("QT1", "QT2", "QT3")
    assert report_rows(verify_qt(q), names) == report_rows(closure_qt123(q))
    failing = set()
    for rr in one_matrix_changes(q.rr):
        bad = QtStructure(q.host, rr, q.rr_inv)
        rows = report_rows(verify_qt(bad), names)
        assert rows == report_rows(closure_qt123(bad))
        failing |= {r[0] for r in rows if r[2] is not None}
    assert failing == {"QT1", "QT3"}

def test_deform_cqt_trivial(h4):
    r1 = r_t(h4, 1)
    triv = two_cocycle(h4, eps_eps(h4))
    rs = deform_cqt(r1, triv)
    assert verify_cqt(rs).ok
    assert rs.r == r1.r


def test_deform_cqt_shift_is_t_minus_s(h4):
    for t in (-1, 0, 2):
        for s in (1, 2, -2):
            got = deform_cqt(r_t(h4, t), sigma_t(h4, s))
            assert verify_cqt(got).ok
            assert got.r == r_t(h4, t - s).r


def test_deform_cqt_roundtrip(h4):
    r1 = r_t(h4, 1)
    s1 = sigma_t(h4, 1)
    from hopflab.twist import deform
    hs = deform(s1)
    rs = deform_cqt(r1, s1)
    sinv = two_cocycle(hs, s1.sigma_inv)
    back = deform_cqt(rs, sinv)
    assert verify_cqt(rs).ok and verify_cqt(back).ok
    assert back.r == r1.r


def test_qt_t_passes(h4):
    assert verify_qt(qt_t(h4, 0)).ok
    assert verify_qt(qt_t(h4, 1)).ok


def test_qt_trivial_on_kc2(kc2):
    q = qt_structure(kc2, eps_eps(dual_hopf(kc2)))
    assert verify_qt(q).ok


def test_deform_qt_trivial(h4):
    from hopflab.twist import dual_cocycle
    q1 = qt_t(h4, 1)
    d = dual_cocycle(h4, eps_eps(dual_hopf(h4)))
    qd = deform_qt(q1, d)
    assert verify_qt(qd).ok
    assert qd.rr == q1.rr


def test_deform_qt_shift_is_minus_s(h4):
    for s in (1, 2, -1):
        got = deform_qt(qt_t(h4, 0), theta_t(h4, s))
        assert verify_qt(got).ok
        assert got.rr == qt_t(h4, -s).rr


def test_deform_qt_roundtrip(h4):
    from hopflab.twist import deform_dual, dual_cocycle
    q0 = qt_t(h4, 0)
    th = theta_t(h4, 2)
    qd = deform_qt(q0, th)
    ht = deform_dual(th)
    back = deform_qt(qd, dual_cocycle(ht, th.theta_inv))
    assert verify_qt(qd).ok and verify_qt(back).ok
    assert back.rr == q0.rr


# -- induced YD structures ----------------------------------------------------

def test_yd_from_comodule_trivial_coaction(h4):
    r1 = r_t(h4, 1)
    triv = trivial_module(h4)
    mod = yd_from_comodule(r1, triv.coaction)
    # action factors through ε
    assert mod.action == triv.action
    assert verify_yd(mod).ok


def test_yd_from_comodule_regular(h4, mreg):
    assert mreg.dim == 4
    assert verify_yd(mreg).ok


def test_yd_from_comodule_kc2_hand_contraction(kc2):
    c = cqt_c2(kc2, -1)
    coaction = Tensor(QQ, (2, 2, 2), list(kc2.comult.data))
    mod = yd_from_comodule(c, coaction)
    assert verify_yd(mod).ok
    # g acts on basis vector g by R(g⊗g) = -1
    assert dense_row(mod.action, 1, 1) == [QQ.zero, -QQ.one]
    assert dense_row(mod.action, 1, 0) == [QQ.one, QQ.zero]


def test_yd_from_module_trivial_rr(kc2):
    q = qt_structure(kc2, eps_eps(dual_hopf(kc2)))
    action = Tensor(QQ, (2, 2, 2), list(kc2.mult.data))
    mod = yd_from_module(q, action)
    assert verify_yd(mod).ok
    # trivial coaction a ↦ a⊗1
    for p in range(2):
        assert mod.coact.terms(p) == [(p, 0, QQ.one)]


def test_yd_from_module_regular_h4(h4):
    q0 = qt_t(h4, 0)
    action = Tensor(QQ, (4, 4, 4), list(h4.mult.data))
    mod = yd_from_module(q0, action)
    assert verify_yd(mod).ok


def test_yd_from_module_kc2(kc2):
    q = qt_c2(kc2)
    action = Tensor(QQ, (2, 2, 2), list(kc2.mult.data))
    mod = yd_from_module(q, action)
    assert verify_yd(mod).ok
