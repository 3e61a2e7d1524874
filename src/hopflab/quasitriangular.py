"""Coquasitriangular and quasitriangular structures, their cocycle/dual
cocycle deformations, and the induced Yetter-Drinfeld structures.

R ∈ (H⊗H)* is an n×n Matrix of values R(e_i⊗e_j); ℛ ∈ H⊗H is an n×n Matrix
of coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hopf import HopfAlgebra
from .linalg import Bilinear, Matrix, Tensor
from .report import CheckReport, VerificationError, first_mismatch
from .twist import (conv_inverse2, convolve2, eps_eps, eval2, hh_inverse,
                    hh_mul, deform, deform_dual)


@dataclass
class CqtStructure:
    host: HopfAlgebra
    r: Matrix
    r_inv: Matrix


@dataclass
class QtStructure:
    host: HopfAlgebra
    rr: Matrix
    rr_inv: Matrix


def cqt_structure(host, r, r_inv=None):
    if r_inv is None:
        r_inv = conv_inverse2(host, r)
        if r_inv is None:
            raise VerificationError("R is not convolution invertible")
    return CqtStructure(host, r, r_inv)


def qt_structure(host, rr, rr_inv=None):
    if rr_inv is None:
        rr_inv = hh_inverse(host, rr)
        if rr_inv is None:
            raise VerificationError("ℛ is not invertible in H⊗H")
    return QtStructure(host, rr, rr_inv)


def verify_cqt(c):
    """CQT1-CQT4 plus the equivalent forms CQT4' and CQT4''."""
    h = c.host
    n = h.dim
    f = h.field
    r = c.r
    e, every = h.basis_vec, range(n)
    rep = CheckReport()

    bad = first_mismatch((every,), lambda i: (
        (eval2(r, i, h.unit), eval2(r, h.unit, i)),
        (h.counit[i], h.counit[i])))
    rep.add("CQT1", bad is None, bad)

    ee = eps_eps(h)
    rep.add("invertible",
            convolve2(h, r, c.r_inv) == ee and convolve2(h, c.r_inv, r) == ee)

    def cqt2(g, x, l):
        lhs = f.zero
        for k, cm in h.mul.row(x, l):
            v = r.data[g][k]
            if v:
                lhs = lhs + cm * v
        rhs = f.zero
        for a, b, ca in h.delta.terms(g):
            v1 = r.data[a][l]
            if v1:
                v2 = r.data[b][x]
                if v2:
                    rhs = rhs + ca * v1 * v2
        return lhs, rhs

    bad = first_mismatch((every,) * 3, cqt2)
    rep.add("CQT2", bad is None, bad, "R(g⊗hl) = ΣR(g1⊗l)R(g2⊗h)")

    def cqt3(g, x, l):
        lhs = f.zero
        for k, cm in h.mul.row(x, l):
            v = r.data[k][g]
            if v:
                lhs = lhs + cm * v
        rhs = f.zero
        for a, b, ca in h.delta.terms(g):
            v1 = r.data[x][a]
            if v1:
                v2 = r.data[l][b]
                if v2:
                    rhs = rhs + ca * v1 * v2
        return lhs, rhs

    bad = first_mismatch((every,) * 3, cqt3)
    rep.add("CQT3", bad is None, bad, "R(hl⊗g) = ΣR(h⊗g1)R(l⊗g2)")

    def cqt4(g, x):
        lhs = [f.zero] * n
        rhs = [f.zero] * n
        for a, b, ca in h.delta.terms(g):
            for cc, d, cd in h.delta.terms(x):
                w = ca * cd
                v = r.data[a][cc]
                if v:
                    for k, cm in h.mul.row(b, d):
                        lhs[k] = lhs[k] + w * v * cm
                v2 = r.data[b][d]
                if v2:
                    for k, cm in h.mul.row(cc, a):
                        rhs[k] = rhs[k] + w * v2 * cm
        return lhs, rhs

    bad = first_mismatch((every,) * 2, cqt4)
    rep.add("CQT4", bad is None, bad,
            "ΣR(g1⊗h1)g2h2 = ΣR(g2⊗h2)h1g1")

    def cqt4_prime(g, x):
        lhs = [f.zero] * n
        for a, b, ca in h.delta.terms(g):
            v = r.data[b][x]
            if v:
                lhs[a] = lhs[a] + ca * v
        rhs = [f.zero] * n
        for (x1, x2, x3), w in h.copower(x, 3):
            for a, b, ca in h.delta.terms(g):
                v = r.data[a][x2]
                if not v:
                    continue
                vec = h.mul_vec(h.S_basis(x1), e(b))
                vec = h.mul_vec(vec, e(x3))
                for k, cv in enumerate(vec):
                    if cv:
                        rhs[k] = rhs[k] + w * ca * v * cv
        return lhs, rhs

    bad = first_mismatch((every,) * 2, cqt4_prime)
    rep.add("CQT4'", bad is None, bad,
            "Σg1R(g2⊗h) = ΣR(g1⊗h2)S(h1)g2h3")

    def cqt4_second(g, x):
        lhs = [f.zero] * n
        for a, b, ca in h.delta.terms(x):
            v = r.data[g][b]
            if v:
                lhs[a] = lhs[a] + ca * v
        rhs = [f.zero] * n
        for (g1, g2, g3), w in h.copower(g, 3):
            for a, b, ca in h.delta.terms(x):
                v = r.data[g2][a]
                if not v:
                    continue
                vec = h.mul_vec(h.mul.dense_row(g3, b), h.Sinv_basis(g1))
                for k, cv in enumerate(vec):
                    if cv:
                        rhs[k] = rhs[k] + w * ca * v * cv
        return lhs, rhs

    bad = first_mismatch((every,) * 2, cqt4_second)
    rep.add("CQT4''", bad is None, bad,
            "Σh1R(g⊗h2) = ΣR(g2⊗h1)g3h2S⁻¹(g1)")
    return rep


def verify_qt(q):
    """QT1-QT4 in H⊗H⊗H."""
    h = q.host
    n = h.dim
    f = h.field
    rr = q.rr
    rep = CheckReport()
    terms = [(i, j, rr.data[i][j]) for i in range(n) for j in range(n)
             if rr.data[i][j]]

    def qt1():
        lhs = {}
        for i, j, x in terms:
            for a, b, c in h.delta.terms(i):
                key = (a, b, j)
                lhs[key] = lhs.get(key, f.zero) + x * c
        rhs = {}
        for i, j, x in terms:
            for p, qq, y in terms:
                for k, cm in h.mul.row(j, qq):
                    key = (i, p, k)
                    rhs[key] = rhs.get(key, f.zero) + x * y * cm
        return lhs, rhs

    bad = first_mismatch((), qt1)
    rep.add("QT1", bad is None, bad, "ΣΔ(ℛ1)⊗ℛ2 = Σℛ1⊗r1⊗ℛ2r2")

    left = [f.zero] * n
    right = [f.zero] * n
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
                lhs[key] = lhs.get(key, f.zero) + x * c
        rhs = {}
        for i, j, x in terms:
            for p, qq, y in terms:
                for k, cm in h.mul.row(i, p):
                    key = (k, qq, j)
                    rhs[key] = rhs.get(key, f.zero) + x * y * cm
        return lhs, rhs

    bad = first_mismatch((), qt3)
    rep.add("QT3", bad is None, bad, "Σℛ1⊗Δ(ℛ2) = Σℛ1r1⊗r2⊗ℛ2")

    def qt4(i):
        lhs = Matrix.zeros(f, n, n)
        rhs = Matrix.zeros(f, n, n)
        for a, b, c in h.delta.terms(i):
            lhs.data[b][a] = lhs.data[b][a] + c
            rhs.data[a][b] = rhs.data[a][b] + c
        return hh_mul(h, lhs, rr), hh_mul(h, rr, rhs)

    bad = first_mismatch((range(n),), qt4)
    rep.add("QT4", bad is None, bad, "Δcop(h)ℛ = ℛΔ(h)")
    return rep


def deform_cqt(c, s, verify=True):
    """R^σ = (στ)*R*σ⁻¹ on H^σ."""
    if c.host is not s.host and not c.host.structures_equal(s.host):
        raise VerificationError("deform_cqt: host mismatch")
    h = c.host
    n = h.dim
    f = h.field
    out = Matrix.zeros(f, n, n)
    for g in range(n):
        cg = h.copower(g, 3)
        for x in range(n):
            cx = h.copower(x, 3)
            acc = f.zero
            for (g1, g2, g3), w1 in cg:
                for (x1, x2, x3), w2 in cx:
                    v1 = s.sigma.data[x1][g1]
                    if not v1:
                        continue
                    v2 = c.r.data[g2][x2]
                    if not v2:
                        continue
                    v3 = s.sigma_inv.data[g3][x3]
                    if v3:
                        acc = acc + w1 * w2 * v1 * v2 * v3
            out.data[g][x] = acc
    host_s = deform(s, verify=False)
    rs = cqt_structure(host_s, out)
    if verify:
        verify_cqt(rs).require("deform_cqt")
    return rs


def deform_qt(q, d, verify=True):
    """ℛ_θ = τ(θ)·ℛ·θ⁻¹ on H_θ."""
    if q.host is not d.host and not q.host.structures_equal(d.host):
        raise VerificationError("deform_qt: host mismatch")
    h = q.host
    tau_theta = d.theta.transpose()
    new = hh_mul(h, tau_theta, hh_mul(h, q.rr, d.theta_inv))
    host_t = deform_dual(d, verify=False)
    qt = qt_structure(host_t, new)
    if verify:
        verify_qt(qt).require("deform_qt")
    return qt


def yd_from_comodule(c, coaction, verify=True):
    """YD module on a right comodule via the R-induced action
    h▷₁m = Σ m₀ R(h⊗m₁); every ▷₁ is computed here."""
    from . import yd as _yd
    h = c.host
    n = h.dim
    m = coaction.shape[0]
    assert coaction.shape == (m, m, n)
    coact, ms = Bilinear(coaction).dense_row, range(m)
    action = Tensor.from_rows(h.field, (n, m, m), [
        [[eval2(c.r, i, coact(p, q)) for q in ms] for p in ms]
        for i in range(n)])
    mod = _yd.YdModule(h, m, action, coaction)
    if verify:
        _yd.verify_yd(mod).require("yd_from_comodule")
    return mod


def yd_from_module(q, action, verify=True):
    """YD module on a left module via the ℛ-induced coaction
    a ↦ Σ (ℛ²·a)⊗ℛ¹."""
    from . import yd as _yd
    h = q.host
    n = h.dim
    m = action.shape[1]
    assert action.shape == (n, m, m)
    f = h.field
    act, hs, ms = Bilinear(action), range(n), range(m)

    def coaction(p):
        v = [f.zero] * m
        v[p] = f.one
        # images[i] = Σ_j ℛ[i][j] e_j·v_p, the coefficient vector of e_i
        images = [act.apply(q.rr.data[i], v) for i in hs]
        return [[images[i][qx] for i in hs] for qx in ms]

    mod = _yd.YdModule(h, m, action, Tensor.from_rows(
        f, (m, m, n), [coaction(p) for p in ms]))
    if verify:
        _yd.verify_yd(mod).require("yd_from_module")
    return mod
