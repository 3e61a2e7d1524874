"""Coquasitriangular and quasitriangular structures, their cocycle/dual
cocycle deformations, and the induced Yetter-Drinfeld structures.

R ∈ (H⊗H)* is an n×n Matrix of values R(e_i⊗e_j); ℛ ∈ H⊗H is an n×n Matrix
of coefficients.  R^σ = (στ) * R * σ⁻¹ is a convolution on H's coalgebra,
which H^σ shares, regrouping Δ² by coassociativity alone.

The QT side is the CQT side on the dual: ℛ ∈ H⊗H is a CQT structure on
H* = hopf.dual_hopf(H) through the same matrix, H⊗H's product is the
convolution of (H*⊗H*)*, and ℛ_θ = τ(θ)ℛθ⁻¹ is R^{σ_θ} on H*.  (The
ℛ-induced coaction on a left H-module M, which only the tests build, is
likewise the R-induced action on M* = yd.dual_module(M).)  verify_qt stays
an independent second form in H⊗H⊗H: QT1 is (Δ⊗id)ℛ = ℛ₁₃ℛ₂₃ and QT3 is
(id⊗Δ)ℛ = ℛ₁₃ℛ₁₂ on the H⊗H⊗H arithmetic of twist, which
twist.verify_dual_cocycle shares; neither goes through σ_θ or H*.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hopf import HopfAlgebra, dual_hopf
from .linalg import Matrix, Tensor, check_shape
from .report import CheckReport, VerificationError, first_mismatch
from .twist import (are_conv_inverse, conv_inverse2, convolve2, counit_legs,
                    deform, deform_dual, eval2, hh_mul, hhh_delta, hhh_leg,
                    hhh_mul)


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
        rr_inv = conv_inverse2(dual_hopf(host), rr)
        if rr_inv is None:
            raise VerificationError("ℛ is not invertible in H⊗H")
    return QtStructure(host, rr, rr_inv)


def verify_cqt(c):
    """CQT1-CQT4 plus the equivalent forms CQT4' and CQT4''."""
    h = c.host
    n = h.dim
    f = h.field
    r = c.r
    every = range(n)
    rep = CheckReport()
    unit = [(t, x) for t, x in enumerate(h.unit) if x]

    bad = first_mismatch((every,), lambda i: (
        (eval2(r, i, unit), eval2(r, unit, i)),
        (h.counit[i], h.counit[i])))
    rep.add("CQT1", bad is None, bad)

    rep.add("invertible", are_conv_inverse(h, r, c.r_inv))

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
                word = h.product(h.product(h.antipodes.rows(0)[x1],
                                           [(b, f.one)]), [(x3, f.one)])
                for k, cv in word:
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
                for k, cv in h.product(h.mul.row(g3, b),
                                       h.antipodes.rows(1)[g1]):
                    rhs[k] = rhs[k] + w * ca * v * cv
        return lhs, rhs

    bad = first_mismatch((every,) * 2, cqt4_second)
    rep.add("CQT4''", bad is None, bad,
            "Σh1R(g⊗h2) = ΣR(g2⊗h1)g3h2S⁻¹(g1)")
    return rep


def verify_qt(q):
    """QT1-QT4 in H⊗H⊗H; ℛ₁₃ is built once for QT1 and QT3."""
    h = q.host
    n = h.dim
    f = h.field
    rr = q.rr
    rep = CheckReport()
    r13 = hhh_leg(h, rr, 1)

    bad = first_mismatch((), lambda: (hhh_delta(h, rr, 0),
                                      hhh_mul(h, r13, hhh_leg(h, rr, 0))))
    rep.add("QT1", bad is None, bad, "ΣΔ(ℛ1)⊗ℛ2 = Σℛ1⊗r1⊗ℛ2r2")

    rep.add("QT2", counit_legs(h, rr) == (h.unit, h.unit))

    bad = first_mismatch((), lambda: (hhh_delta(h, rr, 1),
                                      hhh_mul(h, r13, hhh_leg(h, rr, 2))))
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


def deform_cqt(c, s):
    """R^σ = (στ)*R*σ⁻¹ on H^σ, with inverse σ*R⁻¹*(σ⁻¹τ): the flip τ is
    an automorphism of the convolution algebra."""
    if c.host is not s.host and not c.host.structures_equal(s.host):
        raise VerificationError("deform_cqt: host mismatch")
    h = c.host
    sig, inv = s.sigma, s.sigma_inv
    r = convolve2(h, convolve2(h, sig.transpose(), c.r), inv)
    r_inv = convolve2(h, convolve2(h, sig, c.r_inv), inv.transpose())
    return CqtStructure(deform(s), r, r_inv)


def deform_qt(q, d):
    """ℛ_θ = τ(θ)·ℛ·θ⁻¹ on H_θ: R^{σ_θ} for ℛ read as R on H*."""
    if q.host is not d.host and not q.host.structures_equal(d.host):
        raise VerificationError("deform_qt: host mismatch")
    r = CqtStructure(d.sigma.host, q.rr, q.rr_inv)
    rs = deform_cqt(r, d.sigma)
    return QtStructure(deform_dual(d), rs.r, rs.r_inv)


def yd_from_comodule(c, coaction):
    """YD module on a right comodule via the R-induced action
    h▷₁m = Σ m₀ R(h⊗m₁); every ▷₁ is computed here."""
    from . import yd as _yd
    h = c.host
    n = h.dim
    m = coaction.shape[0]
    check_shape("coaction", coaction.shape, (m, m, n))
    coact, ms = coaction.bilinear().row, range(m)
    action = Tensor.from_rows(h.field, (n, m, m), [
        [[eval2(c.r, i, coact(p, q)) for q in ms] for p in ms]
        for i in range(n)])
    return _yd.YdModule(h, m, action, coaction)
