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
from .fields import complements
from .report import CheckReport, VerificationError, first_mismatch
from .twist import (are_conv_inverse, conv_inverse2, convolve2, counit_legs,
                    deform, deform_dual, eval2_lifted, first_counit_mismatch,
                    hh_mul, hhh_delta, hhh_leg, hhh_mul)


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
    """CQT1-CQT4 plus the equivalent forms CQT4' and CQT4''.  Each side is
    summed on lifted values (fields.Field.lift), the words of CQT4' and
    CQT4'' from h.antipode_words and h.word_table, and the two sides are
    put on one scale and compared reduced."""
    h = c.host
    n = h.dim
    f = h.field
    every = range(n)
    rep = CheckReport()
    (rows, sr), (mul, sm) = c.r.lifted_rows(), h.mul.lifted_rows()
    (delta, sd), (copower3, s3) = h.delta.lifted_terms(), h.lifted_copower(3)
    red, vec = f.reduce, f.reduce_vec

    bad = first_counit_mismatch(h, c.r)
    rep.add("CQT1", bad is None, bad)

    rep.add("invertible", are_conv_inverse(h, c.r, c.r_inv))

    kl, kr = complements(sm * sr, sd * sr * sr)

    def cqt2(g, x, l):
        lhs = sum(cm * rows[g][k] for k, cm in mul[x][l])
        rhs = 0
        for a, b, ca in delta[g]:
            v1 = rows[a][l]
            if v1:
                rhs += ca * v1 * rows[b][x]
        return red(lhs * kl, 1), red(rhs * kr, 1)

    bad = first_mismatch((every,) * 3, cqt2)
    rep.add("CQT2", bad is None, bad, "R(g⊗hl) = ΣR(g1⊗l)R(g2⊗h)")

    def cqt3(g, x, l):
        lhs = sum(cm * rows[k][g] for k, cm in mul[x][l])
        rhs = 0
        for a, b, ca in delta[g]:
            v1 = rows[x][a]
            if v1:
                rhs += ca * v1 * rows[l][b]
        return red(lhs * kl, 1), red(rhs * kr, 1)

    bad = first_mismatch((every,) * 3, cqt3)
    rep.add("CQT3", bad is None, bad, "R(hl⊗g) = ΣR(h⊗g1)R(l⊗g2)")

    def cqt4(g, x):
        # both sides are at one scale
        lhs, rhs = [0] * n, [0] * n
        for a, b, ca in delta[g]:
            for cc, d, cd in delta[x]:
                w = ca * cd
                v = rows[a][cc]
                if v:
                    for k, cm in mul[b][d]:
                        lhs[k] += w * v * cm
                v2 = rows[b][d]
                if v2:
                    for k, cm in mul[cc][a]:
                        rhs[k] += w * v2 * cm
        return vec(lhs, 1), vec(rhs, 1)

    bad = first_mismatch((every,) * 2, cqt4)
    rep.add("CQT4", bad is None, bad,
            "ΣR(g1⊗h1)g2h2 = ΣR(g2⊗h2)h1g1")

    s_words, ss = h.antipode_words(0)
    kp, rp = complements(sd * sr, s3 * sd * sr * ss * sm * sm)

    def cqt4_prime(g, x):
        lhs = [0] * n
        for a, b, ca in delta[g]:
            lhs[a] += ca * rows[b][x] * kp
        rhs = [0] * n
        for (x1, x2, x3), w in copower3[x]:
            for a, b, ca in delta[g]:
                v = rows[a][x2]
                if not v:
                    continue
                wv = w * ca * v * rp
                for t, cw in s_words[x1][b]:        # S(e_x1)·e_b·e_x3
                    for k, cm in mul[t][x3]:
                        rhs[k] += wv * cw * cm
        return vec(lhs, 1), vec(rhs, 1)

    bad = first_mismatch((every,) * 2, cqt4_prime)
    rep.add("CQT4'", bad is None, bad,
            "Σg1R(g2⊗h) = ΣR(g1⊗h2)S(h1)g2h3")

    words, sw = h.word_table()
    kq, rq = complements(sd * sr, s3 * sd * sr * sw)

    def cqt4_second(g, x):
        lhs = [0] * n
        for a, b, ca in delta[x]:
            lhs[a] += ca * rows[g][b] * kq
        rhs = [0] * n
        for (g1, g2, g3), w in copower3[g]:
            for a, b, ca in delta[x]:
                v = rows[g2][a]
                if not v:
                    continue
                wv = w * ca * v * rq
                for k, cv in words(g3, b, g1):      # (e_g3 e_b)·S⁻¹(e_g1)
                    rhs[k] += wv * cv
        return vec(lhs, 1), vec(rhs, 1)

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
    (coact, sc), (r, sr) = coaction.bilinear().lifted_rows(), \
        c.r.lifted_rows()
    action = Tensor(h.field, (n, m, m), h.field.reduce_vec(
        [eval2_lifted(r, i, row) for i in range(n) for rows in coact
         for row in rows], sc * sr))
    return _yd.YdModule(h, m, action, coaction)
