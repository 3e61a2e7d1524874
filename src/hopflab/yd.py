"""Yetter-Drinfeld modules and module algebras: the braiding, the
deformation functors σ̲ and θ̲ with their monoidal structures, braided
products, H-opposites, endomorphism algebras, quantum commutativity and
Azumaya certificates.

Tensor conventions (m = module dimension, n = host dimension):
    action[i,p,q]   = coefficient of v_q in e_i·v_p
    coaction[p,q,k] = coefficient of v_q⊗e_k in ρ(v_p)
The tensor product M⊗N carries h·(m⊗n) = Σ h₁·m ⊗ h₂·n and
ρ(m⊗n) = Σ (m₀⊗n₀) ⊗ n₁m₁; basis index of v_p⊗w_q is p·dim(N)+q.
mod.act, mod.coact and alg.mul read action, coaction and product through
the sparse kernel linalg.Bilinear.  σ and σ⁻¹ are paired with vectors only
by twist.eval2.  σ̲(M)'s twisted action and θ̲(M)'s coaction are computed in
both displayed forms, and report.require_agree raises at the first index
where they differ (agreed_tensor for a 3-tensor).
Linear maps are stored row-as-image; mat_mul(A, B) is "apply A, then B".
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Bilinear, Matrix, Tensor, kernel_basis, mat_mul, rank
from .report import (CheckReport, VerificationError, first_mismatch,
                     require_agree)
from .twist import deform, deform_dual, eval2


class YdModule:
    def __init__(self, host, dim, action, coaction):
        assert action.shape == (host.dim, dim, dim)
        assert coaction.shape == (dim, dim, host.dim)
        self.host = host
        self.dim = dim
        self.action = action
        self.coaction = coaction
        self.act = Bilinear(action)
        self.coact = Bilinear(coaction)
        self._coact2 = None

    def act_vec(self, hvec, mvec):
        """(Σ hvec_i e_i)·(Σ mvec_p v_p)."""
        return self.act.apply(hvec, mvec)

    def act_basis_vec(self, i, mvec):
        return self.act.apply_basis(i, mvec)

    def coact2(self, p):
        """Sparse (ρ⊗id)ρ(v_p) as [(q, k1, k2, coeff)] (m₀⊗m₁⊗m₂)."""
        if self._coact2 is None:
            self._coact2 = []
            for p2 in range(self.dim):
                terms = []
                for q0, k2, c0 in self.coact.terms(p2):
                    for q1, k1, c1 in self.coact.terms(q0):
                        terms.append((q1, k1, k2, c0 * c1))
                self._coact2.append(terms)
        return self._coact2[p]

    def basis_vec(self, p):
        v = [self.host.field.zero] * self.dim
        v[p] = self.host.field.one
        return v

    def structures_equal(self, other):
        return (self.dim == other.dim and self.action == other.action
                and self.coaction == other.coaction
                and self.host.structures_equal(other.host))

    def __repr__(self):
        return "YdModule(dim=%d over %s)" % (self.dim, self.host.name)


class YdAlgebra:
    def __init__(self, module, mult, unit):
        m = module.dim
        assert mult.shape == (m, m, m) and len(unit) == m
        self.module = module
        self.mult = mult
        self.unit = list(unit)
        self.mul = Bilinear(mult)

    @property
    def host(self):
        return self.module.host

    @property
    def dim(self):
        return self.module.dim

    def mul_vec(self, u, v):
        return self.mul.apply(u, v)

    def structures_equal(self, other):
        return (self.module.structures_equal(other.module)
                and self.mult == other.mult and self.unit == other.unit)

    def __repr__(self):
        return "YdAlgebra(dim=%d over %s)" % (self.dim, self.host.name)


@dataclass
class YdMap:
    source: YdModule
    target: YdModule
    matrix: Matrix  # row-as-image


def verify_yd(mod):
    """Module and comodule axioms plus the crossed compatibility; the
    equivalent S⁻¹-form is recomputed independently as a cross-check."""
    h = mod.host
    m = mod.dim
    zero = h.field.zero
    act, coact, e = mod.act, mod.coact, mod.basis_vec
    hs, ms = range(h.dim), range(m)
    rep = CheckReport()

    bad = first_mismatch((ms,), lambda p: (mod.act_vec(h.unit, e(p)), e(p)))
    if bad is None:
        bad = first_mismatch((hs, hs, ms), lambda i, j, p: (
            mod.act_vec(h.mul.dense_row(i, j), e(p)),
            mod.act_basis_vec(i, act.dense_row(j, p))))
    rep.add("module_axioms", bad is None, bad)

    def counit(p):
        acc = [zero] * m
        for q, k, c in coact.terms(p):
            if h.counit[k]:
                acc[q] = acc[q] + c * h.counit[k]
        return acc, e(p)

    def coassociativity(p):
        lhs = {}
        for q0, k, c in coact.terms(p):
            for q1, k1, c1 in coact.terms(q0):
                key = (q1, k1, k)
                lhs[key] = lhs.get(key, zero) + c * c1
        rhs = {}
        for q0, k, c in coact.terms(p):
            for a, b, c2 in h.delta.terms(k):
                key = (q0, a, b)
                rhs[key] = rhs.get(key, zero) + c * c2
        return lhs, rhs

    bad = first_mismatch((ms,), counit)
    if bad is None:
        bad = first_mismatch((ms,), coassociativity)
    rep.add("comodule_axioms", bad is None, bad)

    def compatibility(i, p):
        di = h.delta.terms(i)
        lhs = {}
        for a, b, ca in di:
            for q0, k, c0 in coact.terms(p):
                for q, x in act.row(a, q0):
                    w = ca * c0 * x
                    for k2, cm in h.mul.row(b, k):
                        key = (q, k2)
                        lhs[key] = lhs.get(key, zero) + w * cm
        rhs = {}
        for a, b, ca in di:
            for q0, x in act.row(b, p):
                w = ca * x
                for q, k, c0 in coact.terms(q0):
                    for k2, cm in h.mul.row(k, a):
                        key = (q, k2)
                        rhs[key] = rhs.get(key, zero) + w * c0 * cm
        return lhs, rhs

    bad = first_mismatch((hs, ms), compatibility)
    rep.add("yd_compatibility", bad is None, bad,
            "Σh1·m0⊗h2m1 = Σ(h2·m)0⊗(h2·m)1h1")

    def compatibility_sinv(i, p):
        lhs = {}
        for q0, x in act.row(i, p):
            for q, k, c0 in coact.terms(q0):
                key = (q, k)
                lhs[key] = lhs.get(key, zero) + x * c0
        rhs = {}
        for (a, b, c3), w in h.copower(i, 3):
            for q0, k, c0 in coact.terms(p):
                for q, x in act.row(b, q0):
                    w2 = w * c0 * x
                    vec = h.mul_vec(h.mul.dense_row(c3, k), h.Sinv_basis(a))
                    for k2, cv in enumerate(vec):
                        if cv:
                            key = (q, k2)
                            rhs[key] = rhs.get(key, zero) + w2 * cv
        return lhs, rhs

    bad = first_mismatch((hs, ms), compatibility_sinv)
    rep.add("yd_compatibility_sinv_form", bad is None, bad,
            "ρ(h·m) = Σh2·m0⊗h3m1S⁻¹(h1)")
    return rep


def verify_yd_algebra(alg):
    """YD module checks plus associative unital algebra, left H-module
    algebra, and right H^op-comodule algebra axioms."""
    rep = verify_yd(alg.module)
    h = alg.host
    m = alg.dim
    zero = h.field.zero
    mod = alg.module
    mul, e = alg.mul, mod.basis_vec
    hs, ms = range(h.dim), range(m)

    bad = first_mismatch((ms,), lambda p: (
        (alg.mul_vec(alg.unit, e(p)), alg.mul_vec(e(p), alg.unit)),
        (e(p), e(p))))
    if bad is None:
        bad = first_mismatch((ms,) * 3, lambda p, q, r: (
            alg.mul_vec(mul.dense_row(p, q), e(r)),
            alg.mul_vec(e(p), mul.dense_row(q, r))))
    rep.add("algebra_axioms", bad is None, bad)

    def module_algebra(i, p, q):
        rhs = [zero] * m
        for a, b, ca in h.delta.terms(i):
            w = alg.mul_vec(mod.act.dense_row(a, p), mod.act.dense_row(b, q))
            for k in range(m):
                if w[k]:
                    rhs[k] = rhs[k] + ca * w[k]
        return mod.act_basis_vec(i, mul.dense_row(p, q)), rhs

    bad = first_mismatch((hs, ms, ms), module_algebra)
    if bad is None:
        bad = first_mismatch((hs,), lambda i: (
            mod.act_basis_vec(i, alg.unit),
            [h.counit[i] * x for x in alg.unit]))
    rep.add("module_algebra", bad is None, bad,
            "h·(ab) = Σ(h1·a)(h2·b), h·1 = ε(h)1")

    def comodule_algebra(p, q):
        lhs = {}
        for k2, c in mul.row(p, q):
            for q2, k, c2 in mod.coact.terms(k2):
                key = (q2, k)
                lhs[key] = lhs.get(key, zero) + c * c2
        rhs = {}
        for p0, k1, c1 in mod.coact.terms(p):
            for q0, k2, c2 in mod.coact.terms(q):
                w = c1 * c2
                prod = mul.row(p0, q0)
                for k3, cm in h.mul.row(k2, k1):
                    for t, ct in prod:
                        key = (t, k3)
                        rhs[key] = rhs.get(key, zero) + w * cm * ct
        return lhs, rhs

    def unit_coaction():
        lhs = [[zero] * h.dim for _ in ms]
        rhs = [[zero] * h.dim for _ in ms]
        for p, x in enumerate(alg.unit):
            if x:
                for q, k, c in mod.coact.terms(p):
                    lhs[q][k] = lhs[q][k] + x * c
                for k, u in enumerate(h.unit):
                    rhs[p][k] = rhs[p][k] + x * u
        return lhs, rhs

    bad = first_mismatch((ms, ms), comodule_algebra)
    if bad is None:
        bad = first_mismatch((), unit_coaction)
    rep.add("comodule_algebra", bad is None, bad,
            "ρ(ab) = Σa0b0⊗b1a1, ρ(1) = 1⊗1")
    return rep


# -- tensor products and the braiding ---------------------------------------

def yd_tensor(ma, mb):
    """M⊗N with the diagonal action and reversed-product coaction."""
    h = ma.host
    f = h.field
    n = h.dim
    db = mb.dim
    dim = ma.dim * db
    ds = range(dim)

    def diagonal(i):
        # e_i·(v_p⊗w_q) = Σ e_i1·v_p ⊗ e_i2·w_q, one row per v_p⊗w_q
        rows = [[f.zero] * dim for _ in ds]
        for a, b, c in h.delta.terms(i):
            for p in range(ma.dim):
                rp = ma.act.row(a, p)
                for q in range(db):
                    rq = mb.act.row(b, q)
                    row = rows[p * db + q]
                    for p2, x in rp:
                        w = c * x
                        for q2, y in rq:
                            row[p2 * db + q2] = row[p2 * db + q2] + w * y
        return rows

    zeros = [f.zero] * n

    def reversed_product(src):
        # ρ(v_p⊗w_q) = Σ v_p0⊗w_q0 ⊗ k2·k1, one row per p0⊗q0; rows never
        # written share the zero row
        p, q = divmod(src, db)
        rows = [zeros] * dim
        for p0, k1, c1 in ma.coact.terms(p):
            for q0, k2, c2 in mb.coact.terms(q):
                w = c1 * c2
                t = p0 * db + q0
                if rows[t] is zeros:
                    rows[t] = zeros[:]
                row = rows[t]
                for k, cm in h.mul.row(k2, k1):
                    row[k] = row[k] + w * cm
        return rows

    action = Tensor.from_rows(f, (n, dim, dim),
                              [diagonal(i) for i in range(n)])
    coaction = Tensor.from_rows(f, (dim, dim, n),
                                [reversed_product(src) for src in ds])
    return YdModule(h, dim, action, coaction)


def braiding(ma, mb):
    """Φ(m⊗n) = Σ n₀ ⊗ n₁·m as a YdMap M⊗N → N⊗M."""
    if not ma.host.structures_equal(mb.host):
        raise VerificationError("braiding: host mismatch")
    f = ma.host.field
    da, db = ma.dim, mb.dim
    mat = Matrix.zeros(f, da * db, db * da)
    for p in range(da):
        for q in range(db):
            row = mat.data[p * db + q]
            for q0, k, c in mb.coact.terms(q):
                for p1, x in ma.act.row(k, p):
                    row[q0 * da + p1] = row[q0 * da + p1] + c * x
    return YdMap(yd_tensor(ma, mb), yd_tensor(mb, ma), mat)


def is_yd_map(f_map, rep=None, prefix=""):
    """Does the matrix commute with both the action and the coaction?"""
    if rep is None:
        rep = CheckReport()
    src, dst = f_map.source, f_map.target
    h = src.host
    if not h.structures_equal(dst.host):
        raise VerificationError("yd map between different hosts")
    mt = f_map.matrix
    zero = h.field.zero

    def linear(i, p):
        lhs = [zero] * dst.dim
        for q, x in src.act.row(i, p):
            for t, y in enumerate(mt.data[q]):
                if y:
                    lhs[t] = lhs[t] + x * y
        return lhs, dst.act_basis_vec(i, mt.data[p])

    def colinear(p):
        lhs = {}
        for q, k, c in src.coact.terms(p):
            for t, y in enumerate(mt.data[q]):
                if y:
                    key = (t, k)
                    lhs[key] = lhs.get(key, zero) + c * y
        rhs = {}
        for t, y in enumerate(mt.data[p]):
            if not y:
                continue
            for q, k, c in dst.coact.terms(t):
                key = (q, k)
                rhs[key] = rhs.get(key, zero) + y * c
        return lhs, rhs

    bad = first_mismatch((range(h.dim), range(src.dim)), linear)
    rep.add(prefix + "h_linear", bad is None, bad)
    bad = first_mismatch((range(src.dim),), colinear)
    rep.add(prefix + "h_colinear", bad is None, bad)
    return rep


# -- the σ̲ functor -----------------------------------------------------------

def agreed_tensor(what, field, shape, form, other):
    """The 3-tensor t[i,j,:] = form(i, j) of a construction with two
    displayed forms; other(i, j) must give the same rows (require_agree,
    witness (i, j, k))."""
    n0, n1, n2 = shape
    one = [[form(i, j) for j in range(n1)] for i in range(n0)]
    two = [[other(i, j) for j in range(n1)] for i in range(n0)]
    if one != two:  # only then walk the entries for the witness
        require_agree(what, (range(n0), range(n1), range(n2)),
                      lambda i, j, k: (one[i][j][k], two[i][j][k]))
    return Tensor.from_rows(field, shape, one)


def sigma_module(s, mod, host_s=None, verify=True):
    """σ̲(M): the twisted action, with the coaction unchanged.

    Both displayed forms of the twisted action are computed; they must agree.
    """
    h = mod.host
    if not h.structures_equal(s.host):
        raise VerificationError("sigma_module: host mismatch")
    n = h.dim
    m = mod.dim
    f = h.field
    sig, inv = s.sigma, s.sigma_inv

    def twisted(i, p):
        acc = [f.zero] * m
        for (a, b, c3), w in h.copower(i, 3):
            for q0, k0, c0 in mod.coact.terms(p):
                s2 = inv.data[c3][k0]
                if not s2:
                    continue
                for q1, x in mod.act.row(b, q0):
                    w2 = w * c0 * s2 * x
                    for q2, k2, c2 in mod.coact.terms(q1):
                        s1 = sig.data[k2][a]
                        if s1:
                            acc[q2] = acc[q2] + w2 * c2 * s1
        return acc

    pairings = {}   # σ(h₄m₁S⁻¹(h₂) ⊗ h₁) by (h₁, h₂, h₄, m₁), for all (i, p)

    def twisted_expanded(i, p):
        # Σ (h3·m0) σ(h4 m1 S⁻¹(h2) ⊗ h1) σ⁻¹(h5⊗m2)
        acc = [f.zero] * m
        for (a, b, c3, d, e), w in h.copower(i, 5):
            for q0, k1, k2, c0 in mod.coact2(p):
                s2 = inv.data[e][k2]
                if not s2:
                    continue
                key = (a, b, d, k1)
                s1 = pairings.get(key)
                if s1 is None:
                    u = h.mul_vec(h.mul.dense_row(d, k1), h.Sinv_basis(b))
                    s1 = pairings[key] = eval2(sig, u, a)
                if not s1:
                    continue
                w2 = w * c0 * s1 * s2
                for q, x in mod.act.row(c3, q0):
                    acc[q] = acc[q] + w2 * x
        return acc

    action = agreed_tensor("twisted-action", f, (n, m, m), twisted,
                           twisted_expanded)
    if host_s is None:
        host_s = deform(s, verify=False)
    out = YdModule(host_s, m, action,
                   Tensor(f, (m, m, n), list(mod.coaction.data)))
    if verify:
        verify_yd(out).require("sigma_module")
    return out


def eta(s, ma, mb, host_s=None):
    """η(m⊗n) = Σ m₀⊗n₀ σ⁻¹(n₁⊗m₁): σ̲M⊗σ̲N → σ̲(M⊗N), with inverse
    ξ(m⊗n) = Σ m₀⊗n₀ σ(n₁⊗m₁)."""
    h = ma.host
    f = h.field
    da, db = ma.dim, mb.dim
    dim = da * db
    mat = Matrix.zeros(f, dim, dim)
    mat_inv = Matrix.zeros(f, dim, dim)
    for p in range(da):
        for q in range(db):
            row = mat.data[p * db + q]
            row2 = mat_inv.data[p * db + q]
            for p0, k1, c1 in ma.coact.terms(p):
                for q0, k2, c2 in mb.coact.terms(q):
                    w = c1 * c2
                    v = s.sigma_inv.data[k2][k1]
                    if v:
                        row[p0 * db + q0] = row[p0 * db + q0] + w * v
                    v2 = s.sigma.data[k2][k1]
                    if v2:
                        row2[p0 * db + q0] = row2[p0 * db + q0] + w * v2
    if host_s is None:
        host_s = deform(s, verify=False)
    sa = sigma_module(s, ma, host_s, verify=False)
    sb = sigma_module(s, mb, host_s, verify=False)
    source = yd_tensor(sa, sb)
    target = sigma_module(s, yd_tensor(ma, mb), host_s, verify=False)
    ident = Matrix.identity(f, dim)
    if mat_mul(mat, mat_inv) != ident or mat_mul(mat_inv, mat) != ident:
        raise VerificationError("η and ξ are not mutually inverse")
    return YdMap(source, target, mat), mat_inv


def verify_braided_functor(s, ma, mb, host_s=None):
    """The braided square of the monoidal functor:
    η_{N,M} ∘ Φ_{σ̲M,σ̲N} = σ̲(Φ_{M,N}) ∘ η_{M,N}."""
    rep = CheckReport()
    if host_s is None:
        host_s = deform(s, verify=False)
    sa = sigma_module(s, ma, host_s, verify=False)
    sb = sigma_module(s, mb, host_s, verify=False)
    eta_ab, _ = eta(s, ma, mb, host_s)
    eta_ba, _ = eta(s, mb, ma, host_s)
    phi_sigma = braiding(sa, sb)
    phi = braiding(ma, mb)
    lhs = mat_mul(phi_sigma.matrix, eta_ba.matrix)
    rhs = mat_mul(eta_ab.matrix, phi.matrix)
    rep.add("braided_square", lhs == rhs)
    rep.merge(is_yd_map(eta_ab), prefix="eta_")
    rep.merge(is_yd_map(phi_sigma), prefix="phi_sigma_")
    return rep


def sigma_algebra(s, alg, host_s=None, verify=True):
    """σ̲(A) with product a•b = Σ a₀b₀ σ⁻¹(b₁⊗a₁)."""
    mod = alg.module
    h = mod.host
    f = h.field
    m = alg.dim
    if host_s is None:
        host_s = deform(s, verify=False)
    smod = sigma_module(s, mod, host_s, verify=False)

    def product(p, q):
        acc = [f.zero] * m
        for p0, k1, c1 in mod.coact.terms(p):
            for q0, k2, c2 in mod.coact.terms(q):
                v = s.sigma_inv.data[k2][k1]
                if not v:
                    continue
                w = c1 * c2 * v
                for t, cm in alg.mul.row(p0, q0):
                    acc[t] = acc[t] + w * cm
        return acc

    ms = range(m)
    mult = Tensor.from_rows(f, (m, m, m),
                            [[product(p, q) for q in ms] for p in ms])
    out = YdAlgebra(smod, mult, list(alg.unit))
    if verify:
        verify_yd_algebra(out).require("sigma_algebra")
    return out


def zeta_iso(mu, mod, cob=None, host_s=None):
    """ζ(m) = Σ m₀ μ(m₁): M → σ̲(M) for the coboundary cocycle of μ."""
    from .twist import coboundary_from
    h = mod.host
    f = h.field
    m = mod.dim
    if cob is None:
        cob = coboundary_from(mu)
    if host_s is None:
        host_s = deform(cob, verify=False)
    mat = Matrix.zeros(f, m, m)
    for p in range(m):
        for q, k, c in mod.coact.terms(p):
            if mu.mu[k]:
                mat.data[p][q] = mat.data[p][q] + c * mu.mu[k]
    smod = sigma_module(cob, mod, host_s, verify=False)
    if rank(mat) != m:
        raise VerificationError("ζ is not invertible")
    return YdMap(mod, smod, mat), cob


def zeta_triangle(mu, ma, mb, cob=None, host_s=None):
    """ζ_{M⊗N} = η_{M,N} ∘ (ζ_M⊗ζ_N), matrix-exactly."""
    from .twist import coboundary_from
    if cob is None:
        cob = coboundary_from(mu)
    if host_s is None:
        host_s = deform(cob, verify=False)
    za, _ = zeta_iso(mu, ma, cob, host_s)
    zb, _ = zeta_iso(mu, mb, cob, host_s)
    zab, _ = zeta_iso(mu, yd_tensor(ma, mb), cob, host_s)
    eta_ab, _ = eta(cob, ma, mb, host_s)
    f = ma.host.field
    da, db = ma.dim, mb.dim
    tens = Matrix.zeros(f, da * db, da * db)
    for p in range(da):
        for q in range(db):
            row = tens.data[p * db + q]
            for p2, x in enumerate(za.matrix.data[p]):
                if not x:
                    continue
                for q2, y in enumerate(zb.matrix.data[q]):
                    if y:
                        row[p2 * db + q2] = row[p2 * db + q2] + x * y
    return mat_mul(tens, eta_ab.matrix) == zab.matrix


# -- the θ̲ functor -----------------------------------------------------------

def theta_module(d, mod, host_t=None, verify=True):
    """θ̲(M): same action, coaction conjugated through θ.

    Both displayed forms of ρ_θ are computed and must agree.
    """
    h = mod.host
    if not h.structures_equal(d.host):
        raise VerificationError("theta_module: host mismatch")
    n = h.dim
    m = mod.dim
    f = h.field
    zero = f.zero
    co = {}
    for p in range(m):
        for a in range(n):
            for b in range(n):
                x = d.theta.data[a][b]
                if not x:
                    continue
                for c in range(n):
                    for e in range(n):
                        y = d.theta_inv.data[c][e]
                        if not y:
                            continue
                        w = x * y
                        for q0, u in mod.act.row(e, p):
                            w2 = w * u
                            for q1, k, cc in mod.coact.terms(q0):
                                hvec = h.mul_vec(h.mul.dense_row(b, k),
                                                 h.basis_vec(c))
                                for q2, v in mod.act.row(a, q1):
                                    w3 = w2 * cc * v
                                    for k2, cv in enumerate(hvec):
                                        if cv:
                                            key = (p, q2, k2)
                                            co[key] = co.get(key, zero) \
                                                + w3 * cv

    co2 = {}
    for p in range(m):
        for a in range(n):
            for b in range(n):
                x = d.theta.data[a][b]
                if not x:
                    continue
                for c in range(n):
                    for e in range(n):
                        y = d.theta_inv.data[c][e]
                        if not y:
                            continue
                        w = x * y
                        for (e1, e2, e3), wd in h.copower(e, 3):
                            first = h.mul.dense_row(a, e2)
                            for q0, k0, c0 in mod.coact.terms(p):
                                u = mod.act_vec(first, mod.basis_vec(q0))
                                hvec = h.mul_vec(h.mul.dense_row(b, e3),
                                                 h.mul_vec(h.basis_vec(k0),
                                                           h.mul_vec(
                                                               h.Sinv_basis(e1),
                                                               h.basis_vec(c))))
                                for q2 in range(m):
                                    if not u[q2]:
                                        continue
                                    w3 = w * wd * c0 * u[q2]
                                    for k2, cv in enumerate(hvec):
                                        if cv:
                                            key = (p, q2, k2)
                                            co2[key] = co2.get(key, zero) \
                                                + w3 * cv
    require_agree("ρ_θ", (), lambda: (co, co2))
    ms = range(m)
    coaction = Tensor.from_rows(f, (m, m, n), [
        [[co.get((p, q, k), zero) for k in range(n)] for q in ms] for p in ms])
    if host_t is None:
        host_t = deform_dual(d, verify=False)
    out = YdModule(host_t, m, Tensor(f, (n, m, m), list(mod.action.data)),
                   coaction)
    if verify:
        verify_yd(out).require("theta_module")
    return out


def theta_phi(d, ma, mb, host_t=None):
    """φ(m⊗n) = θ⁻¹·(m⊗n): θ̲M⊗θ̲N → θ̲(M⊗N)."""
    h = ma.host
    f = h.field
    da, db = ma.dim, mb.dim
    dim = da * db
    mat = Matrix.zeros(f, dim, dim)
    for p in range(da):
        for q in range(db):
            row = mat.data[p * db + q]
            for c in range(h.dim):
                for e in range(h.dim):
                    y = d.theta_inv.data[c][e]
                    if not y:
                        continue
                    v = mb.act.row(e, q)
                    for p1, x in ma.act.row(c, p):
                        w = y * x
                        for q1, z in v:
                            row[p1 * db + q1] = row[p1 * db + q1] + w * z
    if host_t is None:
        host_t = deform_dual(d, verify=False)
    ta = theta_module(d, ma, host_t, verify=False)
    tb = theta_module(d, mb, host_t, verify=False)
    source = yd_tensor(ta, tb)
    target = theta_module(d, yd_tensor(ma, mb), host_t, verify=False)
    return YdMap(source, target, mat)


def verify_theta_braided(d, ma, mb, host_t=None):
    """φ_{N,M} ∘ Φ_{θ̲M,θ̲N} = θ̲(Φ_{M,N}) ∘ φ_{M,N}."""
    rep = CheckReport()
    if host_t is None:
        host_t = deform_dual(d, verify=False)
    ta = theta_module(d, ma, host_t, verify=False)
    tb = theta_module(d, mb, host_t, verify=False)
    phi_ab = theta_phi(d, ma, mb, host_t)
    phi_ba = theta_phi(d, mb, ma, host_t)
    br_t = braiding(ta, tb)
    br = braiding(ma, mb)
    lhs = mat_mul(br_t.matrix, phi_ba.matrix)
    rhs = mat_mul(phi_ab.matrix, br.matrix)
    rep.add("theta_braided_square", lhs == rhs)
    rep.add("phi_invertible", rank(phi_ab.matrix) == phi_ab.matrix.rows)
    rep.merge(is_yd_map(phi_ab), prefix="phi_")
    return rep


def theta_algebra(d, alg, host_t=None, verify=True):
    """θ̲(A) with product a•b = Σ ((θ⁻¹)¹·a)((θ⁻¹)²·b)."""
    mod = alg.module
    h = mod.host
    f = h.field
    m = alg.dim
    if host_t is None:
        host_t = deform_dual(d, verify=False)
    tmod = theta_module(d, mod, host_t, verify=False)

    def product(p, q):
        acc = [f.zero] * m
        for c in range(h.dim):
            for e in range(h.dim):
                y = d.theta_inv.data[c][e]
                if not y:
                    continue
                w = alg.mul_vec(mod.act.dense_row(c, p),
                                mod.act.dense_row(e, q))
                for t in range(m):
                    if w[t]:
                        acc[t] = acc[t] + y * w[t]
        return acc

    ms = range(m)
    mult = Tensor.from_rows(f, (m, m, m),
                            [[product(p, q) for q in ms] for p in ms])
    out = YdAlgebra(tmod, mult, list(alg.unit))
    if verify:
        verify_yd_algebra(out).require("theta_algebra")
    return out


# -- algebra constructions ----------------------------------------------------

def braided_product(alga, algb, cqt=None, verify=True):
    """A#B with (a#b)(c#d) = Σ ac₀ # (c₁·b)d.

    With a CQT structure the braided product #_R is taken instead: both
    factors are first re-equipped with the R-induced action ▷₁.
    """
    if not alga.host.structures_equal(algb.host):
        raise VerificationError("braided_product: host mismatch")
    from .quasitriangular import yd_from_comodule
    moda, modb = alga.module, algb.module
    if cqt is not None:
        moda = yd_from_comodule(cqt, moda.coaction, verify=False)
        modb = yd_from_comodule(cqt, modb.coaction, verify=False)
    h = alga.host
    f = h.field
    da, db = moda.dim, modb.dim
    dim = da * db

    def product(src1, src2):
        # (a#b)(c#d) for a#b = v_p#w_q and c#d = v_r#w_s
        (p, q), (r, s2) = divmod(src1, db), divmod(src2, db)
        acc = [f.zero] * dim
        for r0, k, c in moda.coact.terms(r):
            v = algb.mul_vec(modb.act.dense_row(k, q), modb.basis_vec(s2))
            for p1, x in alga.mul.row(p, r0):
                w = c * x
                for q1, y in enumerate(v):
                    if y:
                        acc[p1 * db + q1] = acc[p1 * db + q1] + w * y
        return acc

    ds = range(dim)
    mult = Tensor.from_rows(f, (dim, dim, dim),
                            [[product(u, v) for v in ds] for u in ds])
    unit = [f.zero] * dim
    for p, x in enumerate(alga.unit):
        if not x:
            continue
        for q, y in enumerate(algb.unit):
            if y:
                unit[p * db + q] = x * y
    out = YdAlgebra(yd_tensor(moda, modb), mult, unit)
    if verify:
        verify_yd_algebra(out).require("braided_product")
    return out


def h_opposite(alg, verify=True):
    """Ā: same YD module, multiplication ā∘b̄ = Σ b₀ (b₁·a)."""
    mod = alg.module
    f = alg.host.field
    m = alg.dim

    def product(p, q):
        acc = [f.zero] * m
        for q0, k, c in mod.coact.terms(q):
            v = alg.mul_vec(mod.basis_vec(q0), mod.act.dense_row(k, p))
            for t in range(m):
                if v[t]:
                    acc[t] = acc[t] + c * v[t]
        return acc

    ms = range(m)
    mult = Tensor.from_rows(f, (m, m, m),
                            [[product(p, q) for q in ms] for p in ms])
    out = YdAlgebra(mod, mult, list(alg.unit))
    if verify:
        verify_yd_algebra(out).require("h_opposite")
    return out


def end_algebra(mod, verify=True):
    """End(M) with (h·f)(x) = Σ h₁·f(S(h₂)·x) and the dual coaction.

    Basis E_{pq} (v_p ↦ v_q) has index p·m+q; the product is composition
    (f·g)(x) = f(g(x)).
    """
    h = mod.host
    f = h.field
    n = h.dim
    m = mod.dim
    dim = m * m
    ms, ds = range(m), range(dim)
    one = f.one

    def compose(e1, e2):
        # (E_pq·E_rs)(v_x) = E_pq(δ_{xr} v_s) = δ_{xr} δ_{sp} v_q
        (p, q), (r, s2) = divmod(e1, m), divmod(e2, m)
        out = [f.zero] * dim
        if s2 == p:
            out[r * m + q] = one
        return out

    unit = [f.zero] * dim
    for p in ms:
        unit[p * m + p] = one

    # s_act[b][r] = S(e_b)·v_r
    s_act = [[mod.act_vec(h.S_basis(b), mod.basis_vec(r)) for r in ms]
             for b in range(n)]

    def conjugate(i, src):
        # (e_i·E_pq)(v_r) = Σ ca (e_a)·E_pq(S(e_b)·v_r)
        p, q = divmod(src, m)
        acc = [f.zero] * dim
        for a, b, ca in h.delta.terms(i):
            for r in ms:
                sv = s_act[b][r]
                if not sv[p]:
                    continue
                w = ca * sv[p]
                for q2, x in mod.act.row(a, q):
                    acc[r * m + q2] = acc[r * m + q2] + w * x
        return acc

    def dual_coaction(src):
        # Σ f₀(v_r)⊗f₁ = Σ coact[r,p,k]·coact[q,q',l] v_q'⊗S⁻¹(e_k)e_l
        p, q = divmod(src, m)
        rows = [[f.zero] * n for _ in ds]
        for r in ms:
            for p2, k, c1 in mod.coact.terms(r):
                if p2 != p:
                    continue
                for q2, l, c2 in mod.coact.terms(q):
                    w = c1 * c2
                    row = rows[r * m + q2]
                    hv = h.mul_vec(h.Sinv_basis(k), h.basis_vec(l))
                    for k2, cv in enumerate(hv):
                        if cv:
                            row[k2] = row[k2] + w * cv
        return rows

    mult = Tensor.from_rows(f, (dim, dim, dim),
                            [[compose(u, v) for v in ds] for u in ds])
    action = Tensor.from_rows(f, (n, dim, dim),
                              [[conjugate(i, src) for src in ds]
                               for i in range(n)])
    coaction = Tensor.from_rows(f, (dim, dim, n),
                                [dual_coaction(src) for src in ds])
    out = YdAlgebra(YdModule(h, dim, action, coaction), mult, unit)
    if verify:
        verify_yd_algebra(out).require("end_algebra")
    return out


def quantum_commutative(alg):
    """ab = Σ b₀ (b₁·a) on all basis pairs, that is A equals its
    H-opposite."""
    return h_opposite(alg, verify=False).mult == alg.mult


def generating_set(alg):
    """A small set of basis vectors generating alg as a unital algebra.

    Greedy: walk the basis, keep an element when it is outside the unital
    subalgebra generated so far, and re-close.
    """
    from .linalg import row_space_echelon, in_span
    f = alg.host.field
    m = alg.dim
    gens = []
    span = row_space_echelon(f, [alg.unit], m)

    def close():
        nonlocal span
        while True:
            before = len(span)
            new = []
            for u in list(span):
                for g in gens:
                    gv = alg.module.basis_vec(g)
                    new.append(alg.mul_vec(u, gv))
                    new.append(alg.mul_vec(gv, u))
            span = row_space_echelon(f, span + new, m)
            if len(span) == before:
                return

    for e in range(m):
        if len(span) == m:
            break
        if in_span(f, alg.module.basis_vec(e), span, m):
            continue
        gens.append(e)
        close()
    return gens


def azumaya_check(alg):
    """Builds F: A#Ā → End(A) and G: Ā#A → End(A)^op and certifies
    bijectivity by rank; F is additionally checked to be an algebra map
    into End(A) (on a generating set, which suffices by induction)."""
    rep = CheckReport()
    mod = alg.module
    h = alg.host
    f = h.field
    m = alg.dim
    dim = m * m

    fmat = Matrix.zeros(f, dim, dim)
    for p in range(m):
        for q in range(m):
            row = fmat.data[p * m + q]
            # F(a#b̄)(x) = Σ a x₀ (x₁·b)
            for x in range(m):
                for x0, k, c in mod.coact.terms(x):
                    u = alg.mul_vec(mod.basis_vec(p),
                                    alg.mul_vec(mod.basis_vec(x0),
                                                mod.act.dense_row(k, q)))
                    for y in range(m):
                        if u[y]:
                            row[x * m + y] = row[x * m + y] + c * u[y]

    gmat = Matrix.zeros(f, dim, dim)
    for p in range(m):
        for q in range(m):
            row = gmat.data[p * m + q]
            # G(ā#b)(x) = Σ a₀ (a₁·x) b
            for x in range(m):
                for p0, k, c in mod.coact.terms(p):
                    u = alg.mul_vec(mod.basis_vec(p0),
                                    alg.mul_vec(mod.act.dense_row(k, x),
                                                mod.basis_vec(q)))
                    for y in range(m):
                        if u[y]:
                            row[x * m + y] = row[x * m + y] + c * u[y]

    rank_f = rank(fmat)
    rank_g = rank(gmat)
    rep.add("F_bijective", rank_f == dim, None, "rank %d of %d" % (rank_f, dim))
    rep.add("G_bijective", rank_g == dim, None, "rank %d of %d" % (rank_g, dim))

    bar = h_opposite(alg, verify=False)

    def sharp_with_basis(u_idx, gvec_a, gvec_b):
        """(a#b̄)(c#d̄) with (a#b̄) = basis u_idx and c, d coordinate vecs."""
        p, q = divmod(u_idx, m)
        acc = {}
        for r, xc in enumerate(gvec_a):
            if not xc:
                continue
            for r0, k, c in mod.coact.terms(r):
                u = alg.mul.dense_row(p, r0)
                w = bar.mul_vec(mod.act.dense_row(k, q), gvec_b)
                cx0 = xc * c
                for p1, x in enumerate(u):
                    if not x:
                        continue
                    cx = cx0 * x
                    for q1, y in enumerate(w):
                        if y:
                            key = p1 * m + q1
                            acc[key] = acc.get(key, f.zero) + cx * y
        return acc

    def as_end_matrix(coords):
        mt = Matrix.zeros(f, m, m)
        for x in range(m):
            row = mt.data[x]
            for y in range(m):
                row[y] = coords[x * m + y]
        return mt

    f_rows = [as_end_matrix(fmat.data[i]) for i in range(dim)]

    def f_of(flat):
        mt = Matrix.zeros(f, m, m)
        for key, val in flat.items():
            if not val:
                continue
            fr = f_rows[key].data
            for x in range(m):
                row = fr[x]
                out = mt.data[x]
                for y in range(m):
                    if row[y]:
                        out[y] = out[y] + val * row[y]
        return mt

    gens_a = generating_set(alg)
    gens_b = generating_set(bar)
    pairs = [(alg.module.basis_vec(g), list(alg.unit)) for g in gens_a]
    pairs += [(list(alg.unit), alg.module.basis_vec(g)) for g in gens_b]

    def flat(ga, gb):
        """a#b̄ for coordinate vectors a, b, as {p·m+q: coefficient}."""
        out = {}
        for p, x in enumerate(ga):
            if not x:
                continue
            for q, y in enumerate(gb):
                if y:
                    out[p * m + q] = x * y
        return out

    f_gens = [f_of(flat(ga, gb)) for ga, gb in pairs]
    # product in End(A) is composition: (f·g)(x) = f(g(x))
    bad = first_mismatch((range(len(pairs)), range(dim)), lambda gi, u: (
        f_of(sharp_with_basis(u, *pairs[gi])), mat_mul(f_gens[gi], f_rows[u])))
    # the witness is (basis index, generator index)
    rep.add("F_algebra_map", bad is None, bad and bad[::-1],
            "checked against %d generators" % len(pairs))
    rep.add("F_unital",
            f_of(flat(alg.unit, alg.unit)) == Matrix.identity(f, m))

    nonzero = any(alg.unit)
    rep.add("is_azumaya", nonzero and rank_f == dim and rank_g == dim)
    return rep


def yd_hom_basis(ma, mb):
    """Basis of Hom_YD(M, N) as row-as-image matrices.

    Unknowns are the entries T[q][t]; the constraints say T intertwines the
    action (T(e_i·v_p) = e_i·T(v_p)) and the coaction.
    """
    h = ma.host
    f = h.field
    n = h.dim
    da, db = ma.dim, mb.dim
    unknowns = da * db
    rows = []
    for i in range(n):
        for p in range(da):
            arow = ma.act.row(i, p)
            for t in range(db):
                coeffs = [f.zero] * unknowns
                for q, x in arow:
                    coeffs[q * db + t] = coeffs[q * db + t] + x
                for t2 in range(db):
                    c = mb.act.dense_row(i, t2)[t]
                    if c:
                        coeffs[p * db + t2] = coeffs[p * db + t2] - c
                rows.append(coeffs)
    for p in range(da):
        for t in range(db):
            for k in range(n):
                coeffs = [f.zero] * unknowns
                for q, k2, c in ma.coact.terms(p):
                    if k2 == k:
                        coeffs[q * db + t] = coeffs[q * db + t] + c
                for q2 in range(db):
                    c = mb.coact.dense_row(q2, t)[k]
                    if c:
                        coeffs[p * db + q2] = coeffs[p * db + q2] - c
                rows.append(coeffs)
    system = Matrix(f, len(rows), unknowns, rows)
    basis = kernel_basis(system)
    out = []
    for j in range(basis.cols):
        mat = Matrix(f, da, db, [[basis.data[p * db + t][j]
                                  for t in range(db)] for p in range(da)])
        out.append(mat)
    return out


def random_yd_map(rng, ma, mb, hom_basis=None):
    """A random YD map M → N: a random small-integer combination of a basis
    of the intertwiner space."""
    f = ma.host.field
    if hom_basis is None:
        hom_basis = yd_hom_basis(ma, mb)
    da, db = ma.dim, mb.dim
    mat = Matrix.zeros(f, da, db)
    for base in hom_basis:
        coef = f.from_int(rng.randint(-3, 3))
        if not coef:
            continue
        for p in range(da):
            for t in range(db):
                if base.data[p][t]:
                    mat.data[p][t] = mat.data[p][t] + coef * base.data[p][t]
    return YdMap(ma, mb, mat)
