"""Convolution algebra on (H⊗H)*, 2-cocycles, dual 2-cocycles and the
deformed Hopf algebras H^σ and H_θ.

A functional on H⊗H is an n×n Matrix f with f.data[i][j] = f(e_i⊗e_j); an
element of H⊗H is an n×n Matrix of coefficients.  Convolution is
(f*g)(x⊗y) = Σ f(x₁⊗y₁) g(x₂⊗y₂) with unit ε⊗ε.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hopf import HopfAlgebra, verify_hopf_axioms
from .linalg import Matrix, Tensor, mat_inverse, solve
from .report import (CheckReport, VerificationError, first_mismatch,
                     require_agree)


# -- scalar-functional helpers ---------------------------------------------

def eval2(f, u, v):
    """f(u⊗v), the one place a functional on H⊗H is paired with vectors.

    u and v are coordinate vectors, or basis indices: an int i stands for
    e_i, so f(e_i⊗v) reads row i of f and f(u⊗e_j) column j with no basis
    vector built.  Only nonzero coordinates are read.
    """
    acc = f.field.zero
    if type(u) is int:
        row = f.data[u]
        if type(v) is int:
            return row[v]
        for y, c in zip(v, row):
            if y and c:
                acc = acc + y * c
    elif type(v) is int:
        for x, row in zip(u, f.data):
            if x and row[v]:
                acc = acc + x * row[v]
    else:
        vs = [(j, y) for j, y in enumerate(v) if y]
        for x, row in zip(u, f.data):
            if x:
                for j, y in vs:
                    if row[j]:
                        acc = acc + x * y * row[j]
    return acc


def eps_eps(h):
    """The convolution unit ε⊗ε."""
    n = h.dim
    m = Matrix.zeros(h.field, n, n)
    for i in range(n):
        if not h.counit[i]:
            continue
        for j in range(n):
            if h.counit[j]:
                m.data[i][j] = h.counit[i] * h.counit[j]
    return m


def convolve2(h, f, g):
    """(f*g)(x⊗y) = Σ f(x₁⊗y₁) g(x₂⊗y₂)."""
    n = h.dim
    if f.rows != n or g.rows != n:
        raise ValueError("functional shape mismatch")
    out = Matrix.zeros(h.field, n, n)
    for x in range(n):
        dx = h.delta.terms(x)
        for y in range(n):
            dy = h.delta.terms(y)
            acc = h.field.zero
            for a, b, ca in dx:
                for c, d, cd in dy:
                    fv = f.data[a][c]
                    if fv:
                        gv = g.data[b][d]
                        if gv:
                            acc = acc + ca * cd * fv * gv
            out.data[x][y] = acc
    return out


def conv_operator2(h, f):
    """Matrix of X ↦ f*X on (H⊗H)*; entry [(x,y)][(i,j)]."""
    n = h.dim
    op = Matrix.zeros(h.field, n * n, n * n)
    for x in range(n):
        for y in range(n):
            row = op.data[x * n + y]
            for a, b, ca in h.delta.terms(x):
                for c, d, cd in h.delta.terms(y):
                    fv = f.data[a][c]
                    if fv:
                        row[b * n + d] = row[b * n + d] + ca * cd * fv
    return op


def conv_inverse2(h, f):
    """Two-sided convolution inverse of f, or None if not invertible."""
    n = h.dim
    ee = eps_eps(h)
    rhs = Matrix(h.field, n * n, 1, [[ee.data[i][j]] for i in range(n)
                                     for j in range(n)])
    x = solve(conv_operator2(h, f), rhs)
    if x is None:
        return None
    inv = Matrix(h.field, n, n, [[x.data[i * n + j][0] for j in range(n)]
                                 for i in range(n)])
    if convolve2(h, inv, f) != ee:
        raise VerificationError("left convolution inverse is not two-sided")
    return inv


def conv_inverse1(h, mu):
    """Convolution inverse of a functional on H, or None."""
    n = h.dim
    op = Matrix.zeros(h.field, n, n)
    for x in range(n):
        for a, b, c in h.delta.terms(x):
            if mu[a]:
                op.data[x][b] = op.data[x][b] + c * mu[a]
    rhs = Matrix(h.field, n, 1, [[e] for e in h.counit])
    sol = solve(op, rhs)
    if sol is None:
        return None
    nu = [sol.data[i][0] for i in range(n)]
    for x in range(n):
        acc = h.field.zero
        for a, b, c in h.delta.terms(x):
            if nu[a] and mu[b]:
                acc = acc + c * nu[a] * mu[b]
        if acc != h.counit[x]:
            raise VerificationError("one-sided inverse of 1-cocycle")
    return nu


# -- 2-cocycles --------------------------------------------------------------

@dataclass
class TwoCocycle:
    host: HopfAlgebra
    sigma: Matrix
    sigma_inv: Matrix

    def __call__(self, i, j):
        return self.sigma.data[i][j]

    def inv(self, i, j):
        return self.sigma_inv.data[i][j]


def two_cocycle(host, sigma, sigma_inv=None):
    """Attach a convolution-inverse witness; raises if σ is not invertible."""
    if sigma_inv is None:
        sigma_inv = conv_inverse2(host, sigma)
        if sigma_inv is None:
            raise VerificationError("functional is not convolution invertible")
    return TwoCocycle(host, sigma, sigma_inv)


def verify_two_cocycle(c):
    """Normalization, the cocycle identity, invertibility, and the three
    derived identities that must follow from them."""
    h = c.host
    f = h.field
    rep = CheckReport()
    sig, inv = c.sigma, c.sigma_inv
    every = range(h.dim)

    ok = eval2(sig, h.unit, h.unit) == f.one
    bad = first_mismatch((every,), lambda i: (
        (eval2(sig, i, h.unit), eval2(sig, h.unit, i)),
        (h.counit[i], h.counit[i])))
    rep.add("normalization", bad is None and ok, bad)

    ee = eps_eps(h)
    rep.add("convolution_inverse",
            convolve2(h, sig, inv) == ee and convolve2(h, inv, sig) == ee)

    sweedler2 = h.delta.terms

    # Eq-style identity checks walk all basis triples (g, h, l).
    def cocycle_identity(g, x, l):
        lhs = f.zero
        for a, b, ca in sweedler2(g):
            for cc, d, cd in sweedler2(x):
                s1 = sig.data[a][cc]
                if not s1:
                    continue
                for k, cm in h.mul.row(b, d):
                    s2 = sig.data[k][l]
                    if s2:
                        lhs = lhs + ca * cd * cm * s1 * s2
        rhs = f.zero
        for a, b, ca in sweedler2(x):
            for cc, d, cd in sweedler2(l):
                s1 = sig.data[a][cc]
                if not s1:
                    continue
                for k, cm in h.mul.row(b, d):
                    s2 = sig.data[g][k]
                    if s2:
                        rhs = rhs + ca * cd * cm * s1 * s2
        return lhs, rhs

    bad = first_mismatch((every,) * 3, cocycle_identity)
    rep.add("cocycle_identity", bad is None, bad)

    def mixed_identity(g, x, l):
        lhs = f.zero
        # Σ σ(g1 h1 ⊗ l1) σ⁻¹(g2 ⊗ h2 l2)
        for a, b, ca in sweedler2(g):
            for cc, d, cd in sweedler2(x):
                for e1, e2, ce in sweedler2(l):
                    for k1, cm1 in h.mul.row(a, cc):
                        s1 = sig.data[k1][e1]
                        if not s1:
                            continue
                        for k2, cm2 in h.mul.row(d, e2):
                            s2 = inv.data[b][k2]
                            if s2:
                                lhs = lhs + (ca * cd * ce * cm1 * cm2
                                             * s1 * s2)
        rhs = f.zero
        # Σ σ⁻¹(g ⊗ h1) σ(h2 ⊗ l)
        for cc, d, cd in sweedler2(x):
            s1 = inv.data[g][cc]
            if not s1:
                continue
            s2 = sig.data[d][l]
            if s2:
                rhs = rhs + cd * s1 * s2
        return lhs, rhs

    bad = first_mismatch((every,) * 3, mixed_identity)
    rep.add("mixed_identity", bad is None, bad,
            "σ(g1h1⊗l1)σ⁻¹(g2⊗h2l2) = σ⁻¹(g⊗h1)σ(h2⊗l)")

    def inverse_cocycle_identity(g, x, l):
        lhs = f.zero
        # Σ σ⁻¹(g1 h1 ⊗ l) σ⁻¹(g2 ⊗ h2)
        for a, b, ca in sweedler2(g):
            for cc, d, cd in sweedler2(x):
                for k, cm in h.mul.row(a, cc):
                    s1 = inv.data[k][l]
                    if s1:
                        s2 = inv.data[b][d]
                        if s2:
                            lhs = lhs + ca * cd * cm * s1 * s2
        rhs = f.zero
        # Σ σ⁻¹(g ⊗ h1 l1) σ⁻¹(h2 ⊗ l2)
        for cc, d, cd in sweedler2(x):
            for e1, e2, ce in sweedler2(l):
                for k, cm in h.mul.row(cc, e1):
                    s1 = inv.data[g][k]
                    if s1:
                        s2 = inv.data[d][e2]
                        if s2:
                            rhs = rhs + cd * ce * cm * s1 * s2
        return lhs, rhs

    bad = first_mismatch((every,) * 3, inverse_cocycle_identity)
    rep.add("inverse_cocycle_identity", bad is None, bad,
            "σ⁻¹(g1h1⊗l)σ⁻¹(g2⊗h2) = σ⁻¹(g⊗h1l1)σ⁻¹(h2⊗l2)")

    def antipode_pairing(x):
        acc = f.zero
        for idx, w in h.copower(x, 4):
            a, b, cc, d = idx
            s1 = eval2(sig, a, h.S_basis(b))
            if not s1:
                continue
            s2 = eval2(inv, h.S_basis(cc), d)
            if s2:
                acc = acc + w * s1 * s2
        return acc, h.counit[x]

    bad = first_mismatch((every,), antipode_pairing)
    rep.add("antipode_pairing", bad is None, bad,
            "σ(h1⊗S(h2))σ⁻¹(S(h3)⊗h4) = ε(h)")
    return rep


def deform(c, verify=True):
    """The deformed Hopf algebra H^σ (same coalgebra, twisted product)."""
    h = c.host
    n = h.dim
    f = h.field
    sig, inv = c.sigma, c.sigma_inv

    def product(i, j):
        # e_i·e_j = Σ σ(i1⊗j1) i2j2 σ⁻¹(i3⊗j3)
        acc = [f.zero] * n
        for (a, b, c1), w1 in h.copower(i, 3):
            for (d, e, c2), w2 in h.copower(j, 3):
                s1 = sig.data[a][d]
                if not s1:
                    continue
                s2 = inv.data[c1][c2]
                if not s2:
                    continue
                w = w1 * w2 * s1 * s2
                for k, cm in h.mul.row(b, e):
                    acc[k] = acc[k] + w * cm
        return acc

    hs = range(n)
    mult = Tensor.from_rows(f, (n, n, n),
                            [[product(i, j) for j in hs] for i in hs])

    s_mat = Matrix.zeros(f, n, n)
    for i in range(n):
        acc = [f.zero] * n
        for (a, b, c1, d, e), w in h.copower(i, 5):
            s1 = eval2(sig, a, h.S_basis(b))
            if not s1:
                continue
            s2 = eval2(inv, h.S_basis(d), e)
            if not s2:
                continue
            w2 = w * s1 * s2
            for k, cv in enumerate(h.S_basis(c1)):
                if cv:
                    acc[k] = acc[k] + w2 * cv
        s_mat.data[i] = acc

    s_inv_mat = Matrix.zeros(f, n, n)
    for i in range(n):
        acc = [f.zero] * n
        for (a, b, c1, d, e), w in h.copower(i, 5):
            s1 = eval2(inv, e, h.Sinv_basis(d))
            if not s1:
                continue
            s2 = eval2(sig, h.Sinv_basis(b), a)
            if not s2:
                continue
            w2 = w * s1 * s2
            for k, cv in enumerate(h.Sinv_basis(c1)):
                if cv:
                    acc[k] = acc[k] + w2 * cv
        s_inv_mat.data[i] = acc

    out = HopfAlgebra(f, n, list(h.basis_names), mult, list(h.unit),
                      h.comult, list(h.counit), s_mat, s_inv_mat,
                      name=h.name + "^s")
    if verify:
        verify_hopf_axioms(out).require("deform")
    return out


def is_lazy(c):
    """Does σ commute with multiplication?  Cross-checked against H^σ = H."""
    h = c.host
    n = h.dim
    f = h.field
    sig = c.sigma

    def commutes(i, j):
        lhs = [f.zero] * n
        rhs = [f.zero] * n
        for a, b, ca in h.delta.terms(i):
            for cc, d, cd in h.delta.terms(j):
                w = ca * cd
                s1 = sig.data[a][cc]
                if s1:
                    for k, cm in h.mul.row(b, d):
                        lhs[k] = lhs[k] + w * s1 * cm
                s2 = sig.data[b][d]
                if s2:
                    for k, cm in h.mul.row(a, cc):
                        rhs[k] = rhs[k] + w * s2 * cm
        return lhs, rhs

    lazy = first_mismatch((range(n),) * 2, commutes) is None
    same_mult = deform(c, verify=False).mult == h.mult
    if lazy != same_mult:
        raise VerificationError(
            "laziness and H^σ = H disagree (lazy=%r, H^σ=H: %r)"
            % (lazy, same_mult))
    return lazy


def compose_cocycles(c1, c):
    """σ₁*σ as a cocycle on H, for σ₁ a cocycle on H^σ.

    Asserts H^{σ₁*σ} = (H^σ)^{σ₁} tensor-exactly.
    """
    h = c.host
    if c1.host.dim != h.dim or c1.host.comult != h.comult:
        raise VerificationError("compose_cocycles: host mismatch")
    hs = deform(c, verify=False)
    if c1.host.mult != hs.mult:
        raise VerificationError("compose_cocycles: c1 does not live on H^σ")
    prod = convolve2(h, c1.sigma, c.sigma)
    out = two_cocycle(h, prod)
    left = deform(out, verify=False)
    right = deform(TwoCocycle(hs, c1.sigma, c1.sigma_inv), verify=False)
    if not left.structures_equal(right):
        raise VerificationError("H^{σ1*σ} != (H^σ)^{σ1}")
    return out


# -- lazy 1-cocycles and coboundaries ----------------------------------------

@dataclass
class LazyOneCocycle:
    host: HopfAlgebra
    mu: list
    mu_inv: list


def lazy_one_cocycle(host, mu, mu_inv=None):
    """Normalized central convolution-invertible μ ∈ H*."""
    f = host.field
    norm = f.zero
    for x, u in zip(mu, host.unit):
        if x and u:
            norm = norm + x * u
    if norm != f.one:
        raise VerificationError("1-cocycle is not normalized: mu(1) != 1")
    n = host.dim
    for i in range(n):
        lhs = [f.zero] * n
        rhs = [f.zero] * n
        for a, b, c in host.delta.terms(i):
            if mu[a]:
                lhs[b] = lhs[b] + c * mu[a]
            if mu[b]:
                rhs[a] = rhs[a] + c * mu[b]
        if lhs != rhs:
            raise VerificationError(
                "1-cocycle is not central at basis index %d" % i)
    if mu_inv is None:
        mu_inv = conv_inverse1(host, mu)
        if mu_inv is None:
            raise VerificationError("1-cocycle is not convolution invertible")
    return LazyOneCocycle(host, list(mu), list(mu_inv))


def coboundary_from(mu):
    """σ(a⊗b) = Σ μ(a₁)μ(b₁)μ⁻¹(a₂b₂); lazy because μ is central."""
    h = mu.host
    n = h.dim
    f = h.field
    sig = Matrix.zeros(f, n, n)
    for i in range(n):
        for j in range(n):
            acc = f.zero
            for a, b, ca in h.delta.terms(i):
                if not mu.mu[a]:
                    continue
                for cc, d, cd in h.delta.terms(j):
                    if not mu.mu[cc]:
                        continue
                    w = ca * cd * mu.mu[a] * mu.mu[cc]
                    for k, cm in h.mul.row(b, d):
                        if mu.mu_inv[k]:
                            acc = acc + w * cm * mu.mu_inv[k]
            sig.data[i][j] = acc
    c = two_cocycle(h, sig)
    verify_two_cocycle(c).require("coboundary_from")
    if not is_lazy(c):
        raise VerificationError("coboundary of a central mu must be lazy")
    return c


# -- dual 2-cocycles ----------------------------------------------------------

def hh_mul(h, a, b):
    """Product of two elements of H⊗H given as coefficient matrices."""
    n = h.dim
    out = Matrix.zeros(h.field, n, n)
    od = out.data
    for i in range(n):
        ra = a.data[i]
        for j in range(n):
            x = ra[j]
            if not x:
                continue
            for k in range(n):
                rb = b.data[k]
                left = h.mul.row(i, k)
                for l in range(n):
                    y = rb[l]
                    if not y:
                        continue
                    xy = x * y
                    for p, cl in left:
                        for q, cr in h.mul.row(j, l):
                            od[p][q] = od[p][q] + xy * cl * cr
    return out


def hh_one(h):
    n = h.dim
    m = Matrix.zeros(h.field, n, n)
    for i, x in enumerate(h.unit):
        if not x:
            continue
        for j, y in enumerate(h.unit):
            if y:
                m.data[i][j] = x * y
    return m


def hh_inverse(h, a):
    """Multiplicative inverse in H⊗H by a linear solve, or None."""
    n = h.dim
    op = Matrix.zeros(h.field, n * n, n * n)
    for i in range(n):
        for j in range(n):
            x = a.data[i][j]
            if not x:
                continue
            for k in range(n):
                for p, cl in h.mul.row(i, k):
                    for l in range(n):
                        for q, cr in h.mul.row(j, l):
                            op.data[p * n + q][k * n + l] = \
                                op.data[p * n + q][k * n + l] + x * cl * cr
    one = hh_one(h)
    rhs = Matrix(h.field, n * n, 1,
                 [[one.data[i][j]] for i in range(n) for j in range(n)])
    sol = solve(op, rhs)
    if sol is None:
        return None
    inv = Matrix(h.field, n, n, [[sol.data[i * n + j][0] for j in range(n)]
                                 for i in range(n)])
    if hh_mul(h, inv, a) != one:
        raise VerificationError("left inverse in H⊗H is not two-sided")
    return inv


def hhh_mul(h, a, b):
    """Product in H⊗H⊗H on flat n³ coefficient lists."""
    n = h.dim
    f = h.field
    out = [f.zero] * (n ** 3)
    nz_a = [(i, j, k, v) for i in range(n) for j in range(n)
            for k in range(n) if (v := a[(i * n + j) * n + k])]
    nz_b = [(i, j, k, v) for i in range(n) for j in range(n)
            for k in range(n) if (v := b[(i * n + j) * n + k])]
    for i, j, k, x in nz_a:
        for p, q, r, y in nz_b:
            xy = x * y
            for a1, c1 in h.mul.row(i, p):
                for a2, c2 in h.mul.row(j, q):
                    c12 = c1 * c2
                    for a3, c3 in h.mul.row(k, r):
                        idx = (a1 * n + a2) * n + a3
                        out[idx] = out[idx] + xy * c12 * c3
    return out


def _embed12(h, m):
    """m⊗1 in H⊗H⊗H."""
    n = h.dim
    out = [h.field.zero] * (n ** 3)
    for i in range(n):
        for j in range(n):
            x = m.data[i][j]
            if not x:
                continue
            for k, u in enumerate(h.unit):
                if u:
                    out[(i * n + j) * n + k] = x * u
    return out


def _embed23(h, m):
    """1⊗m in H⊗H⊗H."""
    n = h.dim
    out = [h.field.zero] * (n ** 3)
    for k, u in enumerate(h.unit):
        if not u:
            continue
        for i in range(n):
            for j in range(n):
                x = m.data[i][j]
                if x:
                    out[(k * n + i) * n + j] = u * x
    return out


def _delta_leg1(h, m):
    """(Δ⊗id)(m) for m ∈ H⊗H."""
    n = h.dim
    out = [h.field.zero] * (n ** 3)
    for i in range(n):
        for j in range(n):
            x = m.data[i][j]
            if not x:
                continue
            for a, b, c in h.delta.terms(i):
                out[(a * n + b) * n + j] = out[(a * n + b) * n + j] + x * c
    return out


def _delta_leg2(h, m):
    """(id⊗Δ)(m) for m ∈ H⊗H."""
    n = h.dim
    out = [h.field.zero] * (n ** 3)
    for i in range(n):
        for j in range(n):
            x = m.data[i][j]
            if not x:
                continue
            for a, b, c in h.delta.terms(j):
                out[(i * n + a) * n + b] = out[(i * n + a) * n + b] + x * c
    return out


@dataclass
class DualCocycle:
    host: HopfAlgebra
    theta: Matrix
    theta_inv: Matrix


def dual_cocycle(host, theta, theta_inv=None):
    if theta_inv is None:
        theta_inv = hh_inverse(host, theta)
        if theta_inv is None:
            raise VerificationError("theta is not invertible in H⊗H")
    return DualCocycle(host, theta, theta_inv)


def verify_dual_cocycle(d):
    h = d.host
    n = h.dim
    rep = CheckReport()
    lhs = hhh_mul(h, _embed12(h, d.theta), _delta_leg1(h, d.theta))
    rhs = hhh_mul(h, _embed23(h, d.theta), _delta_leg2(h, d.theta))
    bad = first_mismatch((range(n),) * 3, lambda a, b, c: (
        lhs[(a * n + b) * n + c], rhs[(a * n + b) * n + c]))
    rep.add("dual_pentagon", bad is None, bad)

    f = h.field
    left = [f.zero] * n
    right = [f.zero] * n
    for i in range(n):
        for j in range(n):
            x = d.theta.data[i][j]
            if not x:
                continue
            if h.counit[i]:
                left[j] = left[j] + h.counit[i] * x
            if h.counit[j]:
                right[i] = right[i] + h.counit[j] * x
    rep.add("counit_normalization",
            left == h.unit and right == h.unit)

    one = hh_one(h)
    rep.add("invertible",
            hh_mul(h, d.theta, d.theta_inv) == one
            and hh_mul(h, d.theta_inv, d.theta) == one)
    return rep


def deform_dual(d, verify=True):
    """H_θ: same algebra, Δ_θ(h) = θΔ(h)θ⁻¹, antipode S_θ."""
    h = d.host
    n = h.dim
    f = h.field

    def conjugated(i):
        di = Matrix.zeros(f, n, n)
        for a, b, c in h.delta.terms(i):
            di.data[a][b] = di.data[a][b] + c
        return hh_mul(h, d.theta, hh_mul(h, di, d.theta_inv)).data

    comult = Tensor.from_rows(f, (n, n, n), [conjugated(i) for i in range(n)])
    s_mat = Matrix.zeros(f, n, n)
    s2_mat = Matrix.zeros(f, n, n)
    for i in range(n):
        acc = [f.zero] * n
        acc2 = [f.zero] * n
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
                        # θ¹ S(θ²) S(h) S((θ⁻¹)¹) (θ⁻¹)²
                        v = h.mul_vec(h.basis_vec(a), h.S_basis(b))
                        v = h.mul_vec(v, h.S_basis(i))
                        v = h.mul_vec(v, h.S_basis(c))
                        v = h.mul_vec(v, h.basis_vec(e))
                        for k, t in enumerate(v):
                            if t:
                                acc[k] = acc[k] + w * t
                        # θ¹ S((θ⁻¹)¹ h θ²) (θ⁻¹)²
                        u = h.mul_vec(h.mul.dense_row(c, i), h.basis_vec(b))
                        u = h.apply_S(u)
                        u = h.mul_vec(h.basis_vec(a), u)
                        u = h.mul_vec(u, h.basis_vec(e))
                        for k, t in enumerate(u):
                            if t:
                                acc2[k] = acc2[k] + w * t
        s_mat.data[i] = acc
        s2_mat.data[i] = acc2
    require_agree("S_θ", (range(n),) * 2,
                  lambda i, k: (s_mat.data[i][k], s2_mat.data[i][k]))
    s_inv = mat_inverse(s_mat)
    if s_inv is None:
        raise VerificationError("S_θ is not invertible")
    out = HopfAlgebra(f, n, list(h.basis_names), h.mult, list(h.unit),
                      comult, list(h.counit), s_mat, s_inv,
                      name=h.name + "_th")
    if verify:
        verify_hopf_axioms(out).require("deform_dual")
    return out


def is_lazy_dual(d):
    """Does θ commute with every Δ(e_i)?  Cross-checked against Δ_θ = Δ."""
    h = d.host
    n = h.dim
    f = h.field

    def commutes(i):
        di = Matrix.zeros(f, n, n)
        for a, b, c in h.delta.terms(i):
            di.data[a][b] = di.data[a][b] + c
        return hh_mul(h, d.theta, di), hh_mul(h, di, d.theta)

    lazy = first_mismatch((range(n),), commutes) is None
    same = deform_dual(d, verify=False).comult == h.comult
    if lazy != same:
        raise VerificationError("dual laziness and Δ_θ = Δ disagree")
    return lazy


def dual_cocycle_product(d1, d2):
    """θ₁·θ₂ in H⊗H as a DualCocycle candidate (not auto-verified)."""
    h = d1.host
    prod = hh_mul(h, d1.theta, d2.theta)
    return dual_cocycle(h, prod)
