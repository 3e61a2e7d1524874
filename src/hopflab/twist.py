"""Convolution algebra on (H⊗H)*, 2-cocycles, dual 2-cocycles and the
deformed Hopf algebras H^σ and H_θ.

A functional on H⊗H is an n×n Matrix f with f.data[i][j] = f(e_i⊗e_j); an
element of H⊗H is an n×n Matrix of coefficients.  Convolution is
(f*g)(x⊗y) = Σ f(x₁⊗y₁) g(x₂⊗y₂) with unit ε⊗ε.  eval2 pairs f with two
elements of H, each a basis index or a sparse row (hopf.py), such as S(e_i);
eval2_lifted does the same on lifted values (fields.Field.lift).

H^σ, ∂μ and laziness are convolutions: e_k's coefficient in the product of
H^σ is σ * m_k * σ⁻¹ for m_k(x⊗y) = e_k's coefficient in xy, S^σ = u * S * v
in H*, summed as Σ u(x₁)v(x₃)·S(x₂) over Δ²(x) on S's lifted rows, ∂μ =
(μ⊗μ) * (μ⁻¹∘m), and σ is lazy iff σ * m_k = m_k * σ for all k.  These
regroup Δ^k by coassociativity alone, not by σ's cocycle identity, so they
equal the defining Sweedler sums for any σ and σ⁻¹.  The 1-cocycle routes
multiply in H* over Δ's lifted terms too, and build no H*.  The
convolutions, S^σ and the H* products sum lifted values and reduce what
they build once; a matrix keeps its sums as its lifted rows
(linalg.Matrix.from_sums), so a convolution of convolutions lifts nothing
again.

The θ side is the σ side on the dual.  An element of H⊗H is a functional on
H*⊗H* through the same matrix, and the product of H⊗H is the convolution of
(H*⊗H*)* (unit 1⊗1 = ε⊗ε of H*), so the H⊗H arithmetic is convolve2
(hh_mul), eps_eps, conv_inverse2 and are_conv_inverse on H* = dual_hopf(H).
A dual cocycle θ is a 2-cocycle σ_θ on H* (DualCocycle.sigma), and
H_θ = ((H*)^{σ_θ})*.

A product's inverse is the product of the known inverses in reverse
order, never solved for again: compose_cocycles gives σ₁*σ the inverse
σ⁻¹*σ₁⁻¹, and dual_cocycle_product gives θ₁θ₂ the inverse θ₂⁻¹θ₁⁻¹.  Like
any inverse passed to two_cocycle or dual_cocycle, it is a witness that
verify_two_cocycle and verify_dual_cocycle check (are_conv_inverse);
conv_inverse2 solves only where no inverse is known.

H^σ and H_θ are functions of the cocycle alone: deform(c) builds H^σ the
first time it is asked for a cocycle object and memoizes it on it, and
deform_dual(d) is the memoized dual of deform(d.sigma), so every σ̲/θ̲
image, deformed CQT/QT structure and laziness cross-check of that object
shares one host.  Neither checks the Hopf axioms; a caller that needs them
calls hopf.verify_hopf_axioms on the result.

verify_dual_cocycle and quasitriangular.verify_qt share one sparse H⊗H⊗H
arithmetic: the leg placements m₁₂, m₂₃, m₁₃ (hhh_leg), (Δ⊗id)m and
(id⊗Δ)m (hhh_delta) of m ∈ H⊗H, and the product hhh_mul; counit_legs gives
(ε⊗id)m and (id⊗ε)m.  Both stay independent second forms: they compute in
H⊗H⊗H, not through σ_θ or H*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .fields import complements
from .hopf import HopfAlgebra, dual_hopf
from .linalg import Matrix, Tensor, solve, sparse_solve, sparse_sum
from .report import CheckReport, VerificationError, first_mismatch


# -- scalar-functional helpers ---------------------------------------------

def eval2(f, u, v):
    """f(u⊗v) on field elements, the one place a functional on H⊗H is
    paired with elements (eval2_lifted is its form on lifted values).

    u and v are basis indices or sparse rows [(k, c)], hopf.py's elements
    of H: an int i stands for e_i, so f(e_i⊗e_j) is f.data[i][j].
    """
    if type(u) is int:
        row = f.data[u]
        if type(v) is int:
            return row[v]
        acc = f.field.zero
        for j, y in v:
            if row[j]:
                acc = acc + y * row[j]
        return acc
    acc = f.field.zero
    for i, x in u:
        row = f.data[i]
        if type(v) is int:
            if row[v]:
                acc = acc + x * row[v]
            continue
        for j, y in v:
            if row[j]:
                acc = acc + x * y * row[j]
    return acc


def eval2_lifted(rows, u, v):
    """eval2 on lifted values (fields.Field.lift): f(u⊗v) for f given as
    its lifted rows (Matrix.lifted_rows) and u and v basis indices or
    sparse rows with lifted coefficients, as an unreduced lifted sum at
    the product of the scales of f, u and v (a basis index is at 1)."""
    acc = 0
    for i, x in ((u, 1),) if type(u) is int else u:
        row = rows[i]
        if type(v) is int:
            if row[v]:
                acc += x * row[v]
            continue
        for j, y in v:
            if row[j]:
                acc += x * y * row[j]
    return acc


def eps_eps(h):
    """The convolution unit ε⊗ε."""
    return Matrix(h.field, h.dim, h.dim,
                  [[x * y for y in h.counit] for x in h.counit])


def are_conv_inverse(h, f, g):
    """Are f and g mutually inverse in the convolution algebra (H⊗H)*,
    f*g = g*f = ε⊗ε?  On H* this is fg = gf = 1⊗1 in H⊗H."""
    ee = eps_eps(h)
    return convolve2(h, f, g) == ee and convolve2(h, g, f) == ee


def convolve2(h, f, g):
    """(f*g)(x⊗y) = Σ f(x₁⊗y₁) g(x₂⊗y₂), summed on lifted values and
    reduced once, as one vector of the n² values."""
    n = h.dim
    if f.rows != n or g.rows != n:
        raise ValueError("functional shape mismatch")
    (fl, sf), (gl, sg) = f.lifted_rows(), g.lifted_rows()
    delta, sd = h.delta.lifted_terms()
    sums = []
    for dx in delta:
        for dy in delta:
            s = 0
            for a, b, ca in dx:
                fa, gb = fl[a], gl[b]
                for c, d, cd in dy:
                    fv = fa[c]
                    if fv:
                        gv = gb[d]
                        if gv:
                            s += ca * cd * fv * gv
            sums.append(s)
    return Matrix.from_sums(h.field, n, n, sums, sd * sd * sf * sg)


def conv_operator2(h, f):
    """Matrix of X ↦ f*X on (H⊗H)*; entry [(x,y)][(i,j)]."""
    n = h.dim
    (fl, sf), (delta, sd) = f.lifted_rows(), h.delta.lifted_terms()
    sums = []
    for dx in delta:
        for dy in delta:
            row = [0] * (n * n)
            for a, b, ca in dx:
                fa = fl[a]
                for c, d, cd in dy:
                    fv = fa[c]
                    if fv:
                        row[b * n + d] += ca * cd * fv
            sums += row
    return Matrix.from_sums(h.field, n * n, n * n, sums, sd * sd * sf)


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
    """Convolution inverse of a functional on H, or None: ν with μν = ε in
    H*, checked to give νμ = ε too."""
    n = h.dim
    # (μν)(e_x) = Σ c·μ(a)ν(b) over Δ(e_x) = Σ c e_a⊗e_b: row x of the
    # system is {b: Σ c·μ(a)}, with ε(x) on the right-hand side
    sol = sparse_solve(h.field, (chain(
        sparse_sum((b, c * mu[a]) for a, b, c in h.delta.terms(x)).items(),
        ((n, h.counit[x]),)) for x in range(n)), n, 1)
    if sol is None:
        return None
    nu = [h.field.zero] * n
    for b, x in sol[0]:
        nu[b] = x
    if _dual_product(h, nu, mu) != h.counit:
        raise VerificationError("one-sided inverse of 1-cocycle")
    return nu


def _dual_product(h, mu, nu):
    """μν in H* for functionals μ and ν on H: (μν)(x) = Σ μ(x₁)ν(x₂)."""
    (mu, su), (nu, sn) = h.field.lift(mu), h.field.lift(nu)
    return h.field.reduce_vec(*_delta_functional(
        h, lambda a, b: mu[a] * nu[b], su * sn))


# -- 2-cocycles --------------------------------------------------------------

@dataclass
class TwoCocycle:
    host: HopfAlgebra
    sigma: Matrix
    sigma_inv: Matrix
    _deformed: HopfAlgebra = field(default=None, init=False, repr=False,
                                   compare=False)    # H^σ, set by deform
    # what σ̲ reads of σ alone: σ and σ⁻¹ lifted, the live terms of Δ²/Δ⁴
    # and the pairing of the second displayed form, set by yd.sigma_module
    # and yd.eta and filled as they read it
    _sigma_tables: object = field(default=None, init=False, repr=False,
                                  compare=False)


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
    unit = [(t, x) for t, x in enumerate(h.unit) if x]

    ok = eval2(sig, unit, unit) == f.one
    bad = first_mismatch((every,), lambda i: (
        (eval2(sig, i, unit), eval2(sig, unit, i)),
        (h.counit[i], h.counit[i])))
    rep.add("normalization", bad is None and ok, bad)

    rep.add("convolution_inverse", are_conv_inverse(h, sig, inv))

    # The three identities walk all basis triples (g, h, l) and sum each
    # side lifted (fields.Field.lift), reducing the two sides once; the
    # two sides of the cocycle identity and of the inverse one are at one
    # scale, and the mixed identity's are put on one by kl and kr.
    (sweedler2, sd), (mul, sm) = h.delta.lifted_terms(), h.mul.lifted_rows()
    (ls, ss), (li, si) = sig.lifted_rows(), inv.lifted_rows()
    red = f.reduce
    kl, kr = complements(sd ** 3 * sm * sm * ss * si, sd * si * ss)

    def cocycle_identity(g, x, l):
        lhs = 0
        for a, b, ca in sweedler2[g]:
            for cc, d, cd in sweedler2[x]:
                s1 = ls[a][cc]
                if not s1:
                    continue
                for k, cm in mul[b][d]:
                    s2 = ls[k][l]
                    if s2:
                        lhs += ca * cd * cm * s1 * s2
        rhs = 0
        for a, b, ca in sweedler2[x]:
            for cc, d, cd in sweedler2[l]:
                s1 = ls[a][cc]
                if not s1:
                    continue
                for k, cm in mul[b][d]:
                    s2 = ls[g][k]
                    if s2:
                        rhs += ca * cd * cm * s1 * s2
        return red(lhs, 1), red(rhs, 1)

    bad = first_mismatch((every,) * 3, cocycle_identity)
    rep.add("cocycle_identity", bad is None, bad)

    def mixed_identity(g, x, l):
        lhs = 0
        # Σ σ(g1 h1 ⊗ l1) σ⁻¹(g2 ⊗ h2 l2)
        for a, b, ca in sweedler2[g]:
            for cc, d, cd in sweedler2[x]:
                for e1, e2, ce in sweedler2[l]:
                    for k1, cm1 in mul[a][cc]:
                        s1 = ls[k1][e1]
                        if not s1:
                            continue
                        for k2, cm2 in mul[d][e2]:
                            s2 = li[b][k2]
                            if s2:
                                lhs += ca * cd * ce * cm1 * cm2 * s1 * s2
        rhs = 0
        # Σ σ⁻¹(g ⊗ h1) σ(h2 ⊗ l)
        for cc, d, cd in sweedler2[x]:
            s1 = li[g][cc]
            if not s1:
                continue
            s2 = ls[d][l]
            if s2:
                rhs += cd * s1 * s2
        return red(lhs * kl, 1), red(rhs * kr, 1)

    bad = first_mismatch((every,) * 3, mixed_identity)
    rep.add("mixed_identity", bad is None, bad,
            "σ(g1h1⊗l1)σ⁻¹(g2⊗h2l2) = σ⁻¹(g⊗h1)σ(h2⊗l)")

    def inverse_cocycle_identity(g, x, l):
        lhs = 0
        # Σ σ⁻¹(g1 h1 ⊗ l) σ⁻¹(g2 ⊗ h2)
        for a, b, ca in sweedler2[g]:
            for cc, d, cd in sweedler2[x]:
                for k, cm in mul[a][cc]:
                    s1 = li[k][l]
                    if s1:
                        s2 = li[b][d]
                        if s2:
                            lhs += ca * cd * cm * s1 * s2
        rhs = 0
        # Σ σ⁻¹(g ⊗ h1 l1) σ⁻¹(h2 ⊗ l2)
        for cc, d, cd in sweedler2[x]:
            for e1, e2, ce in sweedler2[l]:
                for k, cm in mul[cc][e1]:
                    s1 = li[g][k]
                    if s1:
                        s2 = li[d][e2]
                        if s2:
                            rhs += cd * ce * cm * s1 * s2
        return red(lhs, 1), red(rhs, 1)

    bad = first_mismatch((every,) * 3, inverse_cocycle_identity)
    rep.add("inverse_cocycle_identity", bad is None, bad,
            "σ⁻¹(g1h1⊗l)σ⁻¹(g2⊗h2) = σ⁻¹(g⊗h1l1)σ⁻¹(h2⊗l2)")

    def antipode_pairing(x):
        acc, s_rows = f.zero, h.antipodes.rows(0)
        for idx, w in h.copower(x, 4):
            a, b, cc, d = idx
            s1 = eval2(sig, a, s_rows[b])
            if not s1:
                continue
            s2 = eval2(inv, s_rows[cc], d)
            if s2:
                acc = acc + w * s1 * s2
        return acc, h.counit[x]

    bad = first_mismatch((every,), antipode_pairing)
    rep.add("antipode_pairing", bad is None, bad,
            "σ(h1⊗S(h2))σ⁻¹(S(h3)⊗h4) = ε(h)")
    return rep


def deform(c):
    """The deformed Hopf algebra H^σ (same coalgebra, twisted product),
    built once per cocycle object and not checked."""
    if c._deformed is None:
        c._deformed = _deform(c)
    return c._deformed


def _coordinate_functionals(h):
    """m_k(x⊗y) = the coefficient of e_k in xy, as n functionals on H⊗H."""
    n = h.dim
    t = h.mult.permuted((2, 0, 1)).data     # t[k,i,j] = mult[i,j,k]
    return [Matrix(h.field, n, n, [t[r:r + n] for r in range(b, b + n * n, n)])
            for b in range(0, n * n * n, n * n)]


def _delta_functional(h, value, scale):
    """The functional e_i ↦ Σ value(i₁, i₂) over Δ(e_i), for value giving
    lifted numbers at scale: (the lifted sums, their scale)."""
    delta, sd = h.delta.lifted_terms()
    return ([sum(c * value(a, b) for a, b, c in terms) for terms in delta],
            sd * scale)


def _deform(c):
    h = c.host
    n, f, hs = h.dim, h.field, range(h.dim)
    (sig, ss), (inv, si) = c.sigma.lifted_rows(), c.sigma_inv.lifted_rows()
    (S, Sinv), sa = h.antipodes.lifted_rows()
    # m^σ = σ * m_k * σ⁻¹ for each coordinate functional m_k
    twisted = [convolve2(h, convolve2(h, c.sigma, m_k), c.sigma_inv)
               for m_k in _coordinate_functionals(h)]
    mult = Tensor.from_rows(f, (n, n, n), [
        [[t.data[i][j] for t in twisted] for j in hs] for i in hs])

    copower, s3 = h.lifted_copower(3)

    # S^σ = u * S * v and (S^σ)⁻¹ = u' * S⁻¹ * v' in H*: the image of e_x
    # is Σ u(x₁)v(x₃)·S(x₂) over Δ²(e_x), and the same with S⁻¹, summed
    # lifted and reduced once; u and v are kept as unreduced lifted
    # sums with their scales
    def sandwich(u, rows, v):
        (u, su), (v, sv) = u, v
        sums = []
        for x in hs:
            acc = [0] * n
            for (a, b, d), w in copower[x]:
                uv = u[a] * v[d]
                if uv:
                    uv *= w
                    for k, y in rows[b]:
                        acc[k] += uv * y
            sums += acc
        return Matrix.from_sums(f, n, n, sums, su * sv * s3 * sa)

    s_mat = sandwich(   # u(h) = σ(h₁⊗S(h₂)), v(h) = σ⁻¹(S(h₁)⊗h₂)
        _delta_functional(h, lambda a, b: eval2_lifted(sig, a, S[b]),
                          ss * sa), S,
        _delta_functional(h, lambda a, b: eval2_lifted(inv, S[a], b),
                          si * sa))
    s_inv_mat = sandwich(   # u'(h) = σ(S⁻¹(h₂)⊗h₁), v'(h) = σ⁻¹(h₂⊗S⁻¹(h₁))
        _delta_functional(h, lambda a, b: eval2_lifted(sig, Sinv[b], a),
                          ss * sa), Sinv,
        _delta_functional(h, lambda a, b: eval2_lifted(inv, b, Sinv[a]),
                          si * sa))
    return HopfAlgebra(f, n, list(h.basis_names), mult, list(h.unit),
                       h.comult, list(h.counit), s_mat, s_inv_mat,
                       name=h.name + "^s")


def is_lazy(c):
    """Does σ commute with multiplication (σ * m_k = m_k * σ for every k)?
    Cross-checked against H^σ = H."""
    h, sig = c.host, c.sigma
    lazy = all(convolve2(h, sig, m_k) == convolve2(h, m_k, sig)
               for m_k in _coordinate_functionals(h))
    same_mult = deform(c).mult == h.mult
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
    hs = deform(c)
    if c1.host.mult != hs.mult:
        raise VerificationError("compose_cocycles: c1 does not live on H^σ")
    # (σ₁*σ)⁻¹ = σ⁻¹*σ₁⁻¹: both inverses are known, so none is solved for
    out = two_cocycle(h, convolve2(h, c1.sigma, c.sigma),
                      convolve2(h, c.sigma_inv, c1.sigma_inv))
    left = deform(out)
    right = deform(TwoCocycle(hs, c1.sigma, c1.sigma_inv))
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
    """Normalized central convolution-invertible μ ∈ H*; μ⁻¹ is solved for
    when not given."""
    problem = one_cocycle_problem(host, mu, mu_inv)
    if problem is None and mu_inv is None:
        mu_inv = conv_inverse1(host, mu)
        if mu_inv is None:
            problem = "1-cocycle is not convolution invertible"
    if problem is not None:
        raise VerificationError(problem)
    return LazyOneCocycle(host, list(mu), list(mu_inv))


def one_cocycle_problem(host, mu, mu_inv):
    """The first of μ(1) = 1, μ central in H* and μμ⁻¹ = μ⁻¹μ = ε (skipped
    when mu_inv is None) that fails, as text, or None if all hold."""
    f, n = host.field, host.dim
    if sum((x * m for x, m in zip(host.unit, mu)), f.zero) != f.one:
        return "1-cocycle is not normalized: mu(1) != 1"
    for i in range(n):          # (μ⊗id)Δ(e_i) = (id⊗μ)Δ(e_i)
        terms = host.delta.terms(i)
        if (sparse_sum((b, c * mu[a]) for a, b, c in terms)
                != sparse_sum((a, c * mu[b]) for a, b, c in terms)):
            return "1-cocycle is not central at basis index %d" % i
    if mu_inv is not None and not (_dual_product(host, mu, mu_inv)
                                   == host.counit
                                   == _dual_product(host, mu_inv, mu)):
        return "mu_inv is not the convolution inverse of mu"
    return None


def coboundary_from(mu):
    """∂μ = (μ⊗μ) * (μ⁻¹∘m), σ(a⊗b) = Σ μ(a₁)μ(b₁)μ⁻¹(a₂b₂); lazy because
    μ is central."""
    h = mu.host
    n, f, hs = h.dim, h.field, range(h.dim)
    mu_mu = Matrix(f, n, n, [[x * y for y in mu.mu] for x in mu.mu])
    inv_m = Matrix(f, n, n, [[sum((cm * mu.mu_inv[k] for k, cm in
                                   h.mul.row(i, j)), f.zero) for j in hs]
                             for i in hs])
    c = two_cocycle(h, convolve2(h, mu_mu, inv_m))
    verify_two_cocycle(c).require("coboundary_from")
    if not is_lazy(c):
        raise VerificationError("coboundary of a central mu must be lazy")
    return c


# -- dual 2-cocycles ----------------------------------------------------------

def hh_mul(h, a, b):
    """Product of two elements of H⊗H given as coefficient matrices: their
    convolution as functionals on H*⊗H*."""
    return convolve2(dual_hopf(h), a, b)


def counit_legs(h, m):
    """((ε⊗id)(m), (id⊗ε)(m)) for m ∈ H⊗H: both are 1 for a dual cocycle
    or a QT structure."""
    f = h.field
    left = [f.zero] * h.dim
    right = [f.zero] * h.dim
    for i, row in enumerate(m.data):
        for j, x in enumerate(row):
            if x and h.counit[i]:
                left[j] = left[j] + h.counit[i] * x
            if x and h.counit[j]:
                right[i] = right[i] + h.counit[j] * x
    return left, right


# An element of H⊗H⊗H is a dict {(a, b, c): coefficient of e_a⊗e_b⊗e_c}.

def hhh_leg(h, m, unit_leg):
    """m ∈ H⊗H in H⊗H⊗H with H's unit in leg unit_leg: m₁₂ = m⊗1 for 2,
    m₂₃ = 1⊗m for 0 and m₁₃ for 1."""
    units = [(t, u) for t, u in enumerate(h.unit) if u]
    out = {}
    for i, row in enumerate(m.data):
        for j, x in enumerate(row):
            if x:
                for t, u in units:
                    out[(i, j)[:unit_leg] + (t,) + (i, j)[unit_leg:]] = x * u
    return out


def hhh_delta(h, m, leg):
    """(Δ⊗id)(m) for leg 0 and (id⊗Δ)(m) for leg 1, m ∈ H⊗H."""
    zero = h.field.zero
    out = {}
    for i, row in enumerate(m.data):
        for j, x in enumerate(row):
            if x:
                for a, b, c in h.delta.terms(j if leg else i):
                    key = (i, a, b) if leg else (a, b, j)
                    out[key] = out.get(key, zero) + x * c
    return out


def hhh_mul(h, u, v):
    """The product of H⊗H⊗H, leg by leg from h.mul's sparse rows."""
    zero = h.field.zero
    rows = [[h.mul.row(i, j) for j in range(h.dim)] for i in range(h.dim)]
    out = {}
    for (i, j, k), x in u.items():
        ri, rj, rk = rows[i], rows[j], rows[k]
        for (p, q, r), y in v.items():
            xy = x * y
            for a1, c1 in ri[p]:
                for a2, c2 in rj[q]:
                    c12 = c1 * c2
                    for a3, c3 in rk[r]:
                        key = (a1, a2, a3)
                        out[key] = out.get(key, zero) + xy * (c12 * c3)
    return out


@dataclass
class DualCocycle:
    """θ ∈ H⊗H with its inverse.  θ is also a functional on H*⊗H*,
    ⟨δ_i⊗δ_j, θ⟩ = θ[i][j], and the product of H⊗H is the convolution of
    (H*⊗H*)*; sigma is θ as that 2-cocycle σ_θ on H* = dual_hopf(H)."""
    host: HopfAlgebra
    theta: Matrix
    theta_inv: Matrix
    sigma: TwoCocycle = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.sigma = TwoCocycle(dual_hopf(self.host), self.theta,
                                self.theta_inv)


def dual_cocycle(host, theta, theta_inv=None):
    if theta_inv is None:
        theta_inv = conv_inverse2(dual_hopf(host), theta)
        if theta_inv is None:
            raise VerificationError("theta is not invertible in H⊗H")
    return DualCocycle(host, theta, theta_inv)


def verify_dual_cocycle(d):
    """The dual cocycle identity, counit normalization and invertibility,
    computed in H⊗H⊗H and H⊗H themselves, independently of σ_θ."""
    h = d.host
    n = h.dim
    rep = CheckReport()
    f = h.field
    theta = d.theta
    lhs = hhh_mul(h, hhh_leg(h, theta, 2), hhh_delta(h, theta, 0))
    rhs = hhh_mul(h, hhh_leg(h, theta, 0), hhh_delta(h, theta, 1))
    bad = first_mismatch((range(n),) * 3, lambda *key: (
        lhs.get(key, f.zero), rhs.get(key, f.zero)))
    rep.add("dual_pentagon", bad is None, bad)

    rep.add("counit_normalization",
            counit_legs(h, theta) == (h.unit, h.unit))

    rep.add("invertible", are_conv_inverse(dual_hopf(h), theta, d.theta_inv))
    return rep


def deform_dual(d):
    """H_θ = ((H*)^{σ_θ})*: H's algebra with Δ_θ(h) = θΔ(h)θ⁻¹ and its
    antipode, on H's basis names.  It is the memoized dual of deform(σ_θ),
    so it is built once per dual cocycle object, and it is not checked."""
    ht = dual_hopf(deform(d.sigma))
    ht.basis_names = list(d.host.basis_names)
    ht.name = d.host.name + "_th"
    return ht


def is_lazy_dual(d):
    """Does θ commute with every Δ(e_i)?  That is σ_θ lazy on H*."""
    return is_lazy(d.sigma)


def dual_cocycle_product(d1, d2):
    """θ₁·θ₂ in H⊗H as a DualCocycle candidate (not auto-verified), with
    the inverse θ₂⁻¹·θ₁⁻¹ of the given inverses."""
    h = d1.host
    return dual_cocycle(h, hh_mul(h, d1.theta, d2.theta),
                        hh_mul(h, d2.theta_inv, d1.theta_inv))
