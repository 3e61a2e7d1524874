"""H^σ, R^σ, ∂μ and laziness are convolutions on the host's coalgebra.
These tests keep the hand-expanded Sweedler sums they replaced as dense
references: the product Σ σ(i₁⊗j₁) i₂j₂ σ⁻¹(i₃⊗j₃), S^σ and (S^σ)⁻¹ over
Δ⁴, R^σ as a triple sum, ∂μ and the laziness test σ(h₁⊗l₁)h₂l₂ =
h₁l₁σ(h₂⊗l₂).  The regrouping uses only the host's coassociativity, so old
and new agree on any matrices σ, σ⁻¹ and R, cocycles or not.  A non-lazy
coboundary ∂γ on H₄ covers a twisted product that differs from H's."""

import random

import pytest

from hopflab import catalog as cat
from hopflab import twist
from hopflab.fields import field_from_spec
from hopflab.galois import unit_object
from hopflab.hopf import dual_hopf, verify_hopf_axioms
from hopflab.linalg import Matrix
from hopflab.quasitriangular import (CqtStructure, deform_cqt, deform_qt,
                                     verify_cqt)
from hopflab.report import VerificationError
from hopflab.suite import T_DEFAULT
from hopflab.twist import (LazyOneCocycle, TwoCocycle, conv_inverse1,
                           conv_inverse2, coboundary_from, deform, is_lazy,
                           two_cocycle, verify_two_cocycle)
from hopflab.yd import verify_braided_functor

FIELDS = ("Q", "Fp:5")
HOSTS = ("H4", "H4*", "kC2")
SEEDS = range(3)


def build_host(name, spec):
    f = field_from_spec(spec)
    if name == "kC2":
        return cat.group_algebra_c2(f)
    h4 = cat.sweedler_h4(f)
    return dual_hopf(h4) if name == "H4*" else h4


def rand_matrix(rng, h):
    n, f = h.dim, h.field
    return Matrix(f, n, n, [[f.from_int(rng.randint(-3, 3)) for _ in range(n)]
                            for _ in range(n)])


def rand_vector(rng, h):
    return [h.field.from_int(rng.randint(-3, 3)) for _ in range(h.dim)]


@pytest.fixture(scope="module", params=[(n, s) for n in HOSTS for s in FIELDS],
                ids=lambda p: "%s-%s" % p)
def host(request):
    return build_host(*request.param)


# -- the replaced sums ---------------------------------------------------------

def dense_eval2(f, u, v):
    """f(u⊗v) for coordinate vectors u and v, or basis indices: twist.eval2
    before elements of H became sparse rows, kept for the references."""
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


def ref_deform(h, sig, inv):
    """mult, S and S⁻¹ of H^σ as the sums over Δ²(e_i)⊗Δ²(e_j) and Δ⁴(e_i)."""
    n = h.dim
    f = h.field
    mult = [f.zero] * (n ** 3)
    for i in range(n):
        for j in range(n):
            for (a, b, c1), w1 in h.copower(i, 3):
                for (d, e, c2), w2 in h.copower(j, 3):
                    w = w1 * w2 * sig.data[a][d] * inv.data[c1][c2]
                    if not w:
                        continue
                    for k, cm in h.mul.row(b, e):
                        mult[(i * n + j) * n + k] += w * cm
    s_mat = Matrix.zeros(f, n, n)
    s_inv_mat = Matrix.zeros(f, n, n)
    s, sinv = h.antipode.data, h.antipode_inv.data
    for i in range(n):
        for (a, b, c1, d, e), w in h.copower(i, 5):
            # σ(i₁⊗S(i₂)) S(i₃) σ⁻¹(S(i₄)⊗i₅)
            w2 = (w * dense_eval2(sig, a, s[b])
                  * dense_eval2(inv, s[d], e))
            for k, cv in enumerate(s[c1]):
                s_mat.data[i][k] += w2 * cv
            # σ(S⁻¹(i₂)⊗i₁) S⁻¹(i₃) σ⁻¹(i₅⊗S⁻¹(i₄))
            w3 = (w * dense_eval2(inv, e, sinv[d])
                  * dense_eval2(sig, sinv[b], a))
            for k, cv in enumerate(sinv[c1]):
                s_inv_mat.data[i][k] += w3 * cv
    return mult, s_mat, s_inv_mat


def ref_deform_cqt(h, r, sig, inv):
    """R^σ(g⊗x) = Σ σ(x₁⊗g₁) R(g₂⊗x₂) σ⁻¹(g₃⊗x₃)."""
    n = h.dim
    out = Matrix.zeros(h.field, n, n)
    for g in range(n):
        for x in range(n):
            for (g1, g2, g3), w1 in h.copower(g, 3):
                for (x1, x2, x3), w2 in h.copower(x, 3):
                    out.data[g][x] += (w1 * w2 * sig.data[x1][g1]
                                       * r.data[g2][x2] * inv.data[g3][x3])
    return out


def ref_coboundary(h, mu, mu_inv):
    """∂μ(a⊗b) = Σ μ(a₁)μ(b₁)μ⁻¹(a₂b₂)."""
    n = h.dim
    out = Matrix.zeros(h.field, n, n)
    for i in range(n):
        for j in range(n):
            for a, b, ca in h.delta.terms(i):
                for c, d, cd in h.delta.terms(j):
                    for k, cm in h.mul.row(b, d):
                        out.data[i][j] += (ca * cd * cm * mu[a] * mu[c]
                                           * mu_inv[k])
    return out


def ref_lazy(h, sig):
    """Σ σ(i₁⊗j₁) i₂j₂ = Σ i₁j₁ σ(i₂⊗j₂) for every pair of basis elements."""
    n = h.dim
    for i in range(n):
        for j in range(n):
            lhs = [h.field.zero] * n
            rhs = [h.field.zero] * n
            for a, b, ca in h.delta.terms(i):
                for c, d, cd in h.delta.terms(j):
                    for k, cm in h.mul.row(b, d):
                        lhs[k] += ca * cd * sig.data[a][c] * cm
                    for k, cm in h.mul.row(a, c):
                        rhs[k] += ca * cd * sig.data[b][d] * cm
            if lhs != rhs:
                return False
    return True


# -- old and new agree on arbitrary functionals -------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_deform_matches_dense_sums(host, seed):
    rng = random.Random(seed)
    sig, inv = rand_matrix(rng, host), rand_matrix(rng, host)
    got = deform(TwoCocycle(host, sig, inv))
    mult, s_mat, s_inv_mat = ref_deform(host, sig, inv)
    assert got.mult.data == mult
    assert got.antipode == s_mat
    assert got.antipode_inv == s_inv_mat
    assert got.comult == host.comult and got.counit == host.counit


@pytest.mark.parametrize("seed", SEEDS)
def test_deform_cqt_matches_triple_sum(host, seed):
    rng = random.Random(100 + seed)
    r, r_inv, sig, inv = (rand_matrix(rng, host) for _ in range(4))
    got = deform_cqt(CqtStructure(host, r, r_inv), TwoCocycle(host, sig, inv))
    assert got.r == ref_deform_cqt(host, r, sig, inv)


class _Captured(Exception):
    pass


@pytest.mark.parametrize("seed", SEEDS)
def test_coboundary_matches_dense_sum(host, seed, monkeypatch):
    """The ∂μ that coboundary_from hands to two_cocycle, for μ and μ⁻¹ that
    need be neither normalized, central nor inverse to each other."""
    rng = random.Random(200 + seed)
    mu, mu_inv = rand_vector(rng, host), rand_vector(rng, host)
    seen = []

    def capture(h, sig, sig_inv=None):
        seen.append(sig)
        raise _Captured

    monkeypatch.setattr(twist, "two_cocycle", capture)
    with pytest.raises(_Captured):
        coboundary_from(LazyOneCocycle(host, mu, mu_inv))
    assert seen == [ref_coboundary(host, mu, mu_inv)]


@pytest.mark.parametrize("seed", SEEDS)
def test_is_lazy_matches_dense_commutation(host, seed):
    """On random invertible σ with its inverse; kC₂ makes every σ lazy."""
    rng = random.Random(300 + seed)
    sig = rand_matrix(rng, host)
    inv = conv_inverse2(host, sig)
    while inv is None:
        sig = rand_matrix(rng, host)
        inv = conv_inverse2(host, sig)
    assert is_lazy(TwoCocycle(host, sig, inv)) == ref_lazy(host, sig)


@pytest.mark.parametrize("spec", FIELDS)
def test_is_lazy_matches_dense_commutation_on_lazy_families(spec):
    h4 = cat.sweedler_h4(field_from_spec(spec))
    for t in T_DEFAULT:
        c = cat.sigma_t(h4, t)
        d = cat.theta_t(h4, t)
        assert is_lazy(c) is ref_lazy(h4, c.sigma) is True
        assert is_lazy(d.sigma) is ref_lazy(dual_hopf(h4), d.theta) is True


@pytest.mark.parametrize("spec", FIELDS)
def test_closed_form_inverses_match_conv_inverse2(spec):
    h4 = cat.sweedler_h4(field_from_spec(spec))
    for t in T_DEFAULT:
        for s in T_DEFAULT:
            rs = deform_cqt(cat.r_t(h4, t), cat.sigma_t(h4, s))
            assert rs.r_inv == conv_inverse2(h4, rs.r)
            qs = deform_qt(cat.qt_t(h4, t), cat.theta_t(h4, s))
            assert qs.rr_inv == conv_inverse2(dual_hopf(h4), qs.rr)


# -- a non-lazy coboundary ------------------------------------------------------

@pytest.mark.parametrize("spec", FIELDS)
def test_non_lazy_coboundary_on_h4(spec):
    """∂γ for the normalized, non-central γ = (1, −1, 2, 2) on H₄ is a
    cocycle whose H^∂γ differs from H₄ and keeps every structure."""
    f = field_from_spec(spec)
    h4 = cat.sweedler_h4(f)
    gamma = [f.from_int(x) for x in (1, -1, 2, 2)]
    c = two_cocycle(h4, ref_coboundary(h4, gamma, conv_inverse1(h4, gamma)))
    assert verify_two_cocycle(c).ok
    assert is_lazy(c) is False
    hs = deform(c)
    assert verify_hopf_axioms(hs).ok
    assert hs.mult != h4.mult
    r1 = cat.r_t(h4, 1)
    assert verify_cqt(deform_cqt(r1, c)).ok
    mods = (cat.regular_comodule_module(r1), unit_object(h4).module)
    for ma in mods:
        for mb in mods:
            assert verify_braided_functor(c, ma, mb).ok


def test_is_lazy_cross_check_catches_a_wrong_inverse(h4):
    """σ₁ is lazy, but with σ₂ for its inverse H^σ's product is not H's."""
    c = TwoCocycle(h4, cat.sigma_t(h4, 1).sigma, cat.sigma_t(h4, 2).sigma)
    with pytest.raises(VerificationError,
                       match="laziness and H\\^σ = H disagree"):
        is_lazy(c)
