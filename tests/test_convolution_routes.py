"""H^σ, R^σ, ∂μ and laziness are convolutions on the host's coalgebra.
These tests compare them with the hand-expanded Sweedler sums of
reference.py: the product Σ σ(i₁⊗j₁) i₂j₂ σ⁻¹(i₃⊗j₃), S^σ and (S^σ)⁻¹ over
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
import reference as ref

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


# -- old and new agree on arbitrary functionals -------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_deform_matches_dense_sums(host, seed):
    rng = random.Random(seed)
    sig, inv = rand_matrix(rng, host), rand_matrix(rng, host)
    got = deform(TwoCocycle(host, sig, inv))
    mult, s_mat, s_inv_mat = ref.deform_sums(host, sig, inv)
    assert got.mult.data == mult
    assert got.antipode == s_mat
    assert got.antipode_inv == s_inv_mat
    assert got.comult == host.comult and got.counit == host.counit


@pytest.mark.parametrize("seed", SEEDS)
def test_deform_cqt_matches_triple_sum(host, seed):
    rng = random.Random(100 + seed)
    r, r_inv, sig, inv = (rand_matrix(rng, host) for _ in range(4))
    got = deform_cqt(CqtStructure(host, r, r_inv), TwoCocycle(host, sig, inv))
    assert got.r == ref.deform_cqt(host, r, sig, inv)


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
    assert seen == [ref.coboundary(host, mu, mu_inv)]


@pytest.mark.parametrize("seed", SEEDS)
def test_is_lazy_matches_dense_commutation(host, seed):
    """On random invertible σ with its inverse; kC₂ makes every σ lazy."""
    rng = random.Random(300 + seed)
    sig = rand_matrix(rng, host)
    inv = conv_inverse2(host, sig)
    while inv is None:
        sig = rand_matrix(rng, host)
        inv = conv_inverse2(host, sig)
    assert is_lazy(TwoCocycle(host, sig, inv)) == ref.is_lazy(host, sig)


@pytest.mark.parametrize("spec", FIELDS)
def test_is_lazy_matches_dense_commutation_on_lazy_families(spec):
    h4 = cat.sweedler_h4(field_from_spec(spec))
    for t in T_DEFAULT:
        c = cat.sigma_t(h4, t)
        d = cat.theta_t(h4, t)
        assert is_lazy(c) is ref.is_lazy(h4, c.sigma) is True
        assert is_lazy(d.sigma) is ref.is_lazy(dual_hopf(h4), d.theta) is True


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
    c = two_cocycle(h4, ref.coboundary(h4, gamma, conv_inverse1(h4, gamma)))
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
