"""Convolution algebra, 2-cocycles, dual cocycles and deformations."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hopflab.fields import QQ, field_from_spec
from hopflab.hopf import dual_hopf, verify_hopf_axioms
from hopflab.linalg import Matrix
from hopflab.report import CheckReport, VerificationError, first_mismatch
from hopflab.twist import (are_conv_inverse, coboundary_from,
                           compose_cocycles, conv_inverse1, conv_inverse2,
                           convolve2, deform, deform_dual, dual_cocycle,
                           dual_cocycle_product, eps_eps, is_lazy,
                           is_lazy_dual, lazy_one_cocycle, two_cocycle,
                           verify_dual_cocycle, verify_two_cocycle,
                           DualCocycle, TwoCocycle, hhh_delta, hhh_leg,
                           hhh_mul)
from hopflab.catalog import (group_algebra_c2, one_cocycle_c2, sigma_t,
                             sweedler_h4, theta_t)
from conftest import dense_row
from test_hopf import one_matrix_changes, report_rows


def h4_character_mu(h4):
    """The algebra character μ = (1↦1, g↦-1, h,gh↦0) of H₄ (not central)."""
    f = h4.field
    return [f.one, -f.one, f.zero, f.zero]


def rand_func(rng, field, n):
    return Matrix(field, n, n, [[field.from_int(rng.randint(-4, 4))
                                 for _ in range(n)] for _ in range(n)])


def test_convolution_unit(h4):
    rng = random.Random(0)
    f = rand_func(rng, QQ, 4)
    ee = eps_eps(h4)
    assert convolve2(h4, f, ee) == f
    assert convolve2(h4, ee, f) == f


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_convolution_associative(seed):
    h4 = sweedler_h4(QQ, verify=False)
    rng = random.Random(seed)
    a, b, c = (rand_func(rng, QQ, 4) for _ in range(3))
    assert convolve2(h4, convolve2(h4, a, b), c) == \
        convolve2(h4, a, convolve2(h4, b, c))


def test_sigma_group_law(h4):
    s1 = sigma_t(h4, 1)
    s2 = sigma_t(h4, 2)
    assert convolve2(h4, s1.sigma, s2.sigma) == sigma_t(h4, 3).sigma


def test_sigma_inverse_by_convolution(h4):
    s1 = sigma_t(h4, 1)
    sm1 = sigma_t(h4, -1)
    assert convolve2(h4, s1.sigma, sm1.sigma) == eps_eps(h4)
    assert conv_inverse2(h4, s1.sigma) == sm1.sigma


def test_conv_inverse_of_unit(h4):
    ee = eps_eps(h4)
    assert conv_inverse2(h4, ee) == ee


def test_conv_inverse_absent_for_zero(kc2):
    zero = Matrix.zeros(QQ, 2, 2)
    assert conv_inverse2(kc2, zero) is None
    # μ = δ_1 on kC₂: (μν)(g) = μ(g)ν(g) = 0 ≠ ε(g), so μν = ε has no ν
    assert conv_inverse1(kc2, [QQ.one, QQ.zero]) is None


def test_verify_sigma_t(h4):
    for t in (-2, -1, 0, 1, 2, 3):
        rep = verify_two_cocycle(sigma_t(h4, t))
        assert rep.ok, rep.render_text()


def test_trivial_cocycle_passes(h4):
    c = two_cocycle(h4, eps_eps(h4))
    assert verify_two_cocycle(c).ok
    assert is_lazy(c)


def test_corrupted_cocycle_detected(h4):
    s1 = sigma_t(h4, 1)
    bad = Matrix(QQ, 4, 4, [row[:] for row in s1.sigma.data])
    bad.data[2][2] = QQ.one   # σ(h⊗h) := 1
    c = TwoCocycle(h4, bad, s1.sigma_inv)
    rep = verify_two_cocycle(c)
    fails = {x.name: x for x in rep.failures()}
    assert "cocycle_identity" in fails
    assert fails["cocycle_identity"].witness is not None


def test_sigma_t_lazy(h4):
    assert is_lazy(sigma_t(h4, 1))
    assert is_lazy(sigma_t(h4, 2))


def test_deform_trivial_identity(h4):
    c = two_cocycle(h4, eps_eps(h4))
    assert verify_hopf_axioms(deform(c)).ok
    assert deform(c).structures_equal(h4)


def test_deform_lazy_keeps_mult(h4):
    hs = deform(sigma_t(h4, 1))
    assert hs.mult == h4.mult
    # the antipode may twist even for a lazy cocycle; axioms must hold
    assert verify_hopf_axioms(hs).ok


def test_deform_roundtrip(h4):
    s1 = sigma_t(h4, 1)
    hs = deform(s1)
    back = deform(two_cocycle(hs, s1.sigma_inv))
    assert verify_hopf_axioms(hs).ok and verify_hopf_axioms(back).ok
    assert back.structures_equal(h4)


def test_deform_memoizes_host_per_cocycle(h4):
    s1 = sigma_t(h4, 1)
    twin = TwoCocycle(h4, s1.sigma, s1.sigma_inv)
    before = repr(s1)
    hs = deform(s1)
    assert deform(s1) is hs
    # the memo is not part of the value
    assert s1 == twin and repr(s1) == before == repr(twin)
    assert deform(twin) is not hs and deform(twin).structures_equal(hs)
    assert verify_hopf_axioms(hs).ok and verify_hopf_axioms(deform(twin)).ok


def failing_checks(h):
    return [c.name for c in verify_hopf_axioms(h).failures()]


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_deformed_host_reads_its_hosts_copowers(spec):
    """H^σ is built on H's Δ, so its copower lists, lifted or not, are H's
    own objects, built once for both, whichever host asks first."""
    h = sweedler_h4(field_from_spec(spec), verify=False)
    hs = deform(sigma_t(h, 1))
    for k in (3, 4, 5):
        for i in range(h.dim):
            assert hs.copower(i, k) is h.copower(i, k)
        assert hs.lifted_copower(k) is h.lifted_copower(k)
    assert hs.lifted_copower(3)[1] == 1


def test_deform_memo_keeps_failing_host(h4):
    s1 = sigma_t(h4, 1)
    bad = Matrix(QQ, 4, 4, [row[:] for row in s1.sigma.data])
    bad.data[1][1] = bad.data[1][1] + QQ.one
    c = TwoCocycle(h4, bad, s1.sigma_inv)   # H^σ is not associative
    hs = deform(c)
    assert deform(c) is hs
    assert failing_checks(hs) == [
        "associativity", "comult_algebra_map", "counit_algebra_map",
        "antipode", "antipode_inverse"]


def test_compose_cocycles(h4):
    s1 = sigma_t(h4, 1)
    hs = deform(s1)
    s2_on_hs = two_cocycle(hs, sigma_t(h4, 2).sigma)
    comp = compose_cocycles(s2_on_hs, s1)
    assert comp.sigma == sigma_t(h4, 3).sigma
    # trivial first factor returns the second cocycle
    triv = two_cocycle(hs, eps_eps(hs))
    assert compose_cocycles(triv, s1).sigma == s1.sigma
    # composing with the inverse gives the trivial cocycle
    sinv = two_cocycle(hs, s1.sigma_inv)
    assert compose_cocycles(sinv, s1).sigma == eps_eps(h4)


@pytest.mark.parametrize("t1,t2", [(1, 2), (2, -1), (-2, 3)])
def test_compose_cocycles_inverse_is_a_convolution_inverse(h4, t1, t2):
    """σ₁*σ gets σ⁻¹*σ₁⁻¹ as its inverse, unsolved: it is the two-sided
    convolution inverse, and the one conv_inverse2 solves."""
    s = sigma_t(h4, t1)
    s1 = two_cocycle(deform(s), sigma_t(h4, t2).sigma)
    comp = compose_cocycles(s1, s)
    assert are_conv_inverse(h4, comp.sigma, comp.sigma_inv)
    assert comp.sigma_inv == conv_inverse2(h4, comp.sigma)


# -- lazy 1-cocycles and coboundaries -----------------------------------------

def test_coboundary_of_counit_is_trivial(h4):
    mu = lazy_one_cocycle(h4, list(h4.counit))
    assert coboundary_from(mu).sigma == eps_eps(h4)


def test_coboundary_on_kc2_exact_values(kc2):
    mu = one_cocycle_c2(kc2, 2)
    cob = coboundary_from(mu)
    # σ(g⊗g) = μ(g)²μ⁻¹(g²) = 4
    assert cob.sigma.data[1][1] == QQ.from_int(4)
    assert verify_two_cocycle(cob).ok
    assert is_lazy(cob)


def test_noncentral_mu_rejected(h4):
    bad = [QQ.one, QQ.one, QQ.one, QQ.zero]   # μ(h) = 1 breaks centrality
    with pytest.raises(VerificationError):
        lazy_one_cocycle(h4, bad)
    # μ = ε is its own inverse; every one-entry change of μ⁻¹ is refused
    mu = list(h4.counit)
    for i in range(h4.dim):
        mu_inv = list(mu)
        mu_inv[i] = mu_inv[i] + QQ.one
        with pytest.raises(VerificationError, match="mu_inv is not the "
                           "convolution inverse of mu"):
            lazy_one_cocycle(h4, mu, mu_inv)


def test_character_coboundary_on_h4(h4):
    """∂μ for the character μ(g) = -1 is a valid 2-cocycle; its laziness is
    decided by the brute-force identity and cross-checked against H^σ = H
    (it is in fact the trivial cocycle, hence lazy)."""
    mu = h4_character_mu(h4)
    mu_inv = conv_inverse1(h4, mu)
    assert mu_inv is not None
    n = 4
    sig = Matrix.zeros(QQ, n, n)
    for i in range(n):
        for j in range(n):
            acc = QQ.zero
            for a, b, ca in h4.delta.terms(i):
                for c, d, cd in h4.delta.terms(j):
                    if not (mu[a] and mu[c]):
                        continue
                    w = ca * cd * mu[a] * mu[c]
                    prod = dense_row(h4.mult, b, d)
                    for k, x in enumerate(prod):
                        if x and mu_inv[k]:
                            acc = acc + w * x * mu_inv[k]
            sig.data[i][j] = acc
    c = two_cocycle(h4, sig)
    assert verify_two_cocycle(c).ok
    assert is_lazy(c)
    assert sig == eps_eps(h4)   # characters give trivial coboundaries


# -- dual cocycles ------------------------------------------------------------

def test_theta_t_verifies(h4):
    for t in (-2, -1, 0, 1, 2, 3):
        assert verify_dual_cocycle(theta_t(h4, t)).ok


def test_trivial_dual_cocycle(h4):
    d = dual_cocycle(h4, eps_eps(dual_hopf(h4)))
    assert verify_dual_cocycle(d).ok
    assert is_lazy_dual(d)


def test_corrupted_dual_cocycle_detected(h4):
    th2 = theta_t(h4, 2)
    bad = Matrix.zeros(QQ, 4, 4)
    bad.data[0][0] = QQ.one
    bad.data[2][2] = QQ.one   # coefficient moved from h⊗gh to h⊗h
    d = dual_cocycle(h4, bad)
    rep = verify_dual_cocycle(d)
    assert not rep.ok
    assert rep.first_failure().witness is not None


# -- H⊗H⊗H on flat n³ coefficient lists: the reference ------------------------

def flat_hhh_mul(h, a, b):
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


def flat_embed12(h, m):
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


def flat_embed23(h, m):
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


def flat_delta_leg1(h, m):
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


def flat_delta_leg2(h, m):
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


def flat_dual_cocycle_checks(d):
    """dual_pentagon and counit_normalization as verify_dual_cocycle wrote
    them before twist's sparse H⊗H⊗H arithmetic: the reference."""
    h = d.host
    n, f = h.dim, h.field
    rep = CheckReport()
    lhs = flat_hhh_mul(h, flat_embed12(h, d.theta),
                       flat_delta_leg1(h, d.theta))
    rhs = flat_hhh_mul(h, flat_embed23(h, d.theta),
                       flat_delta_leg2(h, d.theta))
    bad = first_mismatch((range(n),) * 3, lambda a, b, c: (
        lhs[(a * n + b) * n + c], rhs[(a * n + b) * n + c]))
    rep.add("dual_pentagon", bad is None, bad)
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
    rep.add("counit_normalization", left == h.unit and right == h.unit)
    return rep


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_dual_cocycle_matches_flat_reference(spec):
    """On every ±1 one-entry change of θ₁, dual_pentagon and
    counit_normalization give the flat-list reference's report tuples, and
    the sparse products equal the flat ones entry for entry."""
    d = theta_t(sweedler_h4(field_from_spec(spec)), 1)
    h, names = d.host, ("dual_pentagon", "counit_normalization")
    assert report_rows(verify_dual_cocycle(d), names) == \
        report_rows(flat_dual_cocycle_checks(d))
    failing = set()
    for theta in one_matrix_changes(d.theta):
        bad = DualCocycle(h, theta, d.theta_inv)
        rows = report_rows(verify_dual_cocycle(bad), names)
        assert rows == report_rows(flat_dual_cocycle_checks(bad))
        failing |= {r[0] for r in rows if r[1] == "fail"}
        for legs, flat in (((2, 0), (flat_embed12, flat_delta_leg1)),
                           ((0, 1), (flat_embed23, flat_delta_leg2))):
            sparse = hhh_mul(h, hhh_leg(h, theta, legs[0]),
                             hhh_delta(h, theta, legs[1]))
            dense = flat_hhh_mul(h, flat[0](h, theta), flat[1](h, theta))
            n = h.dim
            assert [sparse.get((a, b, c), h.field.zero) for a in range(n)
                    for b in range(n) for c in range(n)] == dense
    assert failing == set(names)


def test_hhh_arithmetic_matches_flat_on_a_non_basis_unit(h4):
    """On H₄*, whose unit ε = δ_1 + δ_g has two terms, the leg placements,
    Δ on each leg and the product equal the flat-list references."""
    hd = dual_hopf(h4)
    n, rng = hd.dim, random.Random(19)
    m = rand_func(rng, QQ, n)

    def flat(sparse):
        return [sparse.get((a, b, c), QQ.zero) for a in range(n)
                for b in range(n) for c in range(n)]

    pairs = [(hhh_leg(hd, m, 2), flat_embed12(hd, m)),
             (hhh_leg(hd, m, 0), flat_embed23(hd, m)),
             (hhh_delta(hd, m, 0), flat_delta_leg1(hd, m)),
             (hhh_delta(hd, m, 1), flat_delta_leg2(hd, m))]
    for sparse, dense in pairs:
        assert flat(sparse) == dense
    assert flat(hhh_mul(hd, pairs[0][0], pairs[2][0])) == \
        flat_hhh_mul(hd, pairs[0][1], pairs[2][1])
    r13 = hhh_leg(hd, m, 1)
    assert all(r13[(i, t, j)] == m.data[i][j] * hd.unit[t]
               for i in range(n) for j in range(n) for t in (0, 1)
               if m.data[i][j])

def test_theta_group_law(h4):
    t1, t2 = theta_t(h4, 1), theta_t(h4, 2)
    assert dual_cocycle_product(t1, t2).theta == theta_t(h4, 3).theta


def test_theta_lazy(h4):
    for t in (1, 2):
        assert is_lazy_dual(theta_t(h4, t))


def test_nonstandard_theta_decided(h4):
    """θ = 1⊗1 + (1/2)h⊗h must fail the dual-cocycle identity or laziness."""
    th = Matrix.zeros(QQ, 4, 4)
    th.data[0][0] = QQ.one
    th.data[2][2] = QQ.ratio(1, 2)
    d = dual_cocycle(h4, th)
    valid = verify_dual_cocycle(d).ok
    assert (not valid) or (not is_lazy_dual(d))


def test_deform_dual_trivial(h4):
    d = dual_cocycle(h4, eps_eps(dual_hopf(h4)))
    assert verify_hopf_axioms(deform_dual(d)).ok
    assert deform_dual(d).structures_equal(h4)


def test_deform_dual_lazy_keeps_comult(h4):
    ht = deform_dual(theta_t(h4, 2))
    assert ht.comult == h4.comult
    assert verify_hopf_axioms(ht).ok


def test_deform_dual_roundtrip(h4):
    th = theta_t(h4, 2)
    ht = deform_dual(th)
    back = deform_dual(dual_cocycle(ht, th.theta_inv))
    assert verify_hopf_axioms(ht).ok and verify_hopf_axioms(back).ok
    assert back.structures_equal(h4)


def test_deform_dual_memoizes_host_per_cocycle(h4):
    th = theta_t(h4, 2)
    twin = dual_cocycle(h4, th.theta, th.theta_inv)
    before = repr(th)
    ht = deform_dual(th)
    assert deform_dual(th) is ht
    assert th == twin and repr(th) == before == repr(twin)
    assert deform_dual(twin) is not ht
    assert verify_hopf_axioms(ht).ok
    assert verify_hopf_axioms(deform_dual(twin)).ok


def test_deform_dual_memo_keeps_failing_host(h4):
    th = theta_t(h4, 1)
    bad = Matrix(QQ, 4, 4, [row[:] for row in th.theta.data])
    bad.data[0][2] = bad.data[0][2] + QQ.one
    d = dual_cocycle(h4, bad)               # Δ_θ is not coassociative
    ht = deform_dual(d)
    assert deform_dual(d) is ht
    # S_θ⁻¹ is (H*)^σ_θ's own S⁻¹ formula, not the inverse matrix of S_θ,
    # so it is no inverse when θ is no dual cocycle
    assert failing_checks(ht) == ["coassociativity", "counit", "antipode",
                                  "antipode_inverse"]


def test_hh_algebra(h4):
    # the product of H⊗H is the convolution on H*, with unit 1⊗1
    hd = dual_hopf(h4)
    one = eps_eps(hd)
    th = theta_t(h4, 2)
    assert convolve2(hd, one, th.theta) == th.theta
    assert convolve2(hd, th.theta, th.theta_inv) == one
