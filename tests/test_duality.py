"""The θ side is built as the σ side on H* = dual_hopf(H).  These tests
compare it with the θ-side formulas written out in reference.py: ρ_θ in
its first displayed form, Δ_θ and S_θ as conjugation by θ, the ℛ-induced
coaction and τ(θ)ℛθ⁻¹, with products in H and H⊗H.  They also check the
(−)* swap of YD modules that the routing goes through."""

import pytest

from hopflab import catalog as cat
from hopflab.fields import field_from_spec
from hopflab.galois import unit_object
from hopflab.hopf import dual_hopf
from hopflab.linalg import Tensor
from hopflab.quasitriangular import deform_qt
from hopflab.suite import T_DEFAULT
from hopflab.twist import deform_dual, dual_cocycle, eps_eps
from hopflab.yd import (dual_module, sigma_module, theta_module, verify_yd,
                        yd_tensor)
import reference as ref
from reference import hh_product, yd_from_module


@pytest.fixture(scope="module", params=["Q", "Fp:5"])
def h4(request):
    return cat.sweedler_h4(field_from_spec(request.param), verify=False)


@pytest.fixture(scope="module")
def modules(h4):
    """The regular, unit and trivial modules and their 9 tensor products."""
    base = {"reg": cat.regular_comodule_module(cat.r_t(h4, 1)),
            "I": unit_object(h4).module, "triv": cat.trivial_module(h4)}
    mods = dict(base)
    for na, ma in base.items():
        for nb, mb in base.items():
            mods[na + "*" + nb] = yd_tensor(ma, mb)
    return mods


@pytest.mark.parametrize("t", T_DEFAULT)
def test_theta_module_matches_rho_theta(h4, modules, t):
    d = cat.theta_t(h4, t)
    for name, mod in modules.items():
        tm = theta_module(d, mod)
        assert tm.host is deform_dual(d), name
        assert tm.action == mod.action, name
        assert tm.coaction == ref.rho_theta(d, mod), name


@pytest.mark.parametrize("t", T_DEFAULT)
def test_deform_dual_matches_conjugation_by_theta(h4, t):
    d = cat.theta_t(h4, t)
    h = h4
    comult, s_theta = ref.theta_conjugates(d)
    ht = deform_dual(d)
    assert ht.mult == h.mult and ht.unit == h.unit and ht.counit == h.counit
    assert ht.comult == comult
    assert ht.antipode == s_theta
    assert ht.antipode_inv == ref.inverse(s_theta)
    assert ht.basis_names == h.basis_names and ht.name == h.name + "_th"


@pytest.mark.parametrize("t", (0, 1, 2, -1))
def test_yd_from_module_matches_rr_coaction(h4, modules, t):
    q = cat.qt_t(h4, t)
    for name, mod in modules.items():
        got = yd_from_module(q, mod.action)
        assert got.host is h4, name
        assert got.action == mod.action, name
        assert got.coaction == ref.rr_coaction(q, mod.action), name


def test_yd_from_module_qt_c2_matches_rr_coaction(h4):
    kc2 = cat.group_algebra_c2(h4.field, verify=False)
    q = cat.qt_c2(kc2)
    action = Tensor(kc2.field, (2, 2, 2), list(kc2.mult.data))
    got = yd_from_module(q, action)
    assert got.action == action
    assert got.coaction == ref.rr_coaction(q, action)


@pytest.mark.parametrize("t", (0, 1, 2, -1))
def test_deform_qt_is_tau_theta_rr_theta_inverse(h4, t):
    q = cat.qt_t(h4, t)
    one = eps_eps(dual_hopf(h4))        # 1⊗1
    for s in T_DEFAULT:
        d = cat.theta_t(h4, s)
        assert hh_product(h4, d.theta, d.theta_inv) == one
        got = deform_qt(q, d)
        want = hh_product(h4, d.theta.transpose(),
                          hh_product(h4, q.rr, d.theta_inv))
        assert got.host is deform_dual(d)
        assert got.rr == want
        assert hh_product(h4, got.rr, got.rr_inv) == one


def test_deform_qt_qt_c2_trivial_theta(h4):
    kc2 = cat.group_algebra_c2(h4.field, verify=False)
    q = cat.qt_c2(kc2)
    one = eps_eps(dual_hopf(kc2))
    got = deform_qt(q, dual_cocycle(kc2, one))
    assert got.rr == q.rr
    assert hh_product(kc2, got.rr, got.rr_inv) == one


def catalog_yd_modules(h4):
    rt = cat.r_t(h4, 1)
    return {"yd_regular_r": cat.regular_comodule_module(rt),
            "yd_trivial": cat.trivial_module(h4),
            "unit_object": unit_object(h4).module,
            "end_regular": cat.end_regular(rt).module,
            "regular_galois_algebra":
                cat.regular_galois_algebra(h4).module}


def test_dual_module_is_an_involution(h4, modules):
    for name, mod in {**modules, **catalog_yd_modules(h4)}.items():
        back = dual_module(dual_module(mod))
        assert back.host is mod.host, name
        assert back.action == mod.action, name
        assert back.coaction == mod.coaction, name


def test_dual_modules_are_yd_over_the_dual(h4):
    s1 = cat.sigma_t(h4, 1)
    for name, mod in catalog_yd_modules(h4).items():
        for image in (mod, sigma_module(s1, mod)):
            dm = dual_module(image)
            assert dm.host is dual_hopf(image.host), name
            assert verify_yd(dm).ok, name
