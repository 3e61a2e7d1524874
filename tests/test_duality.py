"""The θ side is built as the σ side on H* = dual_hopf(H).  These tests keep
the hand-written θ-side formulas it replaced as dense references: ρ_θ in
its first displayed form, Δ_θ and S_θ as conjugation by θ, the ℛ-induced
coaction and τ(θ)ℛθ⁻¹, with products in H and H⊗H written out here.  They
also check the (−)* swap of YD modules that the routing goes through."""

import pytest

from hopflab import catalog as cat
from hopflab.fields import field_from_spec
from hopflab.galois import unit_object
from hopflab.hopf import dual_hopf
from hopflab.linalg import Matrix, Tensor, mat_inverse
from hopflab.quasitriangular import deform_qt
from hopflab.suite import T_DEFAULT
from hopflab.twist import deform_dual, dual_cocycle, eps_eps
from hopflab.yd import (dual_module, sigma_module, theta_module, verify_yd,
                        yd_tensor)
from conftest import dense_row
from test_quasitriangular import yd_from_module


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


def product(h, *vecs):
    """The product of coordinate vectors of H, left to right."""
    out = vecs[0]
    for v in vecs[1:]:
        out = h.mul_vec(out, v)
    return out


def hh_product(h, a, b):
    """(Σ a_ij e_i⊗e_j)(Σ b_kl e_k⊗e_l) = Σ a_ij b_kl e_ie_k ⊗ e_je_l."""
    n = h.dim
    out = [[h.field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    x = a.data[i][j] * b.data[k][l]
                    if not x:
                        continue
                    left = dense_row(h.mult, i, k)
                    right = dense_row(h.mult, j, l)
                    for p in range(n):
                        for q in range(n):
                            out[p][q] = out[p][q] + x * left[p] * right[q]
    return Matrix(h.field, n, n, out)


def pairs(mat):
    return [(a, b, x) for a, row in enumerate(mat.data)
            for b, x in enumerate(row) if x]


def rho_theta(d, mod):
    """ρ_θ(m) = Σ θ¹·(θ̄²·m)₀ ⊗ θ²(θ̄²·m)₁θ̄¹ for θ⁻¹ = Σ θ̄¹⊗θ̄², as the
    tensor coaction[p,q,k]."""
    h = mod.host
    n, m = h.dim, mod.dim
    e = h.basis_vec
    middle = {(b, k, c): product(h, e(b), e(k), e(c))
              for b in range(n) for k in range(n) for c in range(n)}
    co = [[[h.field.zero] * n for _ in range(m)] for _ in range(m)]
    for p in range(m):
        for a, b, x in pairs(d.theta):
            for c, e2, y in pairs(d.theta_inv):
                for q0, u in mod.act.row(e2, p):
                    for q1, k, cc in mod.coact.terms(q0):
                        hv = middle[b, k, c]
                        for q2, v in mod.act.row(a, q1):
                            w = x * y * u * cc * v
                            row = co[p][q2]
                            for k2 in range(n):
                                if hv[k2]:
                                    row[k2] = row[k2] + w * hv[k2]
    return Tensor.from_rows(h.field, (m, m, n), co)


@pytest.mark.parametrize("t", T_DEFAULT)
def test_theta_module_matches_rho_theta(h4, modules, t):
    d = cat.theta_t(h4, t)
    for name, mod in modules.items():
        tm = theta_module(d, mod)
        assert tm.host is deform_dual(d), name
        assert tm.action == mod.action, name
        assert tm.coaction == rho_theta(d, mod), name


@pytest.mark.parametrize("t", T_DEFAULT)
def test_deform_dual_matches_conjugation_by_theta(h4, t):
    d = cat.theta_t(h4, t)
    h, n = h4, h4.dim
    comult = []
    s_rows = []
    for i in range(n):
        di = Matrix(h.field, n, n, [h.comult.data[(i * n + a) * n:
                                                  (i * n + a + 1) * n]
                                    for a in range(n)])
        comult.append(hh_product(h, d.theta,
                                 hh_product(h, di, d.theta_inv)).data)
        # S_θ(h) = Σ θ¹ S(θ²) S(h) S(θ̄¹) θ̄²
        acc = [h.field.zero] * n
        for a, b, x in pairs(d.theta):
            for c, e, y in pairs(d.theta_inv):
                s = h.antipode.data
                v = product(h, h.basis_vec(a), s[b], s[i], s[c],
                            h.basis_vec(e))
                acc = [z + x * y * w for z, w in zip(acc, v)]
        s_rows.append(acc)
    s_theta = Matrix(h.field, n, n, s_rows)
    ht = deform_dual(d)
    assert ht.mult == h.mult and ht.unit == h.unit and ht.counit == h.counit
    assert ht.comult == Tensor.from_rows(h.field, (n, n, n), comult)
    assert ht.antipode == s_theta
    assert ht.antipode_inv == mat_inverse(s_theta)
    assert ht.basis_names == h.basis_names and ht.name == h.name + "_th"


def rr_coaction(q, action):
    """a ↦ Σ (ℛ²·a)⊗ℛ¹ as the tensor coaction[p,q,i]."""
    h = q.host
    n, m = h.dim, action.shape[1]
    co = [[[h.field.zero] * n for _ in range(m)] for _ in range(m)]
    act = action.data
    for i, j, x in pairs(q.rr):
        for p in range(m):
            for r in range(m):
                co[p][r][i] = co[p][r][i] + x * act[(j * m + p) * m + r]
    return Tensor.from_rows(h.field, (m, m, n), co)


@pytest.mark.parametrize("t", (0, 1, 2, -1))
def test_yd_from_module_matches_rr_coaction(h4, modules, t):
    q = cat.qt_t(h4, t)
    for name, mod in modules.items():
        got = yd_from_module(q, mod.action)
        assert got.host is h4, name
        assert got.action == mod.action, name
        assert got.coaction == rr_coaction(q, mod.action), name


def test_yd_from_module_qt_c2_matches_rr_coaction(h4):
    kc2 = cat.group_algebra_c2(h4.field, verify=False)
    q = cat.qt_c2(kc2)
    action = Tensor(kc2.field, (2, 2, 2), list(kc2.mult.data))
    got = yd_from_module(q, action)
    assert got.action == action
    assert got.coaction == rr_coaction(q, action)


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
