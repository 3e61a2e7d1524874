"""Elements of H as sparse rows: the word product h.product, the S and S⁻¹
tables h.antipodes and twist.eval2 on sparse rows, against the dense forms
they replaced.

Each reference below is the replaced construction as it was written on
dense vectors of H: basis vectors and the rows of S and S⁻¹
(h.antipode.data, h.antipode_inv.data) multiplied through h.mul_vec and
the tests' dense_row, and paired through dense_eval2.  The sparse
construction must give the same object, report or error on every ±1
one-entry change of its input, over ℚ and F₅.  A guard keeps h.mul_vec out
of them, and every dense product out of a seed-0 F₅ suite pass.
"""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from hopflab.catalog import (r_t, regular_comodule_module, sigma_t,
                             sweedler_h4)
from hopflab.fields import field_from_spec
from hopflab.galois import (BimoduleActions, BraidedHopf, act2_tensor,
                            adjoint_module, bimodule_actions, build_hr,
                            chi_maps, phi_psi_xi, unit_object)
from hopflab.hopf import HopfAlgebra, dual_hopf
from hopflab.linalg import (Bilinear, Matrix, Tensor, are_inverse,
                            linear_combination, mat_mul)
from hopflab.quasitriangular import CqtStructure, verify_cqt
from hopflab.report import CheckReport, VerificationError, first_mismatch
from hopflab.suite import run_suite
from hopflab.twist import (TwoCocycle, _coordinate_functionals, _deform,
                           convolve2)
from hopflab.yd import (YdAlgebra, YdModule, agreed_tensor, end_algebra,
                        verify_yd)
from conftest import apply_rowmap, dense_row
from test_convolution_routes import dense_eval2
from test_hopf import (hopf_with, one_entry_changes, one_matrix_changes,
                       report_rows, taft_algebra)
from test_lifted_loops import module_changes, outcome


# -- the replaced dense forms -------------------------------------------------

def reference_sinv_form(mod):
    """verify_yd's yd_compatibility_sinv_form, (e_c3 e_k)·S⁻¹(e_a) through
    h.mul_vec, as a one-check report."""
    h = mod.host
    zero = h.field.zero
    act, coact = mod.act, mod.coact

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
                    vec = h.mul_vec(dense_row(h.mult, c3, k),
                                    h.antipode_inv.data[a])
                    for k2, cv in enumerate(vec):
                        if cv:
                            key = (q, k2)
                            rhs[key] = rhs.get(key, zero) + w2 * cv
        return lhs, rhs

    rep = CheckReport()
    bad = first_mismatch((range(h.dim), range(mod.dim)), compatibility_sinv)
    rep.add("yd_compatibility_sinv_form", bad is None, bad,
            "ρ(h·m) = Σh2·m0⊗h3m1S⁻¹(h1)")
    return rep


def reference_cqt4_forms(c):
    """CQT4' (S(e_x1)·e_b·e_x3 by linear_combination over a dense S row)
    and CQT4'' ((e_g3 e_b)·S⁻¹(e_g1) through h.mul_vec) as verify_cqt wrote
    them."""
    h, r = c.host, c.r
    n, f = h.dim, h.field
    every = range(n)
    rep = CheckReport()

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
                vec = linear_combination(f, n, (
                    (cs, h.mul.row(t, b))
                    for t, cs in enumerate(h.antipode.data[x1]) if cs))
                vec = linear_combination(f, n, (
                    (cv, h.mul.row(t, x3)) for t, cv in enumerate(vec) if cv))
                for k, cv in enumerate(vec):
                    if cv:
                        rhs[k] = rhs[k] + w * ca * v * cv
        return lhs, rhs

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
                vec = h.mul_vec(dense_row(h.mult, g3, b),
                                h.antipode_inv.data[g1])
                for k, cv in enumerate(vec):
                    if cv:
                        rhs[k] = rhs[k] + w * ca * v * cv
        return lhs, rhs

    bad = first_mismatch((every,) * 2, cqt4_prime)
    rep.add("CQT4'", bad is None, bad, "Σg1R(g2⊗h) = ΣR(g1⊗h2)S(h1)g2h3")
    bad = first_mismatch((every,) * 2, cqt4_second)
    rep.add("CQT4''", bad is None, bad, "Σh1R(g⊗h2) = ΣR(g2⊗h1)g3h2S⁻¹(g1)")
    return rep


def reference_yd_from_comodule(c, coaction):
    h = c.host
    m = coaction.shape[0]
    coact, ms = partial(dense_row, coaction), range(m)
    action = Tensor.from_rows(h.field, (h.dim, m, m), [
        [[dense_eval2(c.r, i, coact(p, q)) for q in ms] for p in ms]
        for i in range(h.dim)])
    return YdModule(h, m, action, coaction)


def reference_act2_tensor(c, mod):
    h = c.host
    ms = range(mod.dim)
    rho = [[dense_row(mod.coaction, p, q) for q in ms] for p in ms]
    s_rho = [[apply_rowmap(v, h.antipode) for v in row] for row in rho]
    return agreed_tensor(
        "▷₂", h.field, (h.dim, mod.dim, mod.dim),
        lambda i, p: [dense_eval2(c.r, v, i) for v in s_rho[p]],
        lambda i, p: [dense_eval2(c.r, v, h.antipode_inv.data[i])
                      for v in rho[p]])


def reference_build_hr(c):
    h = c.host
    n = h.dim
    f = h.field
    e, hs = h.basis_vec, range(n)
    s, sinv = h.antipode.data, h.antipode_inv.data

    def star(i, j):
        acc = [f.zero] * n
        for (l1, l2, l3), w2 in h.copower(j, 3):
            u = h.mul_vec(sinv[l3], e(l1))
            for h1, h2, w1 in h.delta.terms(i):
                scal = dense_eval2(c.r, u, h1)
                if not scal:
                    continue
                w = w1 * w2 * scal
                for k, cm in h.mul.row(l2, h2):
                    acc[k] = acc[k] + w * cm
        return acc

    ss = mat_mul(h.antipode, h.antipode)

    def s_r(i):
        acc = [f.zero] * n
        for (a, b, c3, d), w in h.copower(i, 4):
            scal = dense_eval2(c.r, h.mul_vec(ss.data[c3], s[a]), d)
            if not scal:
                continue
            for k, cv in enumerate(s[b]):
                if cv:
                    acc[k] = acc[k] + w * scal * cv
        return acc

    def adjoint(i):
        rows = [[f.zero] * n for _ in hs]
        for (a, b, c3), w in h.copower(i, 3):
            row = rows[b]
            for k, cv in enumerate(h.mul_vec(s[a], e(c3))):
                if cv:
                    row[k] = row[k] + w * cv
        return rows

    mod = reference_yd_from_comodule(c, Tensor.from_rows(
        f, (n, n, n), [adjoint(i) for i in hs]))
    star_t = Tensor.from_rows(f, (n, n, n),
                              [[star(i, j) for j in hs] for i in hs])
    return BraidedHopf(c, YdAlgebra(mod, star_t, list(h.unit)),
                       Matrix(f, n, n, [s_r(i) for i in hs]))


def reference_bimodule_actions(bh, mod):
    h = bh.host
    r = bh.cqt.r
    f = h.field
    m = mod.dim
    shape = (h.dim, m, m)
    s, sinv = h.antipode.data, h.antipode_inv.data
    a2 = reference_act2_tensor(bh.cqt, mod)
    act2 = Bilinear(a2)

    def left(i, p):
        acc = [f.zero] * m
        for a, b, w in h.delta.terms(i):
            for q0, x in mod.act.row(a, p):
                for q, k, c0 in mod.coact.terms(q0):
                    scal = dense_eval2(r, sinv[b], k)
                    if scal:
                        acc[q] = acc[q] + w * x * c0 * scal
        return acc

    def left_expanded(i, p):
        acc = [f.zero] * m
        for (a, b, c3, d), w in h.copower(i, 4):
            for q0, k, c0 in mod.coact.terms(p):
                scal = dense_eval2(r, sinv[d], h.mul_vec(
                    dense_row(h.mult, c3, k), sinv[a]))
                if not scal:
                    continue
                for q, x in mod.act.row(b, q0):
                    acc[q] = acc[q] + w * c0 * scal * x
        return acc

    def right(i, p):
        acc = [f.zero] * m
        for a, b, w in h.delta.terms(i):
            v = act2.apply(s[a], dense_row(mod.action, b, p))
            for q, x in enumerate(v):
                if x:
                    acc[q] = acc[q] + w * x
        return acc

    def right_expanded(i, p):
        acc = [f.zero] * m
        for (a, b, c3, d), w in h.copower(i, 4):
            for q0, k, c0 in mod.coact.terms(p):
                scal = dense_eval2(
                    r, h.mul_vec(dense_row(h.mult, d, k), sinv[b]), a)
                if not scal:
                    continue
                for q, x in mod.act.row(c3, q0):
                    acc[q] = acc[q] + w * c0 * scal * x
        return acc

    return BimoduleActions(
        mod, agreed_tensor("−▷", f, shape, left, left_expanded),
        agreed_tensor("◁−", f, shape, right, right_expanded), a2)


def reference_adjoint_module(host):
    f = host.field
    n = host.dim
    action = Tensor.zeros(f, (n, n, n))
    for i in range(n):
        for p in range(n):
            acc = [f.zero] * n
            for a, b, c in host.delta.terms(i):
                v = host.mul_vec(dense_row(host.mult, b, p),
                                 host.antipode_inv.data[a])
                for k, x in enumerate(v):
                    if x:
                        acc[k] = acc[k] + c * x
            for k in range(n):
                action.data[(i * n + p) * n + k] = acc[k]
    return YdModule(host, n, action, Tensor(f, (n, n, n),
                                            list(host.comult.data)))


def reference_end_algebra(mod):
    h = mod.host
    f = h.field
    n = h.dim
    m = mod.dim
    dim = m * m
    ms, ds = range(m), range(dim)
    one = f.one

    def compose(e1, e2):
        (p, q), (r, s2) = divmod(e1, m), divmod(e2, m)
        out = [f.zero] * dim
        if s2 == p:
            out[r * m + q] = one
        return out

    unit = [f.zero] * dim
    for p in ms:
        unit[p * m + p] = one

    s_act = [[mod.act_vec(h.antipode.data[b], mod.basis_vec(r)) for r in ms]
             for b in range(n)]

    def conjugate(i, src):
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
        p, q = divmod(src, m)
        rows = [[f.zero] * n for _ in ds]
        for r in ms:
            for p2, k, c1 in mod.coact.terms(r):
                if p2 != p:
                    continue
                for q2, l, c2 in mod.coact.terms(q):
                    w = c1 * c2
                    row = rows[r * m + q2]
                    hv = h.mul_vec(h.antipode_inv.data[k], h.basis_vec(l))
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
    return YdAlgebra(YdModule(h, dim, action, coaction), mult, unit)


def reference_chi_maps(s):
    h = s.host
    n = h.dim
    f = h.field
    e, sinv = h.basis_vec, h.antipode_inv.data

    def chi(i):
        acc = [f.zero] * n
        for (a, b, c, d), w in h.copower(i, 4):
            scal = dense_eval2(s.sigma_inv, d, h.mul_vec(sinv[c], e(a)))
            if scal:
                acc[b] = acc[b] + w * scal
        return acc

    def chi_inv(i):
        acc = [f.zero] * n
        for (a, b, c, d, e5), w in h.copower(i, 5):
            s1 = dense_eval2(s.sigma_inv, sinv[e5], a)
            if not s1:
                continue
            s2 = dense_eval2(s.sigma, sinv[d], c)
            if s2:
                acc[b] = acc[b] + w * s1 * s2
        return acc

    chi = Matrix(f, n, n, [chi(i) for i in range(n)])
    chi_inv = Matrix(f, n, n, [chi_inv(i) for i in range(n)])
    if not are_inverse(chi, chi_inv):
        raise VerificationError("χ and χ⁻¹ are not mutually inverse")
    return chi, chi_inv, chi.transpose()


def reference_phi_psi_xi(s, alg):
    h = s.host
    n = h.dim
    f = h.field
    mod = alg.module
    m = mod.dim
    e, sinv, hs = h.basis_vec, h.antipode_inv.data, range(n)

    def spread(mat, w, pairing, at_row, at_col):
        for p in range(m):
            row = mat.data[at_row(p)]
            for q, k, c in mod.coact.terms(p):
                if pairing[k]:
                    row[at_col(q)] = row[at_col(q)] + w * c * pairing[k]

    def build(mat2, psi):
        at = (lambda p, j: j * m + p) if psi else (lambda p, j: p * n + j)
        out = Matrix.zeros(f, m * n, m * n)
        for k in hs:
            for (k1, j, k3), w in h.copower(k, 3):
                u = h.mul_vec(sinv[k3], e(k1))
                pairing = [dense_eval2(mat2, u, t) if psi
                           else dense_eval2(mat2, t, u) for t in hs]
                spread(out, w, pairing, lambda p: at(p, j),
                       lambda q: at(q, k))
        return out

    phi, phi_inv = build(s.sigma, False), build(s.sigma_inv, False)
    psi, psi_inv = build(s.sigma, True), build(s.sigma_inv, True)

    xi = Matrix.zeros(f, m * n, m * n)
    xi_inv = Matrix.zeros(f, m * n, m * n)
    for i in hs:
        for (a, b, c, d), w in h.copower(i, 4):
            s1 = dense_eval2(s.sigma, sinv[b], a)
            if s1:
                spread(xi, w * s1,
                       [dense_eval2(s.sigma_inv, sinv[c], t) for t in hs],
                       lambda p: p * n + i, lambda q: q * n + d)
        for (a, b, c), w in h.copower(i, 3):
            spread(xi_inv, w, [dense_eval2(s.sigma_inv, b,
                                           h.mul_vec(sinv[a], e(t)))
                               for t in hs],
                   lambda p: p * n + i, lambda q: q * n + c)

    for name, a, b in (("phi", phi, phi_inv), ("psi", psi, psi_inv),
                       ("xi", xi, xi_inv)):
        if not are_inverse(a, b):
            raise VerificationError("%s round trip failed" % name)
    return phi, phi_inv, psi, psi_inv, xi, xi_inv


def reference_deform(c):
    """H^σ with u, v, u′, v′ paired through dense_eval2 on dense S and S⁻¹
    rows."""
    h = c.host
    n, f, hs = h.dim, h.field, range(h.dim)
    sig, inv = c.sigma, c.sigma_inv
    S, Sinv = h.antipode.data, h.antipode_inv.data
    twisted = [convolve2(h, convolve2(h, sig, m_k), inv)
               for m_k in _coordinate_functionals(h)]
    mult = Tensor.from_rows(f, (n, n, n), [
        [[t.data[i][j] for t in twisted] for j in hs] for i in hs])
    dual = dual_hopf(h)

    def functional(value):
        return [sum((cd * value(a, b) for a, b, cd in h.delta.terms(i)),
                    f.zero) for i in hs]

    def sandwich(u, mat, v):
        return Matrix(f, n, n, [dual.mul_vec(dual.mul_vec(u, col), v)
                                for col in mat.transpose().data]).transpose()

    s_mat = sandwich(
        functional(lambda a, b: dense_eval2(sig, a, S[b])), h.antipode,
        functional(lambda a, b: dense_eval2(inv, S[a], b)))
    s_inv_mat = sandwich(
        functional(lambda a, b: dense_eval2(sig, Sinv[b], a)),
        h.antipode_inv,
        functional(lambda a, b: dense_eval2(inv, b, Sinv[a])))
    return HopfAlgebra(f, n, list(h.basis_names), mult, list(h.unit),
                       h.comult, list(h.counit), s_mat, s_inv_mat,
                       name=h.name + "^s")


# -- comparisons on one-entry changes -----------------------------------------

def data_of(x):
    """What a construction returned, as nested lists of its structure
    constants; an error message stays itself."""
    if isinstance(x, (tuple, list)):
        return [data_of(y) for y in x]
    if isinstance(x, (Matrix, Tensor)):
        return x.data
    if isinstance(x, YdModule):
        return [x.action.data, x.coaction.data]
    if isinstance(x, YdAlgebra):
        return [data_of(x.module), x.mult.data, x.unit]
    if isinstance(x, BraidedHopf):
        return [data_of(x.underlying), x.braided_antipode.data]
    if isinstance(x, BimoduleActions):
        return [x.left_hr.data, x.right_hr.data, x.act2.data]
    if isinstance(x, HopfAlgebra):
        return [x.mult.data, x.comult.data, x.unit, x.counit,
                x.antipode.data, x.antipode_inv.data]
    return x


def same_outcome(build, reference, *args):
    """build and reference give the same structure constants, or raise the
    same VerificationError; returns whether build raised."""
    got = outcome(build, *args)
    assert data_of(got) == data_of(outcome(reference, *args))
    return isinstance(got, str)


def antipode_changes(h):
    """h with one entry of S, or one of S⁻¹, raised or lowered by 1."""
    for s in one_matrix_changes(h.antipode):
        yield hopf_with(h, antipode=s)
    for s in one_matrix_changes(h.antipode_inv):
        yield hopf_with(h, antipode_inv=s)


def on_host(mod, host):
    return YdModule(host, mod.dim, mod.action, mod.coaction)


@pytest.fixture(scope="module", params=["Q", "Fp:5"])
def case(request):
    h = sweedler_h4(field_from_spec(request.param))
    r1 = r_t(h, 1)
    return h, r1, sigma_t(h, 1), regular_comodule_module(r1)


def test_verify_yd_matches_the_dense_sinv_form(case):
    """verify_yd's full check→witness map on the regular module, with
    yd_compatibility_sinv_form from the dense reference, on every change of
    the action, the coaction and the host's S⁻¹."""
    h, _, _, reg = case
    mods = list(module_changes(reg))
    mods += [on_host(reg, host) for host in antipode_changes(h)]
    sinv_witnesses = set()
    for mod in mods:
        got = report_rows(verify_yd(mod))
        ref = report_rows(reference_sinv_form(mod))[0]
        want = [ref if row[0] == ref[0] else row for row in got]
        assert got == want
        sinv_witnesses.add(ref[2])
    assert len(sinv_witnesses - {None}) > 1


def test_verify_cqt_matches_the_dense_cqt4_forms(case):
    """CQT4' and CQT4'' on R₁ and on every change of R₁, of the host's
    mult and of its S and S⁻¹: the dense references' report tuples."""
    h, r1, _, _ = case
    names = ("CQT4'", "CQT4''")
    cqts = [CqtStructure(h, r, r1.r_inv)
            for r in [r1.r] + list(one_matrix_changes(r1.r))]
    cqts += [CqtStructure(hopf_with(h, mult=t), r1.r, r1.r_inv)
             for t in one_entry_changes(h.mult)]
    cqts += [CqtStructure(host, r1.r, r1.r_inv)
             for host in antipode_changes(h)]
    failing = set()
    for c in cqts:
        rows = report_rows(verify_cqt(c), names)
        assert rows == report_rows(reference_cqt4_forms(c))
        failing |= {row[0] for row in rows if row[1] == "fail"}
    assert failing == set(names)


def test_act2_and_bimodule_actions_match(case):
    """▷₂, −▷ and ◁− on the regular module and on every change of its
    tensors, and ▷₂ for every change of R₁."""
    h, r1, _, reg = case
    bh = build_hr(r1)
    raised = 0
    for mod in module_changes(reg):
        same_outcome(act2_tensor, reference_act2_tensor, r1, mod)
        raised += same_outcome(bimodule_actions, reference_bimodule_actions,
                               bh, mod)
    for r in one_matrix_changes(r1.r):
        raised += same_outcome(act2_tensor, reference_act2_tensor,
                               CqtStructure(h, r, r1.r_inv), reg)
    assert raised


def test_build_hr_and_adjoint_module_match(case):
    """𝓗_R (⋆, S_R, the adjoint coaction and ▷₁) for every change of R₁,
    and 𝓗_R and H's adjoint module for every change of the host's S, S⁻¹
    and mult."""
    h, r1, _, _ = case
    for r in [r1.r] + list(one_matrix_changes(r1.r)):
        same_outcome(build_hr, reference_build_hr,
                     CqtStructure(h, r, r1.r_inv))
    hosts = list(antipode_changes(h))
    for host in hosts:
        same_outcome(build_hr, reference_build_hr,
                     CqtStructure(host, r1.r, r1.r_inv))
    for host in hosts + [hopf_with(h, mult=t)
                         for t in one_entry_changes(h.mult)]:
        same_outcome(adjoint_module, reference_adjoint_module, host)


def test_end_algebra_matches(case):
    """End(M) for the regular module M, every change of M's tensors and
    M over every change of the host's S and S⁻¹."""
    h, _, _, reg = case
    for mod in list(module_changes(reg)) + [
            on_host(reg, host) for host in antipode_changes(h)]:
        same_outcome(end_algebra, reference_end_algebra, mod)


def cocycle_changes(h, s):
    """σ₁ with one entry of σ or of σ⁻¹ changed, and σ₁ over every change
    of the host's S and S⁻¹."""
    yield s
    for m in one_matrix_changes(s.sigma):
        yield TwoCocycle(h, m, s.sigma_inv)
    for m in one_matrix_changes(s.sigma_inv):
        yield TwoCocycle(h, s.sigma, m)
    for host in antipode_changes(h):
        yield TwoCocycle(host, s.sigma, s.sigma_inv)


def test_chi_phi_psi_xi_and_deform_match(case):
    """χ, φ, ψ, ξ (on I) and H^σ's S^σ and (S^σ)⁻¹ for σ₁ and every
    cocycle change."""
    h, _, s, _ = case
    alg = unit_object(h)
    raised = 0
    for c in cocycle_changes(h, s):
        raised += same_outcome(chi_maps, reference_chi_maps, c)
        raised += same_outcome(phi_psi_xi, reference_phi_psi_xi, c, alg)
        same_outcome(_deform, reference_deform, c)
    assert raised


# -- the word product and the S/S⁻¹ tables -----------------------------------

@pytest.fixture(scope="module", params=["H4-Q", "H4-F5", "T3-F7"])
def word_host(request):
    if request.param == "T3-F7":
        return taft_algebra(3, 7)
    return sweedler_h4(field_from_spec(request.param[3:].replace("F", "Fp:")))


def dense(h, terms):
    out = [h.field.zero] * h.dim
    for k, c in terms:
        out[k] = out[k] + c
    return out


def sparse_terms(h):
    """[(k, c)] pairs of H: indices may repeat and coefficients be 0."""
    return st.lists(st.tuples(st.integers(0, h.dim - 1),
                              st.integers(-3, 3).map(h.field.from_int)),
                    max_size=6)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_and_antipode_rows_match_dense(word_host, data):
    """h.product(u, v) is mul_vec of the dense u and v as a sparse row, in
    increasing index order with no zero; h.antipodes holds the rows of S
    and S⁻¹ and their lifted values."""
    h = word_host
    u = data.draw(sparse_terms(h))
    v = data.draw(sparse_terms(h))
    got = h.product(u, v)
    assert [k for k, _ in got] == sorted({k for k, _ in got})
    assert all(c for _, c in got)
    assert dense(h, got) == h.mul_vec(dense(h, u), dense(h, v))
    i = data.draw(st.integers(0, h.dim - 1))
    for leg, m in enumerate((h.antipode, h.antipode_inv)):
        row = h.antipodes.rows(leg)[i]
        assert row == [(k, c) for k, c in enumerate(m.data[i]) if c]
        lifted, scale = h.antipodes.lifted_rows()
        assert [(k, h.field.reduce(c, scale)) for k, c in lifted[leg][i]] \
            == row
    assert h.product(u, []) == h.product([], v) == []


# -- the guard ----------------------------------------------------------------

def test_formulas_multiply_no_dense_vector(monkeypatch):
    """On H₄ over F₅, the constructions and checks whose words are sparse
    rows make no HopfAlgebra.mul_vec call, and a seed-0 F₅ suite pass makes
    no dense product at all: no HopfAlgebra.mul_vec, YdAlgebra.mul_vec or
    Bilinear.apply call."""
    h = sweedler_h4(field_from_spec("Fp:5"))
    r1, s1 = r_t(h, 1), sigma_t(h, 1)
    reg = regular_comodule_module(r1)
    alg = unit_object(h)
    bh = build_hr(r1)
    calls = []

    def count(cls, name):
        inner = getattr(cls, name)

        def counted(self, u, v):
            calls.append((cls.__name__, name))
            return inner(self, u, v)
        monkeypatch.setattr(cls, name, counted)

    for cls in (HopfAlgebra, YdAlgebra):
        count(cls, "mul_vec")
    count(Bilinear, "apply")
    assert h.mul_vec(h.unit, h.unit) == h.unit            # the wraps count
    assert alg.mul_vec(alg.unit, alg.unit) == alg.unit
    assert calls == [("HopfAlgebra", "mul_vec"), ("Bilinear", "apply"),
                     ("YdAlgebra", "mul_vec"), ("Bilinear", "apply")]
    del calls[:]
    verify_yd(reg)
    verify_cqt(r1)
    build_hr(r1)
    bimodule_actions(bh, reg)
    adjoint_module(h)
    end_algebra(reg)
    chi_maps(s1)
    phi_psi_xi(s1, alg)
    assert calls == []
    report, _ = run_suite(h.field, seed=0)
    assert report.ok and calls == []


def test_word_table_forms_each_word_once(word_host, monkeypatch):
    """h.word_table() gives (e_c e_k)·S⁻¹(e_a) as h.product does, lifted
    at the table's scale, forms each word on its first read only, and a
    new table starts empty; on H₄ verify_yd and bimodule_actions form at
    most the n³ = 64 words."""
    h = word_host
    hs = range(h.dim)
    sinv = h.antipodes.rows(1)
    want = {(c, k, a): h.product(h.mul.row(c, k), sinv[a])
            for c in hs for k in hs for a in hs}
    calls = []
    inner = HopfAlgebra.product

    def counted(self, u, v):
        calls.append(self)
        return inner(self, u, v)

    monkeypatch.setattr(HopfAlgebra, "product", counted)
    words, scale = h.word_table()
    for _ in range(2):
        assert {key: [(k, h.field.reduce(c, scale)) for k, c in words(*key)]
                for key in want} == want
        assert len(calls) == len(want)
    h.word_table()[0](0, 0, 0)
    assert len(calls) == len(want) + 1
    if h.dim == 4:
        r1 = r_t(h, 1)
        reg = regular_comodule_module(r1)
        bh = build_hr(r1)
        for run in (lambda: verify_yd(reg), lambda: bimodule_actions(bh, reg)):
            del calls[:]
            run()
            assert 0 < len(calls) <= 64
