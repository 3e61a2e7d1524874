"""YD modules/algebras: braiding, σ̲/θ̲ functors, braided products,
opposites, End(M), quantum commutativity and Azumaya certificates."""

import random

import pytest

from hopflab.fields import QQ, field_from_spec
from hopflab.galois import unit_object
from hopflab.hopf import dual_hopf
from hopflab.linalg import (DimensionError, Matrix, Tensor, kernel_basis,
                            linear_combination, mat_mul, rank,
                            row_space_echelon, solve)
from hopflab.twist import deform, eps_eps, two_cocycle, dual_cocycle
from hopflab.report import CheckReport, VerificationError, first_mismatch
from hopflab.yd import (YdAlgebra, YdMap, YdModule, _acting_terms,
                        _braid_terms, _matrix, _pushed_product,
                        azumaya_check, braided_product, braided_squares,
                        dual_module, end_algebra, eta,
                        generating_set, h_opposite, is_yd_map,
                        quantum_commutative, random_yd_map, sigma_algebra,
                        sigma_module, theta_module,
                        verify_braided_functor, verify_theta_braided,
                        verify_yd, verify_yd_algebra, yd_hom_basis,
                        yd_tensor)
from hopflab.catalog import (catalog_entries, cqt_c2, end_regular,
                             group_algebra_c2, regular_comodule_module,
                             regular_galois_algebra, r_t, sigma_t,
                             sweedler_h4, theta_t, trivial_module)
from conftest import apply_rowmap, dense_row
from test_hopf import (one_entry_changes, one_matrix_changes,
                       one_vector_changes, report_rows)


def braiding(ma, mb):
    """Φ(m⊗n) = Σ n₀ ⊗ n₁·m as a YdMap M⊗N → N⊗M."""
    if not ma.host.structures_equal(mb.host):
        raise VerificationError("braiding: host mismatch")
    mat = _matrix(ma.host.field, _braid_terms(ma, mb), mb.dim, ma.dim)
    return YdMap(yd_tensor(ma, mb), yd_tensor(mb, ma), mat)


def theta_inv_terms(d):
    """θ⁻¹ = Σ c·e_a⊗e_b ∈ H⊗H as [(a, b, c)]."""
    return [(a, b, c) for a, row in enumerate(d.theta_inv.data)
            for b, c in enumerate(row) if c]


def theta_phi(d, ma, mb):
    """The matrix of θ̲'s monoidal structure φ(m⊗n) = θ⁻¹·(m⊗n):
    θ̲M⊗θ̲N → θ̲(M⊗N)."""
    return _matrix(ma.host.field, _acting_terms(ma, mb, theta_inv_terms(d)),
                   ma.dim, mb.dim)


def theta_algebra(d, alg):
    """θ̲(A) with product a•b = μ(φ(a⊗b)) = Σ ((θ⁻¹)¹·a)((θ⁻¹)²·b)."""
    mod = alg.module
    mult = _pushed_product(alg, _acting_terms(mod, mod, theta_inv_terms(d)))
    return YdAlgebra(theta_module(d, mod), mult, list(alg.unit))


def trivial_algebra(host):
    """The ground field as a YD module algebra."""
    m = trivial_module(host, 1)
    f = host.field
    return YdAlgebra(m, Tensor(f, (1, 1, 1), [f.one]), [f.one])


@pytest.fixture(scope="module")
def kc2_alg(kc2):
    c = cqt_c2(kc2, -1)
    mod = regular_comodule_module(c)
    return YdAlgebra(mod, kc2.mult, kc2.unit)


def test_trivial_module_passes(h4):
    assert verify_yd(trivial_module(h4)).ok


def test_regular_module_passes(mreg):
    assert verify_yd(mreg).ok


def test_yd_shape_errors_are_typed(kc2):
    triv = trivial_module(kc2, 2)
    with pytest.raises(DimensionError, match="action has shape"):
        YdModule(kc2, 2, Tensor.zeros(QQ, (2, 2, 3)), triv.coaction)
    with pytest.raises(DimensionError, match="coaction has shape"):
        YdModule(kc2, 2, triv.action, Tensor.zeros(QQ, (2, 2, 3)))
    with pytest.raises(DimensionError, match="mult has shape"):
        YdAlgebra(triv, Tensor.zeros(QQ, (2, 2, 3)), kc2.unit)
    with pytest.raises(DimensionError, match="unit has shape"):
        YdAlgebra(triv, kc2.mult, [1, 0, 0])


def test_corrupted_action_detected(mreg, h4):
    bad = Tensor(QQ, mreg.action.shape, list(mreg.action.data))
    bad.data[(1 * 4 + 1) * 4 + 2] = QQ.from_int(5)
    broken = YdModule(h4, 4, bad, mreg.coaction)
    rep = verify_yd(broken)
    assert not rep.ok
    assert rep.first_failure().witness is not None


def dense_module_axioms(mod):
    """module_axioms as products of dense basis vectors through act_vec and
    act_basis_vec, the reference the sparse-row check must match."""
    h, e = mod.host, mod.basis_vec
    hs, ms = range(h.dim), range(mod.dim)
    rep = CheckReport()
    bad = first_mismatch((ms,), lambda p: (mod.act_vec(h.unit, e(p)), e(p)))
    if bad is None:
        bad = first_mismatch((hs, hs, ms), lambda i, j, p: (
            mod.act_vec(dense_row(h.mult, i, j), e(p)),
            mod.act_basis_vec(i, dense_row(mod.action, j, p))))
    rep.add("module_axioms", bad is None, bad)
    return rep


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_module_axioms_match_dense_products(spec):
    """On every ±1 one-entry change of the regular YD module's action,
    module_axioms gives the dense reference's report tuple."""
    h4 = sweedler_h4(field_from_spec(spec))
    mod = regular_comodule_module(r_t(h4, 1))
    names = ("module_axioms",)
    assert report_rows(verify_yd(mod), names) == \
        report_rows(dense_module_axioms(mod), names)
    witnesses = set()
    for action in one_entry_changes(mod.action):
        bad = YdModule(h4, mod.dim, action, mod.coaction)
        rows = report_rows(verify_yd(bad), names)
        assert rows == report_rows(dense_module_axioms(bad), names)
        witnesses.add(rows[0][2])
    assert witnesses - {None}


def closure_comodule_axioms(mod):
    """comodule_axioms as verify_yd wrote it before
    hopf.first_coaction_mismatch: the reference."""
    h, e, ms = mod.host, mod.basis_vec, range(mod.dim)
    zero, coact = h.field.zero, mod.coact
    rep = CheckReport()

    def counit(p):
        acc = [zero] * mod.dim
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
    return rep


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_comodule_axioms_match_closure(spec):
    """On every ±1 one-entry change of the regular YD module's coaction,
    comodule_axioms gives the replaced closure's report tuple."""
    h4 = sweedler_h4(field_from_spec(spec))
    mod = regular_comodule_module(r_t(h4, 1))
    names = ("comodule_axioms",)
    assert report_rows(verify_yd(mod), names) == \
        report_rows(closure_comodule_axioms(mod))
    witnesses = set()
    for coaction in one_entry_changes(mod.coaction):
        bad = YdModule(h4, mod.dim, mod.action, coaction)
        rows = report_rows(verify_yd(bad), names)
        assert rows == report_rows(closure_comodule_axioms(bad))
        witnesses.add(rows[0][2])
    assert {len(w) for w in witnesses - {None}} == {1, 4}   # both stages


def closure_algebra_axioms(alg):
    """algebra_axioms as verify_yd_algebra wrote it before
    hopf.first_unit_mismatch and first_action_mismatch: the reference."""
    f, m = alg.host.field, alg.dim
    mul, e, ms = alg.mul, alg.module.basis_vec, range(m)
    unit = [(u, x) for u, x in enumerate(alg.unit) if x]

    def dense(terms):
        return linear_combination(f, m, terms)

    rep = CheckReport()
    bad = first_mismatch((ms,), lambda p: (
        (dense((x, mul.row(u, p)) for u, x in unit),
         dense((x, mul.row(p, u)) for u, x in unit)),
        (e(p), e(p))))
    if bad is None:
        bad = first_mismatch((ms,) * 3, lambda p, q, r: (
            dense((c, mul.row(t, r)) for t, c in mul.row(p, q)),
            dense((c, mul.row(p, t)) for t, c in mul.row(q, r))))
    rep.add("algebra_axioms", bad is None, bad)
    return rep


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_algebra_axioms_match_closure(spec):
    """algebra_axioms gives the replaced closure's report tuple on every ±1
    change of one unit entry of End(regular), and on every ±1 change of its
    64 nonzero mult entries and of 32 seeded zero entries.  All 8192 mult
    changes would take about 45 s per field."""
    e = end_regular(r_t(sweedler_h4(field_from_spec(spec)), 1))
    f, mult = e.host.field, e.mult
    names = ("algebra_axioms",)
    assert report_rows(verify_yd_algebra(e), names) == \
        report_rows(closure_algebra_axioms(e))
    nonzero = [i for i, x in enumerate(mult.data) if x]
    rng = random.Random(19)
    flats = nonzero + rng.sample([i for i, x in enumerate(mult.data)
                                  if not x], 32)
    changed = [YdAlgebra(e.module, mult, unit)
               for unit in one_vector_changes(e.unit, f)]
    for flat in flats:
        for step in (f.one, -f.one):
            data = list(mult.data)
            data[flat] = data[flat] + step
            changed.append(YdAlgebra(e.module, Tensor(f, mult.shape, data),
                                     e.unit))
    witnesses = set()
    for bad in changed:
        rows = report_rows(verify_yd_algebra(bad), names)
        assert rows == report_rows(closure_algebra_axioms(bad))
        witnesses.add(rows[0][2])
    assert {len(w) for w in witnesses - {None}} == {1, 3}   # both stages

def closure_module_algebra(alg):
    """module_algebra as verify_yd_algebra wrote it before the per-(i, p)
    blocks, with two linear_combination calls per (i, p, q): the
    reference."""
    h, f, m = alg.host, alg.host.field, alg.dim
    mul, act = alg.mul, alg.module.act
    hs, ms = range(h.dim), range(m)

    def dense(terms):
        return linear_combination(f, m, terms)

    def module_algebra(i, p, q):
        rhs = dense((ca * x * y, mul.row(s, t))
                    for a, b, ca in h.delta.terms(i)
                    for s, x in act.row(a, p) for t, y in act.row(b, q))
        return dense((c, act.row(i, t)) for t, c in mul.row(p, q)), rhs

    rep = CheckReport()
    bad = first_mismatch((hs, ms, ms), module_algebra)
    if bad is None:
        bad = first_mismatch((hs,), lambda i: (
            alg.module.act_basis_vec(i, alg.unit),
            [h.counit[i] * x for x in alg.unit]))
    rep.add("module_algebra", bad is None, bad,
            "h·(ab) = Σ(h1·a)(h2·b), h·1 = ε(h)1")
    return rep


def sampled_entry_changes(t, rng, zeros):
    """Copies of the tensor t with one entry raised or lowered by 1: every
    nonzero entry, and `zeros` zero entries drawn by rng."""
    flats = [i for i, x in enumerate(t.data) if x]
    flats += rng.sample([i for i, x in enumerate(t.data) if not x], zeros)
    for flat in flats:
        for step in (t.field.one, -t.field.one):
            data = list(t.data)
            data[flat] = data[flat] + step
            yield Tensor(t.field, t.shape, data)


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_module_algebra_matches_closure(spec):
    """module_algebra gives the replaced closure's report tuple on End(regular)
    and on every ±1 change of its nonzero mult and action entries and of 16
    seeded zero entries of each.  All 8192 mult and 2048 action changes
    would take about 75 s per field at the rate of these 320."""
    e = end_regular(r_t(sweedler_h4(field_from_spec(spec)), 1))
    names = ("module_algebra",)
    assert report_rows(verify_yd_algebra(e), names) == \
        report_rows(closure_module_algebra(e))
    rng = random.Random(20)
    changed = [YdAlgebra(e.module, mult, e.unit)
               for mult in sampled_entry_changes(e.mult, rng, 16)]
    changed += [YdAlgebra(YdModule(e.host, e.dim, action, e.module.coaction),
                          e.mult, e.unit)
                for action in sampled_entry_changes(e.module.action, rng, 16)]
    witnesses = set()
    for bad in changed:
        rows = report_rows(verify_yd_algebra(bad), names)
        assert rows == report_rows(closure_module_algebra(bad))
        witnesses.add(rows[0][2])
    assert {len(w) for w in witnesses - {None}} == {3}


def test_yd_tensor_is_yd(mreg, h4):
    t = yd_tensor(mreg, trivial_module(h4))
    assert verify_yd(t).ok
    t2 = yd_tensor(mreg, mreg)
    assert verify_yd(t2).ok


def test_braiding_trivial_second_factor_is_flip(mreg, h4):
    phi = braiding(mreg, trivial_module(h4))
    assert phi.matrix == Matrix.identity(QQ, 4)
    assert is_yd_map(phi).ok


def test_braiding_regular_invertible(mreg):
    phi = braiding(mreg, mreg)
    assert phi.matrix.rows == 16
    assert rank(phi.matrix) == 16
    assert is_yd_map(phi).ok


def test_braiding_hexagon_small(kc2):
    c = cqt_c2(kc2, -1)
    m = regular_comodule_module(c)
    p = trivial_module(kc2, 1)
    mods = [m, p]
    for ma in mods:
        for mb in mods:
            for mc in mods:
                lhs = braiding(ma, yd_tensor(mb, mc)).matrix
                phi_ab = braiding(ma, mb).matrix
                phi_ac = braiding(ma, mc).matrix
                dim_a, dim_b, dim_c = ma.dim, mb.dim, mc.dim
                first = Matrix.zeros(QQ, dim_a * dim_b * dim_c,
                                     dim_b * dim_a * dim_c)
                for src in range(dim_a * dim_b):
                    for dst in range(dim_b * dim_a):
                        v = phi_ab.data[src][dst]
                        if v:
                            for r in range(dim_c):
                                first.data[src * dim_c + r][dst * dim_c
                                                            + r] = v
                second = Matrix.zeros(QQ, dim_b * dim_a * dim_c,
                                      dim_b * dim_c * dim_a)
                for q in range(dim_b):
                    for src in range(dim_a * dim_c):
                        for dst in range(dim_c * dim_a):
                            v = phi_ac.data[src][dst]
                            if v:
                                second.data[q * dim_a * dim_c + src][
                                    q * dim_c * dim_a + dst] = v
                assert mat_mul(first, second) == lhs


def rebased(mod):
    """mod in the basis u_0 = v_0 + v_1, u_p = v_p (p > 0): there the images
    of Φ, η, φ and the diagonal action collect several terms on one basis
    pair, which the H₄ modules in their own basis never do."""
    m, n = mod.dim, mod.host.dim
    one = QQ.one
    fwd = Matrix.identity(QQ, m)     # u_p = Σ fwd[p][r] v_r
    fwd.data[0][1] = one
    back = Matrix.identity(QQ, m)    # v_q = Σ back[q][t] u_t
    back.data[0][1] = -one
    act = Tensor.from_rows(QQ, (n, m, m), [
        mat_mul(mat_mul(fwd, Matrix(QQ, m, m, [dense_row(mod.action, i, p)
                                               for p in range(m)])),
                back).data for i in range(n)])
    co = Tensor.zeros(QQ, (m, m, n))
    for p in range(m):
        for r, x in enumerate(fwd.data[p]):
            if not x:
                continue
            for q, k, c in mod.coact.terms(r):
                for t, y in enumerate(back.data[q]):
                    if y:
                        co.data[(p * m + t) * n + k] += x * c * y
    return YdModule(mod.host, m, act, co)


def test_structure_maps_in_a_non_monomial_basis(mreg, s1, h4):
    m2 = rebased(mreg)
    assert verify_yd(m2).ok and verify_yd(yd_tensor(m2, m2)).ok
    assert verify_braided_functor(s1, m2, m2).ok
    assert verify_theta_braided(theta_t(h4, 1), m2, m2).ok


def test_sigma_module_trivial(mreg, h4):
    triv = two_cocycle(h4, eps_eps(h4))
    sm = sigma_module(triv, mreg)
    assert verify_yd(sm).ok
    assert sm.action == mreg.action
    assert sm.coaction == mreg.coaction


def test_structures_share_the_tables_of_their_tensors(mreg, s1, h4):
    """A structure reads the tables of the Tensor objects it is built on:
    σ̲M keeps M's coaction tensor, H^σ keeps H's Δ, and two modules on one
    action tensor read one kernel."""
    sm = sigma_module(s1, mreg)
    assert sm.coaction is mreg.coaction and sm.coact is mreg.coact
    assert deform(s1).comult is h4.comult and deform(s1).delta is h4.delta
    twin = YdModule(h4, mreg.dim, mreg.action, sm.coaction)
    assert twin.act is mreg.act and twin.coact is mreg.coact


def test_braided_squares_raise_the_reference_first_error(h4, mreg):
    """The first error braided_squares raises is the one the pair-by-pair
    reference raises first: here the braiding of (reg, kC₂'s trivial
    module), after (reg, reg) has passed under σ_1."""
    other = trivial_module(group_algebra_c2(QQ), 1)
    cocycles, mods = [sigma_t(h4, 1), sigma_t(h4, 2)], [mreg, other]
    pairs = [(0, 0), (0, 1)]
    with pytest.raises(VerificationError) as want:
        for s in cocycles:
            for a, b in pairs:
                reference_braided_functor(s, mods[a], mods[b])
    with pytest.raises(VerificationError) as got:
        braided_squares(cocycles, mods, pairs)
    assert str(got.value) == str(want.value) == "braiding: host mismatch"


def test_sigma_module_roundtrip(mreg, s1):
    sm = sigma_module(s1, mreg)
    sinv = two_cocycle(deform(s1), s1.sigma_inv)
    back = sigma_module(sinv, sm)
    assert verify_yd(sm).ok and verify_yd(back).ok
    assert back.action == mreg.action
    assert back.coaction == mreg.coaction


def test_eta_trivial_is_identity(mreg, h4):
    triv = two_cocycle(h4, eps_eps(h4))
    em, inv = eta(triv, mreg, mreg)
    assert em == Matrix.identity(QQ, 16)
    assert inv == Matrix.identity(QQ, 16)


def test_eta_invertible_and_yd(mreg, s1):
    em, inv = eta(s1, mreg, mreg)
    assert mat_mul(em, inv) == Matrix.identity(QQ, 16)
    sm = sigma_module(s1, mreg)
    source = yd_tensor(sm, sm)
    target = sigma_module(s1, yd_tensor(mreg, mreg))
    assert is_yd_map(YdMap(source, target, em)).ok


def reference_braided_functor(s, ma, mb):
    """The braided square on one pair, every object built for that pair
    alone: the dense reference that braided_squares must match."""
    rep = CheckReport()
    phi = braiding(ma, mb)
    phi_sigma = braiding(sigma_module(s, ma), sigma_module(s, mb))
    eta_ab, _ = eta(s, ma, mb)
    eta_ba, _ = eta(s, mb, ma)
    lhs = mat_mul(phi_sigma.matrix, eta_ba)
    rhs = mat_mul(eta_ab, phi.matrix)
    rep.add("braided_square", lhs == rhs)
    target = sigma_module(s, phi.source)
    rep.merge(is_yd_map(YdMap(phi_sigma.source, target, eta_ab)),
              prefix="eta_")
    rep.merge(is_yd_map(phi_sigma), prefix="phi_sigma_")
    return rep


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_braided_squares_match_the_per_pair_reference(spec):
    """Each report of braided_squares, which shares Φ_{M,N} and M⊗N between
    the cocycles and σ̲ images, tensor products and η between the pairs,
    equals the per-pair reference on every (name, status, witness,
    detail): σ_2 and σ_{-1} in one call on (reg, I, triv), and σ_θ for
    θ_{-1} and θ_1 in one call on their duals in criterion 06's swapped
    order; then again with reg's action[2, 2, 0] raised by 1, which fails
    the square on the θ side and Φ_{σ̲M,σ̲N}'s YD-map checks."""
    f = field_from_spec(spec)
    h4 = sweedler_h4(f, verify=False)
    mods = [regular_comodule_module(r_t(h4, 1)), unit_object(h4).module,
            trivial_module(h4, 1)]
    reg = mods[0]
    data = list(reg.action.data)
    data[(2 * 4 + 2) * 4 + 0] += f.one
    bad = YdModule(h4, 4, Tensor(f, reg.action.shape, data), reg.coaction)
    pairs = [(a, b) for a in range(3) for b in range(3)]
    sigmas = [sigma_t(h4, 2), sigma_t(h4, -1)]
    thetas = [theta_t(h4, -1).sigma, theta_t(h4, 1).sigma]

    def tuples(rep):
        return [(c.name, c.status, c.witness, c.detail) for c in rep.checks]

    failed = set()
    for on in (mods, [bad] + mods[1:]):
        for cocycles, ms, order in ((sigmas, on, pairs),
                                    (thetas, [dual_module(m) for m in on],
                                     [(b, a) for a, b in pairs])):
            got = braided_squares(cocycles, ms, order)
            assert len(got) == len(cocycles)
            for s, reports in zip(cocycles, got):
                for (a, b), rep in zip(order, reports):
                    want = reference_braided_functor(s, ms[a], ms[b])
                    assert tuples(rep) == tuples(want), (spec, a, b)
                    failed.update(c.name for c in rep.failures())
    assert failed == {"braided_square", "phi_sigma_h_linear",
                      "phi_sigma_h_colinear"}


def test_braided_functor_square(mreg, s1, h4, unit_obj):
    assert verify_braided_functor(s1, mreg, mreg).ok
    s2 = sigma_t(h4, 2)
    assert verify_braided_functor(s2, mreg, unit_obj.module).ok


def count_calls(monkeypatch, name, owner="hopflab.yd"):
    """Wrap <owner>.<name> in every hopflab module that binds it; the
    returned list grows by one per call."""
    import importlib
    import sys
    calls = []
    inner = getattr(importlib.import_module(owner), name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("hopflab") and \
                getattr(mod, name, None) is inner:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_each_sigma_image_is_built_once(monkeypatch, mreg, unit_obj, s1):
    calls = count_calls(monkeypatch, "sigma_module")
    uo = unit_obj.module
    eta(s1, mreg, uo)
    assert calls == []
    assert verify_braided_functor(s1, mreg, uo).ok
    assert len(calls) == 3        # σ̲M, σ̲N and σ̲(M⊗N)


def test_each_theta_image_is_built_once(monkeypatch, mreg, unit_obj, h4):
    calls = count_calls(monkeypatch, "sigma_module")
    th1 = theta_t(h4, 1)
    uo = unit_obj.module
    theta_phi(th1, mreg, uo)
    assert calls == []
    assert verify_theta_braided(th1, mreg, uo).ok
    # σ̲_θ(N*), σ̲_θ(M*) and σ̲_θ(N*⊗M*), all on H*
    assert len(calls) == 3
    assert all(s is th1.sigma and m.host is dual_hopf(h4) for s, m in calls)


def test_criterion_08_builds_each_zeta_target_once(monkeypatch):
    from hopflab.suite import SuiteContext, criterion_08_coboundary_zeta
    calls = count_calls(monkeypatch, "sigma_module")
    assert criterion_08_coboundary_zeta(SuiteContext()).ok
    assert len(calls) == 3        # one per zeta_iso; zeta_triangle builds none


def test_criterion_11_builds_each_sigma_image_once(monkeypatch):
    from hopflab.suite import SuiteContext, criterion_11_coinvariants_wedge
    ctx = SuiteContext()
    uo = ctx.unit_obj().module
    calls = count_calls(monkeypatch, "sigma_module")
    assert criterion_11_coinvariants_wedge(ctx).ok
    # two Lemma-3.3 calls; then σ̲(I) once for σ̲M = σ̲N and σ̲A = σ̲B,
    # σ̲(I∧I) and σ̲(I#_RI)
    assert len(calls) == 5
    assert sum(1 for args in calls if args[1] is uo) == 2


def test_eta_naturality_random(mreg, unit_obj, s1):
    rng = random.Random(0)
    uo = unit_obj.module
    eta_mu, _ = eta(s1, mreg, uo)
    eta_uu, _ = eta(s1, uo, uo)
    hom = yd_hom_basis(mreg, uo)
    assert hom, "expected nonzero YD map space"
    for _ in range(3):
        f = random_yd_map(rng, mreg, uo, hom)
        kron = Matrix.zeros(QQ, mreg.dim * uo.dim, uo.dim * uo.dim)
        for p in range(mreg.dim):
            for q in range(uo.dim):
                for p2 in range(uo.dim):
                    v = f.matrix.data[p][p2]
                    if v:
                        kron.data[p * uo.dim + q][p2 * uo.dim + q] = v
        assert mat_mul(kron, eta_uu) == mat_mul(eta_mu, kron)


def test_sigma_functoriality_random(mreg, unit_obj, s1):
    rng = random.Random(1)
    uo = unit_obj.module
    sm = sigma_module(s1, mreg)
    su = sigma_module(s1, uo)
    hom = yd_hom_basis(mreg, uo)
    for _ in range(4):
        f = random_yd_map(rng, mreg, uo, hom)
        assert is_yd_map(YdMap(sm, su, f.matrix)).ok


def dense_hom_basis(ma, mb):
    """yd_hom_basis as written with dense coefficient rows read through
    dense_row and solved by kernel_basis: the reference."""
    f = ma.host.field
    n = ma.host.dim
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
                    c = dense_row(mb.action, i, t2)[t]
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
                    c = dense_row(mb.coaction, q2, t)[k]
                    if c:
                        coeffs[p * db + q2] = coeffs[p * db + q2] - c
                rows.append(coeffs)
    basis = kernel_basis(Matrix(f, len(rows), unknowns, rows))
    return [Matrix(f, da, db, [[basis.data[p * db + t][j] for t in range(db)]
                               for p in range(da)])
            for j in range(basis.cols)]


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_hom_basis_matches_dense_reference(spec):
    """On every ordered pair of catalog YD modules of different dimensions
    (the modules of the YD module and YD algebra entries, of dimensions 1,
    4 and 16), yd_hom_basis gives the reference's basis, matrix for matrix
    in the same order, and every basis map is a YD map."""
    mods = []
    for entry in catalog_entries(field_from_spec(spec)):
        obj = entry.payload
        if isinstance(obj, YdAlgebra):
            obj = obj.module
        if isinstance(obj, YdModule):
            mods.append((entry.name, obj))
    assert sorted({m.dim for _, m in mods}) == [1, 4, 16]
    pairs = [(a, b) for a in mods for b in mods if a[1].dim != b[1].dim]
    assert len(pairs) == 14
    dims = set()
    for (_, ma), (_, mb) in pairs:
        basis = yd_hom_basis(ma, mb)
        assert basis == dense_hom_basis(ma, mb)
        dims.add(len(basis))
        for mat in basis:
            assert is_yd_map(YdMap(ma, mb, mat)).ok
    assert max(dims) > 1        # some pair has a Hom space to order


def test_sigma_algebra_roundtrip(unit_obj, s1):
    sa = sigma_algebra(s1, unit_obj)
    sinv = two_cocycle(deform(s1), s1.sigma_inv)
    back = sigma_algebra(sinv, sa)
    assert verify_yd_algebra(sa).ok and verify_yd_algebra(back).ok
    assert back.mult == unit_obj.mult
    assert back.module.action == unit_obj.module.action


def test_sigma_preserves_quantum_commutativity(unit_obj, s1):
    assert quantum_commutative(unit_obj)
    sa = sigma_algebra(s1, unit_obj)
    assert quantum_commutative(sa)


def test_theta_module_trivial_and_roundtrip(mreg, h4):
    triv = dual_cocycle(h4, eps_eps(dual_hopf(h4)))
    tm = theta_module(triv, mreg)
    assert verify_yd(tm).ok
    assert tm.coaction == mreg.coaction
    th2 = theta_t(h4, 2)
    from hopflab.twist import deform_dual
    tm2 = theta_module(th2, mreg)
    back = theta_module(dual_cocycle(deform_dual(th2),
                                     th2.theta_inv), tm2)
    assert verify_yd(tm2).ok and verify_yd(back).ok
    assert back.coaction == mreg.coaction


def test_theta_braided_square(mreg, h4):
    th1 = theta_t(h4, 1)
    assert verify_theta_braided(th1, mreg, mreg).ok


def test_theta_algebra_valid(unit_obj, h4):
    th1 = theta_t(h4, 1)
    ta = theta_algebra(th1, unit_obj)
    assert verify_yd_algebra(ta).ok


# -- braided products and opposites -------------------------------------------

def test_braided_product_with_ground_field(kc2_alg, kc2):
    k_alg = trivial_algebra(kc2)
    bp = braided_product(kc2_alg, k_alg)
    # A # k ≅ A on the nose (index map p ↦ p·1)
    assert bp.dim == kc2_alg.dim
    assert bp.mult == kc2_alg.mult
    assert verify_yd_algebra(bp).ok


def test_braided_product_kc2(kc2_alg):
    bp = braided_product(kc2_alg, kc2_alg)
    assert bp.dim == 4
    assert verify_yd_algebra(bp).ok


def test_h_opposite_trivial_coaction_is_opposite(h4):
    # End of a trivial module has trivial coaction pieces: use a plain
    # noncommutative algebra with trivial YD structure instead
    mod = trivial_module(h4, 2)
    one, zero = QQ.one, QQ.zero
    # 2x2 upper-triangular-style toy algebra: e0 = 1, e1 nilpotent
    mult = Tensor.zeros(QQ, (2, 2, 2))
    mult.data[(0 * 2 + 0) * 2 + 0] = one
    mult.data[(0 * 2 + 1) * 2 + 1] = one
    mult.data[(1 * 2 + 0) * 2 + 1] = one
    alg = YdAlgebra(mod, mult, [one, zero])
    bar = h_opposite(alg)
    for p in range(2):
        for q in range(2):
            base_bar = (p * 2 + q) * 2
            base = (q * 2 + p) * 2
            assert bar.mult.data[base_bar:base_bar + 2] == \
                alg.mult.data[base:base + 2]


def test_h_opposite_of_quantum_commutative_is_same(unit_obj):
    assert quantum_commutative(unit_obj)
    bar = h_opposite(unit_obj)
    assert verify_yd_algebra(bar).ok
    assert bar.mult == unit_obj.mult


def test_double_opposite_passes(kc2_alg):
    bar = h_opposite(kc2_alg)
    assert verify_yd_algebra(bar).ok
    assert verify_yd_algebra(h_opposite(bar)).ok


# -- products read through their structure maps -------------------------------

STRUCTURE_ALGEBRAS = ("unit_object", "end_regular", "regular_galois")


@pytest.fixture(scope="module", params=["Q", "Fp:5"])
def structure_case(request):
    """σ_1, θ_1 and the algebras of STRUCTURE_ALGEBRAS over one field."""
    h4 = sweedler_h4(field_from_spec(request.param), verify=False)
    algs = {"unit_object": unit_object(h4),
            "end_regular": end_regular(r_t(h4, 1)),
            "regular_galois": regular_galois_algebra(h4)}
    return sigma_t(h4, 1), theta_t(h4, 1), algs


def product_matrix(alg):
    """μ_A as the m²×m row-as-image matrix of a⊗b ↦ ab."""
    m = alg.dim
    data = alg.mult.data
    return Matrix(alg.host.field, m * m, m,
                  [data[r * m:(r + 1) * m] for r in range(m * m)])


@pytest.mark.parametrize("name", STRUCTURE_ALGEBRAS)
def test_products_are_mu_after_their_structure_map(structure_case, name):
    s, d, algs = structure_case
    alg = algs[name]
    mod = alg.module
    mu = product_matrix(alg)
    assert product_matrix(sigma_algebra(s, alg)) == \
        mat_mul(eta(s, mod, mod)[0], mu)
    assert product_matrix(theta_algebra(d, alg)) == \
        mat_mul(theta_phi(d, mod, mod), mu)
    assert product_matrix(h_opposite(alg)) == \
        mat_mul(braiding(mod, mod).matrix, mu)


def twist_formula(alg, s, t):
    """Σ s₀ (s₁·e_t), read off the dense structure tensors."""
    mod = alg.module
    m, n = alg.dim, alg.host.dim
    co, act, mult = mod.coaction.data, mod.action.data, alg.mult.data
    acc = [alg.host.field.zero] * m
    for s0 in range(m):
        for k in range(n):
            c = co[(s * m + s0) * n + k]
            for j in range(m):
                x = act[(k * m + t) * m + j]
                if c and x:
                    for y in range(m):
                        acc[y] = acc[y] + c * x * mult[(s0 * m + j) * m + y]
    return acc


def bumped(t, idx):
    """A copy of the 3-tensor t with 1 added at idx."""
    data = list(t.data)
    flat = (idx[0] * t.shape[1] + idx[1]) * t.shape[2] + idx[2]
    data[flat] = data[flat] + t.field.one
    return Tensor(t.field, t.shape, data)


def corrupted_end_regular(r1, where):
    """End(regular) with one entry of its product or coaction raised by 1,
    as in the Azumaya negative controls."""
    e = end_regular(r1)
    mod = e.module
    if where == "mult":
        return YdAlgebra(mod, bumped(e.mult, (7, 13, 15)), e.unit)
    return YdAlgebra(YdModule(mod.host, mod.dim, mod.action,
                              bumped(mod.coaction, (8, 0, 2))),
                     e.mult, e.unit)


def assert_opposite_is_twist_table(alg):
    bar = h_opposite(alg)
    ms = range(alg.dim)
    assert [[dense_row(bar.mult, t, s) for t in ms] for s in ms] == \
        [[twist_formula(alg, s, t) for t in ms] for s in ms]


@pytest.mark.parametrize("name", STRUCTURE_ALGEBRAS)
def test_opposite_rows_are_the_twist_table(structure_case, name):
    assert_opposite_is_twist_table(structure_case[2][name])


@pytest.mark.parametrize("where", ["mult", "coaction"])
def test_opposite_rows_are_the_twist_table_corrupted(r1, where):
    assert_opposite_is_twist_table(corrupted_end_regular(r1, where))


# -- End(M) and Azumaya ---------------------------------------------------------

def test_end_of_dim1_is_ground_field(h4):
    e = end_algebra(trivial_module(h4, 1))
    assert e.dim == 1
    assert verify_yd_algebra(e).ok


def test_end_regular_valid(mreg):
    e = end_algebra(mreg)
    assert e.dim == 16
    assert verify_yd_algebra(e).ok


def test_sigma_end_and_end_sigma_dims(mreg, s1):
    e = end_algebra(mreg)
    se = sigma_algebra(s1, e)
    es = end_algebra(sigma_module(s1, mreg))
    assert se.dim == es.dim == 16
    assert verify_yd_algebra(se).ok
    assert verify_yd_algebra(es).ok


def test_quantum_commutative_cases(kc2, unit_obj, mreg):
    triv = trivial_algebra(kc2)
    assert quantum_commutative(triv)
    e = end_algebra(trivial_module(sweedler_h4(QQ, verify=False), 2))
    assert not quantum_commutative(e)   # 2x2 matrix algebra
    assert quantum_commutative(unit_obj)


def test_generating_set_small(kc2_alg):
    gens = generating_set(kc2_alg)
    assert len(gens) >= 1


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_generating_set_is_pinned(spec):
    # the generators are chosen by span membership alone, so the lists do
    # not depend on how the span is closed
    h4 = sweedler_h4(field_from_spec(spec), verify=False)
    e = end_regular(r_t(h4, 1))
    cases = [(unit_object(h4), [0, 2, 3]),
             (e, [0, 1, 2, 3, 4, 8, 12]),
             (h_opposite(e), [0, 1, 2, 3, 4, 6]),
             (sigma_algebra(sigma_t(h4, 1), e),
              [0, 1, 2, 3, 4, 6]),
             (sigma_algebra(sigma_t(h4, -1), e),
              [0, 1, 2, 3, 4, 6])]
    assert [generating_set(alg) for alg, _ in cases] == \
        [gens for _, gens in cases]


def generators_from_scratch(alg):
    """generating_set's greedy walk with each closure taken from scratch:
    keep e_j when it is outside the span of all words in the generators
    kept so far (the empty word 1 included), found by multiplying the
    span by every generator and re-echelonning until it stops growing."""
    f, m = alg.host.field, alg.dim
    e = alg.module.basis_vec

    def words(gens):
        span = row_space_echelon(f, [alg.unit], m)
        while True:
            grown = row_space_echelon(f, span + [
                alg.mul_vec(u, e(g)) for u in span for g in gens], m)
            if len(grown) == len(span):
                return span
            span = grown

    gens, span = [], words([])
    for j in range(m):
        if len(span) == m:
            break
        if len(row_space_echelon(f, span + [e(j)], m)) > len(span):
            gens.append(j)
            span = words(gens)
    assert len(span) == m
    return gens


def shifted_matrix_algebra(h):
    """M₃(k) with the trivial YD structure over h, in the basis a = E₁₂ + E₂₃,
    g = E₃₁, E₁₁, E₁₂, E₁₃, E₂₁, E₂₂, E₃₂, E₃₃.  a and g generate it, but
    E₁₂ = (a²·g)·a is reached only by multiplying a product with g by the
    old generator a, so a closure that multiplies later rows by the new
    generator alone, or stops after one round, keeps a third generator."""
    f = h.field

    def unit(i, j):
        return [f.one if (r, c) == (i, j) else f.zero
                for r in range(3) for c in range(3)]

    def times(u, v):
        return [sum((u[3 * r + k] * v[3 * k + c] for k in range(3)), f.zero)
                for r in range(3) for c in range(3)]

    basis = [[x + y for x, y in zip(unit(0, 1), unit(1, 2))], unit(2, 0),
             unit(0, 0), unit(0, 1), unit(0, 2), unit(1, 0), unit(1, 1),
             unit(2, 1), unit(2, 2)]
    columns = Matrix(f, 9, 9, basis).transpose()

    def coords(x):
        return solve(columns, Matrix(f, 9, 1, [[c] for c in x])).column(0)

    mult = [c for u in basis for v in basis for c in coords(times(u, v))]
    one = [x + y + z for x, y, z in zip(unit(0, 0), unit(1, 1), unit(2, 2))]
    return YdAlgebra(trivial_module(h, 9), Tensor(f, (9, 9, 9), mult),
                     coords(one))


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_generating_set_matches_closure_from_scratch(spec):
    """On the catalog YD algebras, their σ̲_{±1} images and their
    H-opposites, and on an M₃ whose closure needs words that end in an
    old generator, generating_set keeps exactly the generators that the
    from-scratch closure keeps."""
    field = field_from_spec(spec)
    algebras = [e.payload for e in catalog_entries(field, 1)
                if isinstance(e.payload, YdAlgebra)]
    assert len(algebras) == 3
    cases = [case for alg in algebras
             for case in (alg, sigma_algebra(sigma_t(alg.host, 1), alg),
                          sigma_algebra(sigma_t(alg.host, -1), alg),
                          h_opposite(alg))]
    m3 = shifted_matrix_algebra(sweedler_h4(field, verify=False))
    assert verify_yd_algebra(m3).ok
    assert generators_from_scratch(m3) == [0, 1]
    for case in cases + [m3]:
        assert generating_set(case) == generators_from_scratch(case)


def test_azumaya_ground_field(h4):
    rep = azumaya_check(trivial_algebra(h4))
    assert rep.ok


def test_azumaya_end_regular(mreg):
    e = end_algebra(mreg)
    rep = azumaya_check(e)
    assert rep.ok, rep.render_text()


def test_azumaya_control_fails(kc2):
    control = YdAlgebra(trivial_module(kc2, 2), kc2.mult, kc2.unit)
    rep = azumaya_check(control)
    failed = {c.name for c in rep.failures()}
    assert "is_azumaya" in failed
    assert "F_bijective" in failed and "G_bijective" in failed


def test_azumaya_invariance_under_sigma(kc2):
    """is_azumaya(A) ⇔ is_azumaya(σ̲A) on both an Azumaya instance and the
    non-Azumaya control."""
    from hopflab.catalog import one_cocycle_c2
    from hopflab.twist import coboundary_from
    cob = coboundary_from(one_cocycle_c2(kc2, 2))
    c = cqt_c2(kc2, -1)
    mod = regular_comodule_module(c)
    e = end_algebra(mod)
    se = sigma_algebra(cob, e)
    assert azumaya_check(e).ok == azumaya_check(se).ok is True
    control = YdAlgebra(trivial_module(kc2, 2), kc2.mult, kc2.unit)
    s_control = sigma_algebra(cob, control)
    assert azumaya_check(control).status("is_azumaya") \
        == azumaya_check(s_control).status("is_azumaya") == "fail"


# -- dense references for the Azumaya and YD-algebra certificates ------------

def dense_azumaya(alg):
    """azumaya_check as written with dense F and G matrices and dense
    basis-vector products; its reports are the reference."""
    from hopflab.report import CheckReport, first_mismatch
    from hopflab.yd import _braid_terms, _matrix
    rep = CheckReport()
    mod = alg.module
    f = alg.host.field
    m = alg.dim
    dim = m * m
    ms = range(m)
    es = [mod.basis_vec(p) for p in ms]
    bar = h_opposite(alg)
    fmat = Matrix(f, dim, dim, [
        [c for x in ms for c in alg.mul_vec(es[p], dense_row(bar.mult, q, x))]
        for p in ms for q in ms])
    gmat = Matrix(f, dim, dim, [
        [c for x in ms for c in alg.mul_vec(dense_row(bar.mult, x, p), es[q])]
        for p in ms for q in ms])
    rank_f = rank(fmat)
    rank_g = rank(gmat)
    rep.add("F_bijective", rank_f == dim, None, "rank %d of %d" % (rank_f, dim))
    rep.add("G_bijective", rank_g == dim, None, "rank %d of %d" % (rank_g, dim))

    def end(flat):
        return Matrix(f, m, m, [flat[x * m:(x + 1) * m] for x in ms])

    def f_of(u):
        return end(apply_rowmap(u, fmat))

    def sharp(a, b):
        return [x * y for x in a for y in b]

    exchange = _matrix(f, _braid_terms(mod, mod), m, m).data
    gens_a = generating_set(alg)
    gens_b = generating_set(bar)
    fa = [f_of(sharp(es[a], alg.unit)) for a in ms]
    fb = [f_of(sharp(alg.unit, es[b])) for b in ms]
    families = (
        ("(i) F(ga#1) = F(g#1)F(a#1)", (gens_a, ms), lambda g, a: (
            f_of(sharp(dense_row(alg.mult, g, a), alg.unit)),
            mat_mul(fa[a], fa[g]))),
        ("(ii) F(1#ḡ∘b̄) = F(1#ḡ)F(1#b̄)", (gens_b, ms), lambda g, b: (
            f_of(sharp(alg.unit, dense_row(bar.mult, g, b))),
            mat_mul(fb[b], fb[g]))),
        ("(iii) F(a#b̄) = F(a#1)F(1#b̄)", (ms, ms), lambda a, b: (
            end(fmat.data[a * m + b]), mat_mul(fb[b], fa[a]))),
        ("(iv) F((1#b̄)(g#1)) = F(1#b̄)F(g#1)", (gens_a, ms), lambda g, b: (
            f_of(exchange[b * m + g]), mat_mul(fa[g], fb[b]))))
    detail = "checked against %d generators" % (len(gens_a) + len(gens_b))
    for family, space, sides in families:
        bad = first_mismatch(space, sides)
        if bad is not None:
            detail = family
            break
    rep.add("F_algebra_map", bad is None, bad, detail)
    rep.add("F_unital",
            f_of(sharp(alg.unit, alg.unit)) == Matrix.identity(f, m))
    rep.add("is_azumaya", any(alg.unit) and rank_f == dim and rank_g == dim)
    return rep


def dense_algebra_checks(alg):
    """verify_yd_algebra's algebra_axioms and module_algebra checks as
    written with dense basis-vector products: the reference."""
    from hopflab.report import CheckReport, first_mismatch
    rep = CheckReport()
    h = alg.host
    m = alg.dim
    mod = alg.module
    e = mod.basis_vec
    hs, ms = range(h.dim), range(m)
    bad = first_mismatch((ms,), lambda p: (
        (alg.mul_vec(alg.unit, e(p)), alg.mul_vec(e(p), alg.unit)),
        (e(p), e(p))))
    if bad is None:
        bad = first_mismatch((ms,) * 3, lambda p, q, r: (
            alg.mul_vec(dense_row(alg.mult, p, q), e(r)),
            alg.mul_vec(e(p), dense_row(alg.mult, q, r))))
    rep.add("algebra_axioms", bad is None, bad)

    def module_algebra(i, p, q):
        rhs = [h.field.zero] * m
        for a, b, ca in h.delta.terms(i):
            w = alg.mul_vec(dense_row(mod.action, a, p),
                            dense_row(mod.action, b, q))
            for k in range(m):
                if w[k]:
                    rhs[k] = rhs[k] + ca * w[k]
        return mod.act_basis_vec(i, dense_row(alg.mult, p, q)), rhs

    bad = first_mismatch((hs, ms, ms), module_algebra)
    if bad is None:
        bad = first_mismatch((hs,), lambda i: (
            mod.act_basis_vec(i, alg.unit),
            [h.counit[i] * x for x in alg.unit]))
    rep.add("module_algebra", bad is None, bad,
            "h·(ab) = Σ(h1·a)(h2·b), h·1 = ε(h)1")
    return rep


def one_entry_corruptions(e, rng, per_kind):
    """End(regular) with 1 added to one entry of its unit, mult, action or
    coaction: two fixed entries, the two of tests/test_negative_controls.py
    and per_kind seeded entries of each tensor."""
    mod = e.module
    one = e.host.field.one

    def bumped(t, flat):
        data = list(t.data)
        data[flat] = data[flat] + one
        return Tensor(t.field, t.shape, data)

    def with_module(action, coaction):
        return YdAlgebra(YdModule(mod.host, mod.dim, action, coaction),
                         e.mult, e.unit)

    unit = list(e.unit)
    unit[0] = unit[0] + one
    yield YdAlgebra(mod, e.mult, unit)
    yield with_module(mod.action, bumped(mod.coaction, 1))        # (0, 0, 1)
    yield YdAlgebra(mod, bumped(e.mult, (7 * 16 + 13) * 16 + 15), e.unit)
    yield with_module(mod.action, bumped(mod.coaction, 8 * 64 + 2))
    for _ in range(per_kind):
        unit = list(e.unit)
        p = rng.randrange(len(unit))
        unit[p] = unit[p] + one
        yield YdAlgebra(mod, e.mult, unit)
        yield YdAlgebra(mod, bumped(e.mult, rng.randrange(len(e.mult.data))),
                        e.unit)
        yield with_module(bumped(mod.action,
                                 rng.randrange(len(mod.action.data))),
                          mod.coaction)
        yield with_module(mod.action, bumped(
            mod.coaction, rng.randrange(len(mod.coaction.data))))


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_certificates_match_dense_reference(spec):
    """azumaya_check and verify_yd_algebra's algebra_axioms/module_algebra
    give the dense references' (name, status, witness, detail) on the
    criterion-09 algebras, the kC₂ control and one-entry corruptions of
    End(regular).  The corruptions reach F_unital, F_bijective,
    G_bijective and families (i) and (ii) of F_algebra_map; in a scan of
    seeded one-entry corruptions none failed (iii) or (iv) first, so those
    two families are compared only where they pass."""
    f = field_from_spec(spec)
    h4 = sweedler_h4(f, verify=False)
    kc2 = group_algebra_c2(f, verify=False)
    e = end_regular(r_t(h4, 1))
    algebras = [trivial_algebra(h4), e,
                sigma_algebra(sigma_t(h4, 1), e),
                sigma_algebra(sigma_t(h4, -1), e),
                YdAlgebra(trivial_module(kc2, 2), kc2.mult, kc2.unit)]
    algebras += one_entry_corruptions(e, random.Random(11), 1)

    def rows(rep, names=None):
        return [(c.name, c.status, c.witness, c.detail) for c in rep.checks
                if names is None or c.name in names]

    reached = set()
    for alg in algebras:
        rep = azumaya_check(alg)
        assert rows(rep) == rows(dense_azumaya(alg))
        assert rows(verify_yd_algebra(alg),
                    ("algebra_axioms", "module_algebra")) == \
            rows(dense_algebra_checks(alg))
        reached |= {c.detail.split()[0] if c.name == "F_algebra_map"
                    else c.name for c in rep.failures()}
    assert {"F_unital", "F_bijective", "G_bijective", "(i)", "(ii)"} <= \
        reached


# -- is_yd_map against the closures it replaced --------------------------------

def closure_is_yd_map(f_map):
    """is_yd_map as it was written on field elements, dense map rows and
    act_basis_vec, before it summed lifted tables: the reference."""
    rep = CheckReport()
    src, dst = f_map.source, f_map.target
    h = src.host
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
    rep.add("h_linear", bad is None, bad)
    bad = first_mismatch((range(src.dim),), colinear)
    rep.add("h_colinear", bad is None, bad)
    return rep


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_is_yd_map_matches_closures(spec):
    """On every ±1 one-entry change of the matrices of the braidings
    Φ_{M,M} and Φ_{M,T} (M the regular module, T the 2-dimensional trivial
    one), h_linear and h_colinear give the replaced closures' report
    tuples, witnesses included, and each fails somewhere."""
    h = sweedler_h4(field_from_spec(spec))
    reg = regular_comodule_module(r_t(h, 1))
    failing = set()
    for phi in (braiding(reg, reg), braiding(reg, trivial_module(h, 2))):
        assert report_rows(is_yd_map(phi)) == \
            report_rows(closure_is_yd_map(phi))
        for mat in one_matrix_changes(phi.matrix):
            bad = YdMap(phi.source, phi.target, mat)
            rows = report_rows(is_yd_map(bad))
            assert rows == report_rows(closure_is_yd_map(bad))
            failing |= {r[0] for r in rows if r[1] == "fail"}
    assert failing == {"h_linear", "h_colinear"}
