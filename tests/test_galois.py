"""Braided Hopf algebra, coinvariants, wedge, unit object, isomorphism
witnesses and Galois/Miyashita-Ulbrich machinery."""

import random
from collections.abc import Iterator

import pytest

import hopflab.galois as galois
from hopflab.fields import QQ, PrimeField, field_from_spec
from hopflab.hopf import first_multiplicative_mismatch
from hopflab.linalg import Matrix
from hopflab.report import CheckReport, VerificationError
from hopflab.twist import deform, eps_eps, two_cocycle
from hopflab.quasitriangular import cqt_structure, deform_cqt
from hopflab.yd import (YdAlgebra, YdModule, braided_product, eta,
                        quantum_commutative, sigma_algebra, verify_yd,
                        verify_yd_algebra)
from hopflab.galois import (BimoduleActions, BraidedHopf, bimodule_actions,
                            build_hr, chi_maps, coinvariants,
                            comodule_coinvariants, comodule_galois,
                            galois_maps, mu_action_and_pi, phi_psi_xi,
                            unit_object, verify_bimodule, verify_braided_hopf,
                            verify_sigma_coinvariants, verify_sigma_wedge,
                            verify_unit_deformation, wedge)
from hopflab.catalog import (dim1_hopf, end_regular,
                             group_algebra_c2, regular_comodule_module,
                             regular_galois_algebra, r_t, sigma_t,
                             sweedler_h4, trivial_module)
import reference as ref
from reference import changed, changes, report_rows, trivial_algebra


@pytest.fixture(scope="module")
def bh1(r1):
    bh = build_hr(r1)
    assert verify_braided_hopf(bh).ok
    return bh


def test_build_hr_trivial_r_gives_host(kc2):
    c = cqt_structure(kc2, eps_eps(kc2))
    bh = build_hr(c)
    assert verify_braided_hopf(bh).ok
    assert bh.underlying.mult == kc2.mult
    assert bh.braided_antipode == kc2.antipode


def test_build_hr_h4(bh1):
    assert bh1.underlying.dim == 4


def test_build_hr_r0_quantum_commutativity_decided(h4):
    bh0 = build_hr(r_t(h4, 0))
    assert verify_braided_hopf(bh0).ok
    # decided by the brute-force oracle; record the outcome exactly
    assert quantum_commutative(bh0.underlying) is True


def test_bimodule_trivial_r_reduces_to_action(kc2):
    c = cqt_structure(kc2, eps_eps(kc2))
    bh = build_hr(c)
    mod = regular_comodule_module(c)   # trivial R: ε-action
    b = bimodule_actions(bh, mod)
    assert verify_bimodule(bh, b).ok
    assert b.left_hr == mod.action
    assert b.right_hr == mod.action


def test_bimodule_dim1_through_counit(bh1, h4):
    mod = trivial_module(h4, 1)
    b = bimodule_actions(bh1, mod)
    assert verify_bimodule(bh1, b).ok
    for i in range(4):
        assert b.left_hr.data[i] == h4.counit[i]
        assert b.right_hr.data[i] == h4.counit[i]


def test_bimodule_regular_passes(bh1, mreg):
    b = bimodule_actions(bh1, mreg)
    assert verify_bimodule(bh1, b).ok
    assert b.left_hr.shape == (4, 4, 4)


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_bimodule_checks_match_dense_actions(side, spec):
    """On every ±1 one-entry change of −▷ or ◁− of I over 𝓗_{R_1}, each
    verify_bimodule check gives the dense reference's report tuple."""
    h4 = sweedler_h4(field_from_spec(spec))
    bh = build_hr(r_t(h4, 1))
    b = bimodule_actions(bh, unit_object(h4).module)
    assert report_rows(verify_bimodule(bh, b)) == \
        report_rows(ref.bimodule_checks(bh, b))
    failing = set()
    for t in changes(getattr(b, side + "_hr")):
        tensors = {"left_hr": b.left_hr, "right_hr": b.right_hr,
                   side + "_hr": t}
        bad = BimoduleActions(b.module, act2=b.act2, **tensors)
        rows = report_rows(verify_bimodule(bh, bad))
        assert rows == report_rows(ref.bimodule_checks(bh, bad))
        failing |= {r[0] for r in rows if r[1] == "fail"}
    assert failing == {side + "_action_for_star", "bimodule_commutation"}


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_braided_antipode_matches_closure(spec):
    """On every ±1 one-entry change of S_R in 𝓗_{R_1}, braided_antipode
    gives the reference's report tuple and the YD-algebra checks of
    (𝓗_R, ⋆) are unchanged."""
    bh = build_hr(r_t(sweedler_h4(field_from_spec(spec)), 1))
    base = report_rows(verify_yd_algebra(bh.underlying))
    assert report_rows(verify_braided_hopf(bh)) == \
        base + report_rows(ref.braided_antipode(bh))
    witnesses = set()
    for s_r in changes(bh.braided_antipode):
        bad = BraidedHopf(bh.cqt, bh.underlying, s_r)
        rows = report_rows(verify_braided_hopf(bad))
        assert rows == base + report_rows(ref.braided_antipode(bad))
        witnesses.add(rows[-1][2])
    assert witnesses - {None}

def test_coinvariants_trivial_structure(kc2):
    c = cqt_structure(kc2, eps_eps(kc2))
    bh = build_hr(c)
    mod = trivial_module(kc2, 3)
    b = bimodule_actions(bh, mod)
    assert coinvariants(bh, b, "right").dim == 3
    assert coinvariants(bh, b, "left").dim == 3


def test_coinvariants_unit_object(bh1, unit_obj):
    b = bimodule_actions(bh1, unit_obj.module)
    assert coinvariants(bh1, b, "right").dim == 1
    assert coinvariants(bh1, b, "left").dim == 1


def test_coinvariants_regular_lemma31(h4):
    r0 = r_t(h4, 0)
    bh0 = build_hr(r0)
    mod = regular_comodule_module(r0)
    b = bimodule_actions(bh0, mod)
    # an 𝓜^H_R object has action = ▷₁, so M_◇ is everything by Lemma 3.1
    assert coinvariants(bh0, b, "right").dim == 4


def test_sigma_coinvariants_stable(h4, r1, s1, mreg, unit_obj):
    assert verify_sigma_coinvariants(s1, r1, mreg).ok
    s2 = sigma_t(h4, 2)
    r0 = r_t(h4, 0)
    assert verify_sigma_coinvariants(s2, r0, unit_obj.module).ok


# -- wedge ---------------------------------------------------------------------

def test_wedge_trivial_everything_full(kc2):
    c = cqt_structure(kc2, eps_eps(kc2))
    ma = trivial_module(kc2, 2)
    mb = trivial_module(kc2, 2)
    sub, wmod = wedge(c, ma, mb)
    assert sub.dim == 4
    assert verify_yd(wmod).ok


def test_wedge_I_I_dim_n(r1, unit_obj):
    sub, wmod = wedge(r1, unit_obj.module, unit_obj.module)
    assert sub.dim == 4
    assert verify_yd(wmod).ok


def test_sigma_wedge_and_prop35(s1, r1, unit_obj):
    rep = verify_sigma_wedge(s1, r1, unit_obj, unit_obj)
    assert rep.ok, rep.render_text()


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_multiplicative_check_matches_closure(spec):
    """On χ* (σ₁) and on η⁻¹ on I⊗I, and on every ±1 one-entry change of
    either, first_multiplicative_mismatch gives the closure's witness, and
    every change but four rescalings of χ* is caught."""
    h = sweedler_h4(field_from_spec(spec))
    s, r, uo = sigma_t(h, 1), r_t(h, 1), unit_object(h)
    suo = sigma_algebra(s, uo)
    maps = {
        "chi_star": (suo, unit_object(deform(s)), chi_maps(s)[2]),
        "eta_inv": (sigma_algebra(s, braided_product(uo, uo, cqt=r)),
                    braided_product(suo, suo, cqt=deform_cqt(r, s)),
                    eta(s, uo.module, uo.module)[1])}
    # χ* is the identity on H₄*'s basis; rescaling δ_h or δ_gh, its
    # entries (2, 2) and (3, 3), is still multiplicative: 4 changes missed
    for name, (src, dst, m) in maps.items():
        missed = 4 if name == "chi_star" else 0
        assert first_multiplicative_mismatch(src.mul, dst.mul, m) is None
        caught = 0
        for bad in changes(m):
            got = first_multiplicative_mismatch(src.mul, dst.mul, bad)
            assert got == ref.multiplicative_mismatch(src, dst, bad), name
            caught += got is not None
        assert caught == 2 * m.rows * m.cols - missed, name


def test_sigma_wedge_trivial_cocycle(h4, r1, unit_obj):
    triv = two_cocycle(h4, eps_eps(h4))
    rep = verify_sigma_wedge(triv, r1, unit_obj, unit_obj)
    assert rep.ok


def test_wedge_algebra_membership(bh1, r1, unit_obj):
    """I∧I is again a bigalois quantum-commutative object (Thm 3.11 on an
    instance)."""
    from hopflab.galois import wedge_algebra
    ww = wedge_algebra(r1, unit_obj, unit_obj)
    assert verify_yd_algebra(ww).ok
    assert quantum_commutative(ww)
    b = bimodule_actions(bh1, ww.module)
    assert galois_maps(bh1, b, ww).ok


# -- unit object and χ ----------------------------------------------------------

def test_unit_object_kc2(kc2):
    assert verify_yd_algebra(unit_object(kc2)).ok


def test_unit_object_dim1():
    k = dim1_hopf(QQ)
    uo = unit_object(k)
    assert uo.dim == 1
    assert verify_yd_algebra(uo).ok


def test_unit_object_h4(unit_obj):
    assert verify_yd_algebra(unit_obj).ok
    assert quantum_commutative(unit_obj) is True


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
@pytest.mark.parametrize("host_name", ["H4", "kC2", "H4*"])
def test_unit_object_is_dual_of_adjoint_module(host_name, spec):
    """unit_object(H) = (H*'s adjoint module)* with H*'s product and unit
    equals the written-out I tensor-exactly."""
    from hopflab.fields import field_from_spec
    from hopflab.hopf import dual_hopf
    f = field_from_spec(spec)
    host = (group_algebra_c2(f) if host_name == "kC2"
            else sweedler_h4(f, verify=False))
    if host_name == "H4*":
        host = dual_hopf(host)
    uo = unit_object(host)
    action, coaction, mult, unit = ref.unit_object_tensors(host)
    assert uo.host is host
    assert uo.module.action == action and uo.module.coaction == coaction
    assert uo.mult.data == mult and uo.unit == unit
    assert verify_yd_algebra(uo).ok


def test_chi_trivial_sigma_is_identity(h4):
    triv = two_cocycle(h4, eps_eps(h4))
    chi, chi_inv, chi_star = chi_maps(triv)
    assert chi == Matrix.identity(QQ, 4)
    assert chi_star == Matrix.identity(QQ, 4)


def test_chi_roundtrips(h4):
    for t in (1, 2, -2):
        chi_maps(sigma_t(h4, t))   # raises on failure


def test_unit_deformation_lemma37(h4):
    for t in (1, -1):
        rep = verify_unit_deformation(sigma_t(h4, t))
        assert rep.ok, rep.render_text()


def test_unit_deformation_trivial_sigma(h4):
    triv = two_cocycle(h4, eps_eps(h4))
    assert verify_unit_deformation(triv).ok
    assert chi_maps(triv)[2] == Matrix.identity(QQ, 4)


def test_phi_psi_xi_roundtrips(h4, s1, unit_obj, r1):
    phi_psi_xi(s1, unit_obj)                    # raises on failure
    s2 = sigma_t(h4, 2)
    phi_psi_xi(s2, end_regular(r1))
    triv = two_cocycle(h4, eps_eps(h4))
    phi, phi_i, psi, psi_i, xi, xi_i = phi_psi_xi(triv, unit_obj)
    assert phi == Matrix.identity(QQ, 16)
    assert psi == Matrix.identity(QQ, 16)
    assert xi == Matrix.identity(QQ, 16)


# -- Galois decisions ------------------------------------------------------------

def test_galois_maps_unit_object_bigalois(bh1, unit_obj):
    b = bimodule_actions(bh1, unit_obj.module)
    rep = galois_maps(bh1, b, unit_obj)
    assert rep.ok, rep.render_text()


def test_galois_maps_beta_matrices(monkeypatch, bh1, r1, s1, unit_obj):
    """The β rows galois_maps and comodule_galois decide on equal the dense
    references; β_l's column for e_i ⊗ v_y is y·n + i, where the reference
    has i·m + y."""
    import hopflab.galois as galois
    seen = {}
    inner = galois._beta_quotient_bijective

    def capture(f, beta, target, parts, rep, tag):
        seen[tag] = [[row.get(c, f.zero) for c in range(target)]
                     for row in beta]
        return inner(f, beta, target, parts, rep, tag)

    monkeypatch.setattr(galois, "_beta_quotient_bijective", capture)
    bhs = build_hr(deform_cqt(r1, s1))
    s_uo = sigma_algebra(s1, unit_obj)
    for bh, alg in ((bh1, unit_obj), (bhs, s_uo)):
        n, m = alg.host.dim, alg.dim
        b = bimodule_actions(bh, alg.module)
        assert galois_maps(bh, b, alg).ok
        assert seen.pop("beta_r") == ref.beta(b, alg, "r")
        assert seen.pop("beta_l") == [
            [row[i * m + y] for y in range(m) for i in range(n)]
            for row in ref.beta(b, alg, "l")]
        comodule_galois(alg)
        assert seen.pop("beta") == ref.comodule_beta(alg)


def check_relations(alg, xs, beta):
    """test_relations_match_dense_reference on one algebra, its β rows and
    one list xs of dense vectors x; returns the relations and the
    witness."""
    from hopflab.galois import (_beta_quotient_bijective, _relation_parts,
                                _relations)
    f = alg.host.field
    target = alg.dim * alg.host.dim
    want = [{i: c for i, c in enumerate(vec) if c}
            for vec in ref.relations(alg, xs)]
    parts = _relation_parts(alg, [[(j, c) for j, c in enumerate(x) if c]
                                  for x in xs])
    assert list(_relations(parts)) == want

    def image(rel):
        """β(rel) as a dense vector, summed on field elements."""
        acc = [f.zero] * target
        for k, x in rel.items():
            for c, v in beta[k].items():
                acc[c] = acc[c] + x * v
        return acc

    witness = next(((i,) for i, rel in enumerate(want) if any(image(rel))),
                   None)
    rep = CheckReport()
    _beta_quotient_bijective(f, beta, target, parts, rep, "beta")
    assert rep.checks[1].witness == witness
    if witness is not None:
        assert rep.checks[2].detail.startswith(
            "relation rank %d " % len(ref.rref(
                f, (rel.items() for rel in want), False)))
    return want, witness


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_relations_match_dense_reference(field):
    """_relations gives the dense reference's nonzero relations, flattened
    to {p·m + r: coefficient}, in the same order: for x (given as a sparse
    row) over A₀, and over A₀ and two vectors outside it, on I, H_regular,
    End(regular) and σ̲_1 of each.  On the same relations,
    _beta_quotient_bijective, which reads β(relation) from the parts,
    gives as witness the index in that list of the first relation whose
    dense β image is not 0, and as relation rank the rank of the list."""
    from hopflab.galois import _galois_map
    h4 = sweedler_h4(field, verify=False)
    s1 = sigma_t(h4, 1)
    algebras = [unit_object(h4), regular_galois_algebra(h4),
                end_regular(r_t(h4, 1))]
    algebras += [sigma_algebra(s1, alg) for alg in algebras]
    witnesses = set()
    for alg in algebras:
        m = alg.dim
        beta = _galois_map(alg, [alg.module.coact.terms(p)
                                 for p in range(m)], False)
        sub0 = comodule_coinvariants(alg).vectors
        witnesses.add(check_relations(alg, sub0, beta)[1])
        want, witness = check_relations(alg, sub0 + [
            alg.module.basis_vec(m - 1),
            [field.from_int(i % 3 - 1) for i in range(m)]], beta)
        assert want
        witnesses.add(witness)
    assert None in witnesses and len(witnesses) > 1


def test_relation_rank_stops_at_the_kernel_only_inside_it(monkeypatch):
    """The relation rank is capped at dim ker β only once every relation
    lies in ker β, where the cap cannot bind, and the capped rank makes
    only the relation rows it reads; relations that leave ker β are ranked
    in full, so the detail shows their whole rank.  The witness counts
    only the nonzero relations.

    The parts are m = 2 hand-made ones: the relation of (x, v_p, v_r) is
    Σ_t ax[p]_t e_{2t+r} + Σ_t nxb[r]_t e_{2p+t}, and ker β = ⟨e_2, e_3⟩."""
    beta = [{0: 1}, {1: 1}, {}, {}]       # 4 rows of 2
    inside = ([{1: 1}, {}], [{}, {}])     # relations e_2, e_3
    twice = ([{1: -2}, {}], [{}, {}])     # relations −2e_2, −2e_3
    # (0, 0) is zero, (0, 1) is e_1 ∉ ker β, (1, 0) is −e_2, (1, 1) none
    leaves = ([{0: 1}, {}], [{0: -1}, {}])
    made = []
    inner = galois._relations

    def counted(parts):
        for rel in inner(parts):
            made.append(rel)
            yield rel

    monkeypatch.setattr(galois, "_relations", counted)
    cases = [([inside, twice], "pass", None, 2, 2),
             ([inside, leaves], "fail", (2,), 3, 4)]
    for parts, status, witness, rel_rank, rows_made in cases:
        rep = CheckReport()
        del made[:]
        galois._beta_quotient_bijective(QQ, beta, 2, parts, rep, "beta")
        assert report_rows(rep)[1:] == [
            ("beta_relations_in_kernel", status, witness, ""),
            ("beta_kernel_is_relations", "pass" if rel_rank == 2 else "fail",
             None, "relation rank %d vs kernel dim 2" % rel_rank)]
        assert len(made) == rows_made
    assert list(inner([inside, leaves])) == [
        {2: 1}, {3: 1}, {1: 1}, {2: -1}]


def test_galois_maps_trivial_not_galois(kc2):
    c = cqt_structure(kc2, eps_eps(kc2))
    bh = build_hr(c)
    alg = YdAlgebra(trivial_module(kc2, 2), kc2.mult, kc2.unit)
    b = bimodule_actions(bh, alg.module)
    rep = galois_maps(bh, b, alg)
    flags = {x.name: x.status for x in rep.checks}
    assert flags["right_galois"] == "fail"
    assert flags["bigalois_object"] == "fail"


def test_prop_310_equivalence(bh1, r1, s1, unit_obj):
    r1s = deform_cqt(r1, s1)
    bhs = build_hr(r1s)
    b = bimodule_actions(bh1, unit_obj.module)
    before = galois_maps(bh1, b, unit_obj)
    s_uo = sigma_algebra(s1, unit_obj)
    bs = bimodule_actions(bhs, s_uo.module)
    after = galois_maps(bhs, bs, s_uo)
    for nm in ("right_galois", "left_galois", "bigalois_object"):
        assert before.status(nm) == after.status(nm) == "pass"


def test_comodule_galois_regular(h4):
    alg = regular_galois_algebra(h4)
    rep = comodule_galois(alg)
    assert rep.ok
    assert comodule_coinvariants(alg).dim == 1


def test_comodule_galois_trivial_coaction_fails(h4):
    alg = YdAlgebra(trivial_module(h4, 2), group_algebra_c2(QQ).mult,
                    group_algebra_c2(QQ).unit)
    rep = comodule_galois(alg)
    flags = {x.name: x.status for x in rep.checks}
    assert flags["galois"] == "fail"


def test_comodule_galois_end_and_lemma_314(r1, s1):
    e = end_regular(r1)
    before = comodule_galois(e)
    se = sigma_algebra(s1, e)
    after = comodule_galois(se)
    assert before.status("galois") == after.status("galois")


def test_mu_action_regular(h4):
    alg = regular_galois_algebra(h4)
    pi, rep = mu_action_and_pi(alg)
    assert rep.ok, rep.render_text()
    assert pi.dim == 4
    # A₀ = k, so π(A) = A and the MU action is the stored adjoint action
    assert pi.structures_equal(alg)
    assert quantum_commutative(pi)


def test_mu_action_dim1(h4):
    alg = trivial_algebra(h4)
    # trivial coaction on dim 1 is Galois: A⊗A → A⊗H needs dim match only
    # when n = 1; over H₄ β cannot be onto, so expect a Galois failure
    with pytest.raises(VerificationError):
        mu_action_and_pi(alg)


def test_mu_action_dim1_over_dim1_host():
    k = dim1_hopf(QQ)
    alg = trivial_algebra(k)
    pi, rep = mu_action_and_pi(alg)
    assert rep.ok
    assert pi.dim == 1


def test_thm_315_pointwise(r1, s1):
    e = end_regular(r1)
    se = sigma_algebra(s1, e)
    pi_e, rep_e = mu_action_and_pi(e)
    assert rep_e.ok
    pi_se, rep_se = mu_action_and_pi(se)
    assert rep_se.ok
    s_pi = sigma_algebra(s1, pi_e)
    assert pi_se.mult == s_pi.mult
    assert pi_se.module.action == s_pi.module.action
    assert pi_se.module.coaction == s_pi.module.coaction
    assert pi_se.unit == s_pi.unit
    assert quantum_commutative(pi_se)


# -- the canonical Subspace ------------------------------------------------------

@pytest.fixture(scope="module", params=["Q", "Fp:5"])
def suite_subspaces(request):
    """Every Subspace criteria 11, 13 and 14 build on a fresh context: both
    coinvariant sides (and their Lemma-3.1 second forms) and A₀ of I,
    H_regular, End(regular) and their σ̲₁ images, the regular module's and
    I's coinvariants before and after σ̲, the I∧I wedges, π(End(regular))
    and π(σ̲₁(End(regular)))."""
    import hopflab.galois as galois
    from hopflab.suite import (SuiteContext, criterion_11_coinvariants_wedge,
                               criterion_13_galois_stability,
                               criterion_14_thm315)
    built = []
    init = galois.Subspace.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(galois.Subspace, "__init__", recording)
        ctx = SuiteContext(field_from_spec(request.param), (1,), 0)
        for criterion in (criterion_11_coinvariants_wedge,
                          criterion_13_galois_stability, criterion_14_thm315):
            assert criterion(ctx).ok
    return ctx.field, built


def test_subspace_matches_reference(suite_subspaces):
    """coordinates and contains agree with the reference's on every
    subspace the suite builds (in k⁴ and k¹⁶, of dimension 1 up to the
    whole space), for vectors inside it (its basis vectors and seeded
    combinations of them) and vectors that may leave it (those plus one
    ambient basis vector, and seeded small vectors)."""
    f, subs = suite_subspaces
    assert len(subs) > 50 and {s.ambient_dim for s in subs} == {4, 16}
    assert {s.dim for s in subs} >= {1, 4, 16}
    rng = random.Random(20)
    seen = set()
    for sub in subs:
        column_space = ref.ColumnSpace(sub)
        dim = sub.ambient_dim

        def small():
            return f.from_int(rng.randint(-2, 2))

        inside = [list(v) for v in sub.vectors]
        for _ in range(3):
            vec = [f.zero] * dim
            for v in sub.vectors:
                c = small()
                vec = [x + c * y for x, y in zip(vec, v)]
            inside.append(vec)
        maybe = []
        for vec in inside:
            maybe.append(changed(vec, rng.randrange(dim), f.one))
        maybe += [[small() for _ in range(dim)] for _ in range(3)]
        for vec in inside + maybe:
            want = column_space.coordinates(vec)
            assert sub.coordinates(vec) == want
            assert sub.contains(vec) == column_space.contains(vec) == \
                (want is not None)
            seen.add(want is not None)
        for j, v in enumerate(sub.vectors):
            assert sub.coordinates(v) == [f.one if t == j else f.zero
                                          for t in range(sub.dim)]
    assert seen == {True, False}


def test_subspace_equals_matches_reference(suite_subspaces):
    """equals agrees with the reference's on every pair of distinct
    subspaces the suite builds: equal spans, and only they, have equal
    bases."""
    _, subs = suite_subspaces
    distinct = list({(s.ambient_dim, str(s.vectors)): s for s in subs}
                    .values())
    refs = [ref.ColumnSpace(s) for s in distinct]
    outcomes = set()
    for a, ra in zip(subs, [ref.ColumnSpace(s) for s in subs]):
        for b, rb in zip(distinct, refs):
            assert a.equals(b) == ra.equals(rb)
            outcomes.add(a.equals(b))
    assert outcomes == {True, False}
    for i, a in enumerate(refs):
        for b in refs[i + 1:]:
            assert not a.equals(b)


def equation_images(f, rng, dim, size):
    """A seeded sparse system: images[p] lists (equation, coefficient)."""
    return [[(rng.randrange(size), f.from_int(rng.randint(-2, 2)))
             for _ in range(rng.randint(0, 3))] for _ in range(dim)]


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_subspace_basis_ignores_how_equations_are_given(spec):
    """One subspace given by scaled, permuted, duplicated and recombined
    equations, with coefficients split over repeated indices, has the same
    basis; so has a coinvariant system of End(regular)."""
    from hopflab.galois import Subspace, _coaction_table
    f = field_from_spec(spec)
    rng = random.Random(20)
    h4 = sweedler_h4(f)
    e = end_regular(r_t(h4, 1))
    table = _coaction_table(bimodule_actions(build_hr(r_t(h4, 1)),
                                             e.module).left)
    systems = [[[(q * 4 + k, c) for q, k, c in row]
                + [(p * 4 + k, -x) for k, x in enumerate(h4.counit) if x]
                for p, row in enumerate(table)]]
    systems += [equation_images(f, rng, dim, size)
                for dim, size in [(6, 3), (8, 5), (8, 8), (10, 4)] * 3]
    nontrivial = 0
    for images in systems:
        dim = len(images)
        size = 1 + max((k for image in images for k, _ in image), default=0)
        sub = Subspace(f, size, images)
        perm = list(range(size))
        rng.shuffle(perm)
        scale = [f.from_int(rng.choice([1, 2, 3, -1])) for _ in range(size)]
        src, dst = rng.randrange(size), rng.randrange(size)
        mix = f.from_int(rng.randint(1, 3))
        twisted = []
        for image in images:
            out = []
            for k, c in image:
                # row k scaled and moved to perm[k]; split in two terms
                out += [(perm[k], scale[k] * c - f.one), (perm[k], f.one)]
                if k == src:            # a copy of row src at the end
                    out.append((size, c))
                if k == src and src != dst:   # row dst += mix · row src
                    out.append((perm[dst], scale[dst] * mix * c))
            twisted.append(out)
        again = Subspace(f, size + 1, twisted)
        assert again.equals(sub) and again.vectors == sub.vectors
        assert sub.vectors == ref.ColumnSpace(sub).column_vectors()
        assert sub.equals(Subspace(f, 0, [[]] * dim)) == (sub.dim == dim)
        nontrivial += 0 < sub.dim < dim
    assert nontrivial > 3


# -- parity with the Matrix-based Galois layer -------------------------------

def outcome(fn, *args):
    """fn(*args), or ("raised", message) for a VerificationError."""
    try:
        return fn(*args)
    except VerificationError as exc:
        return ("raised", str(exc))


def galois_outcomes(bh, b, alg, alg_report):
    """The full (name, status, witness, detail) rows of comodule_galois,
    galois_maps and mu_action_and_pi on alg, with π(A)'s tensors or its
    error; alg_report is verify_yd_algebra(alg), which mu_action_and_pi
    merges into its report."""
    mu = outcome(galois._mu_action_and_pi, alg, alg_report)
    if isinstance(mu[0], YdAlgebra):
        pi, rep = mu
        mu = (report_rows(rep), pi.mult, pi.module.action,
              pi.module.coaction, pi.unit)
    return (report_rows(comodule_galois(alg)),
            report_rows(galois_maps(bh, b, alg)), mu)


def remember(mp, name, key):
    """Let galois.<name>, a function of its arguments alone, answer
    arguments with a key it has seen with its earlier answer.  An argument
    that is an iterator, such as the relation rows that _relations makes
    as they are read, is read into a list first."""
    answers, inner = {}, getattr(galois, name)

    def remembered(*args):
        args = [list(a) if isinstance(a, Iterator) else a for a in args]
        k = key(*args)
        if k not in answers:
            answers[k] = inner(*args)
        return answers[k]
    mp.setattr(galois, name, remembered)


def remember_shared_steps(mp):
    """Two steps the reference layer does not replace, the relation ranks
    and the relations' parts (test_relations_match_dense_reference is
    their reference), answer a repeated input once: both runs of a case,
    and coinvariant spaces that coincide, share them, so the reference run
    costs about what it replaces."""
    remember(mp, "sparse_rank", lambda f, rows, cap=None: (
        f.spec(), cap, tuple(tuple(row.items()) for row in rows)))
    remember(mp, "_relation_parts", lambda alg, rows: (
        id(alg), tuple(map(tuple, rows))))


def route_through_references(mp):
    """Route Subspace and the βᵀ path through the references (the
    bimodule actions are passed in)."""
    mp.setattr(galois, "Subspace", ref.MatrixSubspace)
    mp.setattr(galois, "_kernel_and_preimages", ref.kernel_and_preimages)


def bimodule_outcome(actions, bh, mod):
    """actions(bh, mod)'s three tensors, or its error."""
    b = outcome(actions, bh, mod)
    return (b.left_hr, b.right_hr, b.act2) \
        if isinstance(b, BimoduleActions) else b


def corrupted_algebras(alg, rng=None, sample=None):
    """alg with one mult entry raised or lowered by 1: every such change,
    or, for `sample` seeded entries, one seeded change of each."""
    t = alg.mult
    if sample is None:
        mults = list(changes(t))
    else:
        mults = [changed(t, flat, rng.choice([t.field.one, -t.field.one]))
                 for flat in sorted(rng.sample(range(len(t.data)), sample))]
    return [YdAlgebra(alg.module, mult, alg.unit) for mult in mults]


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_galois_layer_matches_matrix_reference(spec):
    """comodule_galois, galois_maps and mu_action_and_pi (as
    _mu_action_and_pi given A's verify_yd_algebra report) give the
    reference layer's full report rows (and π(A)'s tensors, or its error)
    on every ±1 one-entry change of the product of I and H_regular, on one
    seeded change of each of 64 seeded entries of End(regular)'s product
    and on the three algebras themselves; bimodule_actions gives the
    reference's tensors on their modules.  The decisions pass and
    fail, and mu_action_and_pi both returns and raises."""
    f = field_from_spec(spec)
    h4 = sweedler_h4(f)
    r1 = r_t(h4, 1)
    bh = build_hr(r1)
    rng = random.Random(27)
    statuses = set()
    for alg, sample in ((unit_object(h4), None),
                        (regular_galois_algebra(h4), None),
                        (end_regular(r1), 64)):
        b = bimodule_actions(bh, alg.module)
        b_ref = ref.bimodule_actions(bh, alg.module)
        assert (b.left_hr, b.right_hr, b.act2) == \
            (b_ref.left_hr, b_ref.right_hr, b_ref.act2)
        for case in [alg] + corrupted_algebras(alg, rng, sample):
            alg_report = verify_yd_algebra(case)
            with pytest.MonkeyPatch.context() as mp:
                remember_shared_steps(mp)
                got = galois_outcomes(bh, b, case, alg_report)
                route_through_references(mp)
                want = galois_outcomes(bh, b_ref, case, alg_report)
            assert got == want
            statuses.update(row[1] for rows in got[:2] for row in rows)
            statuses.add(got[2][0] == "raised")
    assert statuses == {"pass", "fail", True, False}


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_bimodule_actions_match_summed_reference(spec):
    """bimodule_actions gives the reference's tensors, or its error with
    the same witness, on the modules of I, H_regular and End(regular) and
    on every ±1 one-entry change of I's action and coaction."""
    f = field_from_spec(spec)
    h4 = sweedler_h4(f)
    bh = build_hr(r_t(h4, 1))
    uo = unit_object(h4)
    mods = [uo.module, regular_galois_algebra(h4).module,
            end_regular(r_t(h4, 1)).module]
    mods += [YdModule(h4, uo.dim, act, uo.module.coaction)
             for act in changes(uo.module.action)]
    mods += [YdModule(h4, uo.dim, uo.module.action, coact)
             for coact in changes(uo.module.coaction)]
    raised = set()
    for mod in mods:
        got = bimodule_outcome(bimodule_actions, bh, mod)
        assert got == bimodule_outcome(ref.bimodule_actions, bh, mod)
        raised.add(got[0] == "raised")
    assert raised == {True, False}
