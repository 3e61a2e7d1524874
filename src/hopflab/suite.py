"""The acceptance suite: every headline identity checked exactly on the
built-in instances.  All comparisons are equalities in exact arithmetic.

Each criterion is a function returning a CheckReport; run_suite aggregates
them into a single deterministic report (sorted check names, no timings in
the JSON form, seed recorded).
"""

from __future__ import annotations

import json
import random
import time

from .fields import QQ, PrimeField
from . import catalog as cat
from .hopf import verify_hopf_axioms
from .linalg import Matrix, rank, kernel_basis
from .report import Check, CheckReport, VerificationError
from .twist import (convolve2, deform, deform_dual, dual_cocycle,
                    dual_cocycle_product, eps_eps, is_lazy, is_lazy_dual,
                    two_cocycle, verify_dual_cocycle, verify_two_cocycle,
                    coboundary_from, lazy_one_cocycle)
from .quasitriangular import (deform_cqt, deform_qt, verify_cqt, verify_qt,
                              yd_from_comodule)
from .yd import (_kron, azumaya_check, braided_squares, dual_module,
                 end_algebra, eta, is_yd_map, quantum_commutative,
                 sigma_algebra, sigma_module, verify_yd_algebra, zeta_iso,
                 zeta_triangle, YdAlgebra, YdMap, random_yd_map,
                 yd_hom_basis)
from .galois import (_comodule_galois, _mu_action_and_pi, bimodule_actions,
                     build_hr, chi_maps, galois_maps, mu_action_and_pi,
                     phi_psi_xi, unit_object, verify_sigma_coinvariants,
                     verify_sigma_wedge, verify_unit_deformation)

T_DEFAULT = (-2, -1, 0, 1, 2, 3)


class SuiteContext:
    """The instances the criteria share, each built once per context.

    H₄ and kC₂ are built with the context; everything else (σ_t, θ_t, R_t,
    ℛ_t, R_t^{σ_s}, the YD modules, 𝓗_R, the Galois test algebras and
    their σ̲ images) is built on first use and memoized by name and
    parameters, and so is the comodule Galois decision of each test
    algebra and σ̲ image (galois), which criterion 13 reports and criterion
    14's π(A) reads.  A family parameter t is keyed by its field value
    field.from_int(t), so each instance is built once per parameter value:
    over F₅, σ₋₄ is σ₁.  The builders still receive t itself, and the
    check names keep it.  The criteria's reports are memoized too
    (report): run_suite and criterion 15 read one report of each
    criterion per context.  Apart from regular_comodule_module's YD
    precondition and the σ̲ images, which must pass verify_yd_algebra,
    nothing here verifies: each criterion checks what it reads.  Memos stay
    with their context; only the tables of live equal tensors are shared
    between contexts (linalg.Bilinear).
    """

    # the Galois test algebras, End_regular being End(regular(1))
    ALGEBRAS = {"I": lambda ctx: unit_object(ctx.h4),
                "H_regular": lambda ctx: cat.regular_galois_algebra(ctx.h4),
                "End_regular": lambda ctx: end_algebra(ctx.regular(1))}

    def __init__(self, field=QQ, t_values=T_DEFAULT, seed=0):
        self.field = field
        self.t_values = tuple(t_values)
        self.seed = seed
        self.h4 = cat.sweedler_h4(field, verify=False)
        self.kc2 = cat.group_algebra_c2(field, verify=False)
        self._memo = {}

    def _once(self, key, build, *args):
        if key not in self._memo:
            self._memo[key] = build(*args)
        return self._memo[key]

    def report(self, name, criterion):
        """criterion(self), the report of the criterion called name,
        computed on first request and kept."""
        return self._once(("report", name), criterion, self)

    def sigma(self, t):
        return self._once(("sigma", self.field.from_int(t)), cat.sigma_t,
                          self.h4, t)

    def theta(self, t):
        return self._once(("theta", self.field.from_int(t)), cat.theta_t,
                          self.h4, t)

    def r(self, t):
        return self._once(("r", self.field.from_int(t)), cat.r_t, self.h4, t)

    def qt(self, t):
        return self._once(("qt", self.field.from_int(t)), cat.qt_t, self.h4,
                          t)

    def r_sigma(self, t, s):
        """R_t^{σ_s}."""
        value = self.field.from_int
        return self._once(("r_sigma", value(t), value(s)), deform_cqt,
                          self.r(t), self.sigma(s))

    def regular(self, t=1):
        """H₄ as a comodule over itself with the R_t-induced action."""
        return self._once(("regular", self.field.from_int(t)),
                          cat.regular_comodule_module, self.r(t))

    def c2_regular(self):
        """kC₂'s regular comodule with the action of R(g⊗g) = -1."""
        return self._once(("c2_regular",), lambda: cat.regular_comodule_module(
            cat.cqt_c2(self.kc2, -1)))

    def trivial(self, host="h4", dim=1):
        """The trivial YD module of dimension dim over self.h4 or self.kc2."""
        return self._once(("trivial", host, dim), cat.trivial_module,
                          getattr(self, host), dim)

    def hr(self, t):
        """𝓗_{R_t}."""
        return self._once(("hr", self.field.from_int(t)), build_hr,
                          self.r(t))

    def algebra(self, name):
        return self._once(("algebra", name), self.ALGEBRAS[name], self)

    def unit_obj(self):
        return self.algebra("I")

    def end_regular(self):
        return self.algebra("End_regular")

    def sigma_algebra(self, t, name):
        """σ̲_t of algebra(name), which must pass verify_yd_algebra."""
        return self._verified_sigma_algebra(t, name)[0]

    def _verified_sigma_algebra(self, t, name):
        """(σ̲_t of algebra(name), its passed verify_yd_algebra report)."""
        def build():
            out = sigma_algebra(self.sigma(t), self.algebra(name))
            return out, verify_yd_algebra(out).require(
                "sigma_%s(%s)" % (t, name))
        return self._once(("sigma_algebra", self.field.from_int(t), name),
                          build)

    def galois(self, name, t=None):
        """galois._comodule_galois of algebra(name), or of its σ̲_t image
        when t is given: its report, A₀ and β, decided once per context."""
        if t is None:
            alg, key = self.algebra(name), None
        else:
            alg, key = self.sigma_algebra(t, name), self.field.from_int(t)
        return self._once(("galois", name, key), _comodule_galois, alg)


def criterion_01_h4_validity(ctx):
    """H₄ passes all Hopf axioms over ℚ and F₅."""
    rep = CheckReport()
    rep.merge(verify_hopf_axioms(cat.sweedler_h4(QQ, verify=False)),
              prefix="Q_")
    rep.merge(verify_hopf_axioms(cat.sweedler_h4(PrimeField(5),
                                                 verify=False)),
              prefix="F5_")
    return rep


def criterion_02_cocycle_family(ctx):
    """σ_t: cocycle identities, laziness, group law, inverses."""
    rep = CheckReport()
    h4 = ctx.h4
    for t in ctx.t_values:
        c = ctx.sigma(t)
        ok = verify_two_cocycle(c).ok
        rep.add("sigma_%s_identities" % t, ok)
        rep.add("sigma_%s_lazy" % t, is_lazy(c))
    for t in ctx.t_values:
        for s in ctx.t_values:
            want = ctx.sigma(t + s).sigma
            got = convolve2(h4, ctx.sigma(t).sigma, ctx.sigma(s).sigma)
            rep.add("sigma_group_law_%s_%s" % (t, s), got == want)
    for t in ctx.t_values:
        # σ_t's inverse, solved by conv_inverse2 when σ_t was built
        rep.add("sigma_%s_inverse_is_minus" % t,
                ctx.sigma(t).sigma_inv == ctx.sigma(-t).sigma)
    return rep


def criterion_03_dual_family(ctx):
    """θ_t: dual cocycle identity, laziness, product law."""
    rep = CheckReport()
    for t in ctx.t_values:
        d = ctx.theta(t)
        rep.add("theta_%s_identities" % t, verify_dual_cocycle(d).ok)
        rep.add("theta_%s_lazy" % t, is_lazy_dual(d))
    for t in ctx.t_values:
        for s in ctx.t_values:
            want = ctx.theta(t + s).theta
            got = dual_cocycle_product(ctx.theta(t), ctx.theta(s)).theta
            rep.add("theta_group_law_%s_%s" % (t, s), got == want)
    return rep


def criterion_04_roundtrips(ctx):
    """(H^σ)^{σ⁻¹} = H, (H_θ)_{θ⁻¹} = H, lazy ⇒ H^σ = H."""
    rep = CheckReport()
    h4 = ctx.h4
    # H^σ has H's Δ and H_θ has H's product, so the convolution inverse of
    # σ⁻¹ on H^σ is σ, and that of θ⁻¹ on H_θ is θ
    for t in ctx.t_values:
        c, d = ctx.sigma(t), ctx.theta(t)
        hs = deform(c)
        rep.add("lazy_sigma_%s_fixes_H" % t, hs.mult == h4.mult)
        back = deform(two_cocycle(hs, c.sigma_inv, c.sigma))
        rep.add("sigma_%s_roundtrip" % t, back.structures_equal(h4))
        ht = deform_dual(d)
        rep.add("lazy_theta_%s_fixes_H" % t, ht.comult == h4.comult)
        back_t = deform_dual(dual_cocycle(ht, d.theta_inv, d.theta))
        rep.add("theta_%s_roundtrip" % t, back_t.structures_equal(h4))
    return rep


def criterion_05_cqt_qt_deformation(ctx):
    """R_t axioms; (R_t)^{σ_s} = R_{t-s} (one consistent sign); and
    (ℛ_0)_{θ_s} = ℛ_{-s}."""
    rep = CheckReport()
    for t in ctx.t_values:
        rep.add("R_%s_axioms" % t, verify_cqt(ctx.r(t)).ok)
    for t in ctx.t_values:
        for s in ctx.t_values:
            rep.add("R_%s_sigma_%s_shift" % (t, s),
                    ctx.r_sigma(t, s).r == ctx.r(t - s).r)
    rep.add("QT_0_axioms", verify_qt(ctx.qt(0)).ok)
    rep.add("QT_1_axioms", verify_qt(ctx.qt(1)).ok)
    for s in ctx.t_values:
        got = deform_qt(ctx.qt(0), ctx.theta(s))
        rep.add("QT0_theta_%s_shift" % s, got.rr == ctx.qt(-s).rr)
    return rep


def criterion_06_braided_square(ctx):
    """Thm 2.3 and Thm 2.8 commuting squares on all catalog pairs, one
    braided_squares call for the σ_t and one for the θ_t, so that Φ_{M,N}
    and M⊗N are built once per pair for the three cocycles of each."""
    rep = CheckReport()
    names = ("reg", "I", "triv")
    ts = (1, 2, -1)
    mods = [ctx.regular(1), ctx.unit_obj().module, ctx.trivial()]
    pairs = [(a, b) for a in range(3) for b in range(3)]
    squares = braided_squares([ctx.sigma(t) for t in ts], mods, pairs)
    for t, reports in zip(ts, squares):
        for (a, b), square in zip(pairs, reports):
            rep.add("thm2_3_sigma_%s_%s_%s" % (t, names[a], names[b]),
                    square.ok)
    # θ̲'s square on (M, N) is σ_θ's on (N*, M*), as in verify_theta_braided
    duals = [dual_module(m) for m in mods]
    swapped = [(b, a) for a, b in pairs]
    squares = braided_squares([ctx.theta(t).sigma for t in ts], duals,
                              swapped)
    for t, reports in zip(ts, squares):
        for (a, b), square in zip(pairs, reports):
            rep.add("thm2_8_theta_%s_%s_%s" % (t, names[a], names[b]),
                    square.ok)
    return rep


def criterion_07_cor24_action(ctx):
    """σ̲ of an 𝓜^H_R object carries the R^σ-induced action."""
    rep = CheckReport()
    ss = (1, 2, -1)
    # σ̲_s of the trivial module does not depend on t
    trivial = {s: sigma_module(ctx.sigma(s), ctx.trivial()) for s in ss}
    for t in ctx.t_values:
        for s in ss:
            rs = ctx.r_sigma(t, s)
            for name, sm in (
                    ("regular", sigma_module(ctx.sigma(s), ctx.regular(t))),
                    ("hr", sigma_module(ctx.sigma(s),
                                        ctx.hr(t).underlying.module)),
                    ("trivial", trivial[s])):
                ind = yd_from_comodule(rs, sm.coaction)
                rep.add("cor2_4_R%s_sigma%s_%s" % (t, s, name),
                        ind.action == sm.action)
    return rep


def criterion_08_coboundary_zeta(ctx):
    """Cor 2.7: ζ_M is a YD isomorphism satisfying the monoidal triangle."""
    rep = CheckReport()
    m2 = ctx.c2_regular()
    for cval in (-1, 2):
        mu = cat.one_cocycle_c2(ctx.kc2, cval)
        cob = coboundary_from(mu)
        z = zeta_iso(mu, m2, cob)
        rep.add("zeta_c2_mu%s_yd_iso" % cval, is_yd_map(z).ok
                and rank(z.matrix) == m2.dim)
        rep.add("zeta_c2_mu%s_triangle" % cval,
                zeta_triangle(mu, m2, m2, cob))
    # On H₄ the only normalized central 1-cocycle is ε (checked by a kernel
    # computation), so ζ there is the identity; assert both facts.
    h4 = ctx.h4
    f = h4.field
    n = h4.dim
    rows = []
    for i in range(n):
        for q in range(n):
            row = [f.zero] * n
            for a, b, c in h4.delta.terms(i):
                if b == q:
                    row[a] = row[a] + c
                if a == q:
                    row[b] = row[b] - c
            rows.append(row)
    ker = kernel_basis(Matrix(f, len(rows), n, rows))
    rep.add("h4_central_mu_space_dim1", ker.cols == 1)
    mu_eps = lazy_one_cocycle(h4, list(h4.counit))
    cob = coboundary_from(mu_eps)
    rep.add("h4_coboundary_of_eps_trivial", cob.sigma == eps_eps(h4))
    mreg = ctx.regular(1)
    z = zeta_iso(mu_eps, mreg, cob)
    rep.add("h4_zeta_eps_identity",
            z.matrix == Matrix.identity(f, mreg.dim))
    rep.add("h4_zeta_triangle", zeta_triangle(mu_eps, mreg, mreg, cob))
    return rep


def criterion_09_azumaya(ctx):
    """End(M) is Azumaya, σ̲(End(M)) stays Azumaya, and the trivial-YD kC₂
    control is not."""
    rep = CheckReport()
    rep.add("end_regular_azumaya", azumaya_check(ctx.end_regular()).ok)
    for t in (1, -1):
        se = ctx.sigma_algebra(t, "End_regular")
        rep.add("sigma_%s_end_azumaya" % t, azumaya_check(se).ok)
    control = YdAlgebra(ctx.trivial("kc2", 2), ctx.kc2.mult, ctx.kc2.unit)
    crep = azumaya_check(control)
    failed = {c.name for c in crep.failures()}
    rep.add("kc2_trivial_not_azumaya",
            "is_azumaya" in failed and "F_bijective" in failed)
    return rep


def criterion_10_section3_witnesses(ctx):
    """χχ⁻¹ = id and the φ/ψ/ξ round trips on H₄ for every sampled σ_t."""
    rep = CheckReport()
    uo = ctx.unit_obj()

    def built(name, build):
        # a VerificationError is a failed identity; any other error propagates
        try:
            build()
            rep.add(name, True)
        except VerificationError as exc:
            rep.add(name, False, None, str(exc))

    for t in ctx.t_values:
        built("chi_roundtrip_sigma_%s" % t, lambda: chi_maps(ctx.sigma(t)))
        built("phi_psi_xi_sigma_%s_on_I" % t,
              lambda: phi_psi_xi(ctx.sigma(t), uo))
    built("phi_psi_xi_sigma_2_on_End",
          lambda: phi_psi_xi(ctx.sigma(2), ctx.end_regular()))
    return rep


def criterion_11_coinvariants_wedge(ctx):
    """Lemma 3.3, Lemma 3.4 and Prop 3.5 span equalities."""
    rep = CheckReport()
    uo = ctx.unit_obj()
    rep.merge(verify_sigma_coinvariants(ctx.sigma(1), ctx.r(1),
                                        ctx.regular(1)),
              prefix="lemma3_3_regular_")
    rep.merge(verify_sigma_coinvariants(ctx.sigma(2), ctx.r(0), uo.module),
              prefix="lemma3_3_I_R0_")
    rep.merge(verify_sigma_wedge(ctx.sigma(1), ctx.r(1), uo, uo),
              prefix="lemma3_4_I_")
    return rep


def criterion_12_unit_deformation(ctx):
    """Lemma 3.7 for σ_1 and σ_{-1}."""
    rep = CheckReport()
    for t in (1, -1):
        rep.merge(verify_unit_deformation(ctx.sigma(t)),
                  prefix="lemma3_7_sigma_%s_" % t)
    return rep


def criterion_13_galois_stability(ctx):
    """Prop 3.10 / Lemma 3.14: the Galois verdicts agree across σ̲."""
    rep = CheckReport()
    for name in ctx.ALGEBRAS:
        b = ctx.galois(name)[0].status("galois")
        a = ctx.galois(name, 1)[0].status("galois")
        rep.add("lemma3_14_%s" % name, a == b, None,
                "Galois(A)=%s, Galois(σ̲A)=%s" % (b, a))

    bh = ctx.hr(1)
    bhs = build_hr(ctx.r_sigma(1, 1))
    after = {}          # name: galois_maps of σ̲A over 𝓗_{R^σ}
    for name in ctx.ALGEBRAS:
        alg = ctx.algebra(name)
        rep_before = galois_maps(bh, bimodule_actions(bh, alg.module), alg)
        s_alg = ctx.sigma_algebra(1, name)
        bim_s = bimodule_actions(bhs, s_alg.module)
        rep_after = after[name] = galois_maps(bhs, bim_s, s_alg)
        for nm in ("right_galois", "left_galois", "bigalois_object"):
            b = rep_before.status(nm)
            a = rep_after.status(nm)
            rep.add("prop3_10_%s_%s" % (name, nm), a == b, None,
                    "A=%s, σ̲A=%s" % (b, a))

    # Gal-membership is closed under ∧ and preserved by σ̲ (Thms 3.11/3.12
    # at the instance level, on I).
    from .galois import wedge_algebra
    uo = ctx.unit_obj()
    ww = wedge_algebra(ctx.r(1), uo, uo)
    bww = bimodule_actions(bh, ww.module)
    wrep = galois_maps(bh, bww, ww)
    member = wrep.ok and quantum_commutative(ww) \
        and verify_yd_algebra(ww).ok
    rep.add("thm3_11_wedge_of_members_is_member", member)
    s_uo = ctx.sigma_algebra(1, "I")
    s_member = after["I"].ok and quantum_commutative(s_uo)
    rep.add("thm3_12_sigma_preserves_membership", s_member)
    return rep


def criterion_14_thm315(ctx):
    """Thm 3.15 core equality π(σ̲(A)) = σ̲(π(A)) on A = End(regular),
    plus the MU well-definedness certificate."""
    rep = CheckReport()
    pi_e, rep_e = mu_action_and_pi(ctx.end_regular(),
                                   ctx.galois("End_regular"))
    rep.add("mu_well_defined_A",
            rep_e.status("mu_action_well_defined") == "pass")
    pi_se, rep_se = _mu_action_and_pi(
        *ctx._verified_sigma_algebra(1, "End_regular"),
        ctx.galois("End_regular", 1))
    rep.add("mu_well_defined_sigmaA",
            rep_se.status("mu_action_well_defined") == "pass")
    s_pi = sigma_algebra(ctx.sigma(1), pi_e)
    rep.add("pi_sigma_equal_mult", pi_se.mult == s_pi.mult)
    rep.add("pi_sigma_equal_action",
            pi_se.module.action == s_pi.module.action)
    rep.add("pi_sigma_equal_coaction",
            pi_se.module.coaction == s_pi.module.coaction)
    rep.add("pi_sigma_equal_unit", pi_se.unit == s_pi.unit)
    rep.add("pi_quantum_commutative", quantum_commutative(pi_e)
            and quantum_commutative(pi_se))
    return rep


def criterion_15_determinism(ctx):
    """ctx's reports of the cheap criteria 02, 08 and 16 and one run of
    them on a fresh SuiteContext produce byte-identical JSON.

    ctx's reports are read through its report memo, so the ones run_suite
    has made are not made again, and criterion 16's, made here first, is
    the one run_suite reports.  The fresh context is built on ctx's field
    object, so its tensors read the tables of ctx's live equal tensors
    (linalg.Bilinear); the reports, σ̲ images and Galois decisions, which
    a context memoizes, never cross contexts."""
    rep = CheckReport()

    def snapshot(c):
        parts = CheckReport()
        parts.merge(c.report("02_cocycle_family",
                             criterion_02_cocycle_family), prefix="c02_")
        parts.merge(c.report("08_coboundary_zeta",
                             criterion_08_coboundary_zeta), prefix="c08_")
        parts.merge(c.report("16_randomized_invariants",
                             extra_randomized_invariants), prefix="inv_")
        return json.dumps(parts.to_json(), sort_keys=True)

    fresh = SuiteContext(ctx.field, ctx.t_values, ctx.seed)
    rep.add("reports_byte_identical", snapshot(ctx) == snapshot(fresh))
    return rep


def extra_randomized_invariants(ctx):
    """Seeded randomized invariants: convolution associativity, σ̲
    functoriality on random YD maps, and η naturality."""
    rep = CheckReport()
    rng = random.Random(ctx.seed)
    h4 = ctx.h4
    f = h4.field
    n = h4.dim

    def rand_func():
        m = Matrix.zeros(f, n, n)
        for i in range(n):
            for j in range(n):
                m.data[i][j] = f.from_int(rng.randint(-4, 4))
        return m

    ok = True
    for _ in range(3):
        a, b, c = rand_func(), rand_func(), rand_func()
        lhs = convolve2(h4, convolve2(h4, a, b), c)
        rhs = convolve2(h4, a, convolve2(h4, b, c))
        if lhs != rhs:
            ok = False
            break
    rep.add("convolution_associative_random", ok)
    g = rand_func()
    rep.add("convolution_unit_random",
            convolve2(h4, g, eps_eps(h4)) == g
            and convolve2(h4, eps_eps(h4), g) == g)

    mreg = ctx.regular(1)
    uo = ctx.unit_obj().module
    s1 = ctx.sigma(1)
    sm = sigma_module(s1, mreg)
    su = sigma_module(s1, uo)
    hom = yd_hom_basis(mreg, uo)
    ok = True
    ok_nat = True
    eta_mu, _ = eta(s1, mreg, uo)
    eta_uu, _ = eta(s1, uo, uo)
    from .linalg import mat_mul
    for _ in range(3):
        fmap = random_yd_map(rng, mreg, uo, hom)
        # Lemma 2.1(b): the same matrix intertwines the σ̲ structures
        if not is_yd_map(YdMap(sm, su, fmap.matrix)).ok:
            ok = False
        # naturality of η in the first slot against f⊗id
        kron = _kron(fmap.matrix, Matrix.identity(f, uo.dim))
        lhs = mat_mul(kron, eta_uu)
        rhs = mat_mul(eta_mu, kron)
        if lhs != rhs:
            ok_nat = False
    rep.add("sigma_functoriality_random_maps", ok)
    rep.add("eta_naturality_random_maps", ok_nat)
    return rep


CRITERIA = [
    ("01_h4_validity", criterion_01_h4_validity),
    ("02_cocycle_family", criterion_02_cocycle_family),
    ("03_dual_family", criterion_03_dual_family),
    ("04_deformation_roundtrips", criterion_04_roundtrips),
    ("05_cqt_qt_deformation", criterion_05_cqt_qt_deformation),
    ("06_braided_squares", criterion_06_braided_square),
    ("07_cor24_induced_action", criterion_07_cor24_action),
    ("08_coboundary_zeta", criterion_08_coboundary_zeta),
    ("09_azumaya_invariance", criterion_09_azumaya),
    ("10_section3_witnesses", criterion_10_section3_witnesses),
    ("11_coinvariants_wedge", criterion_11_coinvariants_wedge),
    ("12_unit_deformation", criterion_12_unit_deformation),
    ("13_galois_stability", criterion_13_galois_stability),
    ("14_thm315_centralizer", criterion_14_thm315),
    ("15_determinism", criterion_15_determinism),
    ("16_randomized_invariants", extra_randomized_invariants),
]


def run_suite(field=QQ, t_values=T_DEFAULT, seed=0, progress=None):
    """Run every criterion on one SuiteContext, through its report memo;
    returns (overall CheckReport, detail dict)."""
    ctx = SuiteContext(field, t_values, seed)
    overall = CheckReport()
    details = {}
    for name, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            rep = ctx.report(name, fn)
            status = rep.ok
            detail = "%d checks" % len(rep.checks)
            bad = rep.first_failure()
            if bad is not None:
                detail += "; first failure: %s" % bad.name
        except Exception as exc:
            rep = CheckReport()
            rep.add("exception", False, None, "%s: %s"
                    % (type(exc).__name__, exc))
            status = False
            detail = "exception: %s" % exc
        ms = (time.perf_counter() - t0) * 1000.0
        overall.add_check(Check(name, "pass" if status else "fail",
                                None, detail, ms))
        details[name] = rep
        if progress is not None:
            progress(name, status, ms)
    return overall, details


def suite_json(overall, details, field, t_values, seed):
    """Deterministic (timing-free) JSON document of a suite run."""
    return {
        "schema": "hopflab-report/1",
        "field": field.spec(),
        "t_values": list(t_values),
        "seed": seed,
        "summary": overall.to_json(),
        "criteria": {name: rep.to_json() for name, rep in
                     sorted(details.items())},
    }
