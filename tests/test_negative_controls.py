"""Negative controls: a one-entry corruption makes a verifier fail, and the
failing checks report exactly these witnesses.

Each case copies a valid structure, adds 1 to one entry and compares the
full {check name: witness} map of the failures.  The witnesses pin the
search order of every check: nested-loop order over basis tuples, and for
sparse sides the first differing key of set(lhs) | set(rhs).
"""

import re

import pytest

from hopflab import catalog as cat
from hopflab.fields import QQ
from hopflab.galois import (BimoduleActions, BraidedHopf, bimodule_actions,
                            build_hr, comodule_galois, galois_maps,
                            mu_action_and_pi, verify_bimodule,
                            verify_braided_hopf, wedge)
from hopflab.hopf import hopf_map_checks, verify_hopf_axioms
from hopflab.linalg import Matrix
from hopflab.quasitriangular import (CqtStructure, QtStructure, verify_cqt,
                                     verify_qt)
from hopflab.report import VerificationError
from hopflab.twist import (DualCocycle, TwoCocycle, dual_cocycle,
                           verify_dual_cocycle, verify_two_cocycle)
from hopflab.yd import (YdAlgebra, YdMap, YdModule, azumaya_check, is_yd_map,
                        sigma_module, theta_module, verify_theta_braided,
                        verify_yd, verify_yd_algebra)
from reference import bumped, hopf_with


@pytest.fixture(scope="module")
def fx(h4, r1, s1, mreg, unit_obj):
    bh = build_hr(r1)
    bim = bimodule_actions(bh, mreg)
    assert verify_braided_hopf(bh).ok and verify_bimodule(bh, bim).ok
    return {"h4": h4, "r1": r1, "s1": s1, "mreg": mreg, "unit_obj": unit_obj,
            "theta": cat.theta_t(h4, 1), "qt": cat.qt_t(h4, 1), "bh": bh,
            "bim": bim, "end": cat.end_regular(r1)}


def hopf_mult(fx):
    h = fx["h4"]
    return verify_hopf_axioms(
        hopf_with(h, mult=bumped(h.mult, (0, 0, 0))))


def hopf_comult(fx):
    h = fx["h4"]
    return verify_hopf_axioms(
        hopf_with(h, comult=bumped(h.comult, (2, 2, 0))))


def hopf_unit(fx):
    h = fx["h4"]
    return verify_hopf_axioms(hopf_with(h, unit=bumped(h.unit, (0,))))


def hopf_counit(fx):
    h = fx["h4"]
    return verify_hopf_axioms(hopf_with(h, counit=bumped(h.counit, (2,))))


def map_entry(fx):
    h = fx["h4"]
    return hopf_map_checks(h, h, bumped(Matrix.identity(QQ, 4), (1, 1)))


def map_offdiagonal(fx):
    h = fx["h4"]
    return hopf_map_checks(h, h, bumped(Matrix.identity(QQ, 4), (2, 3)))


def cocycle_entry(fx):
    s = fx["s1"]
    return verify_two_cocycle(
        TwoCocycle(s.host, bumped(s.sigma, (1, 1)), s.sigma_inv))


def cocycle_inverse_entry(fx):
    s = fx["s1"]
    return verify_two_cocycle(
        TwoCocycle(s.host, s.sigma, bumped(s.sigma_inv, (2, 3))))


def dual_cocycle_entry(fx):
    d = fx["theta"]
    return verify_dual_cocycle(
        DualCocycle(d.host, bumped(d.theta, (1, 1)), d.theta_inv))


def cqt_entry(fx):
    c = fx["r1"]
    return verify_cqt(CqtStructure(c.host, bumped(c.r, (0, 1)), c.r_inv))


def cqt_diagonal(fx):
    c = fx["r1"]
    return verify_cqt(CqtStructure(c.host, bumped(c.r, (1, 1)), c.r_inv))


def qt_entry(fx):
    q = fx["qt"]
    return verify_qt(QtStructure(q.host, bumped(q.rr, (1, 1)), q.rr_inv))


def qt_offdiagonal(fx):
    q = fx["qt"]
    return verify_qt(QtStructure(q.host, bumped(q.rr, (2, 3)), q.rr_inv))


def theta_braided_entry(fx):
    # θ₁ + e_1⊗e_h is invertible but no dual cocycle.  The square, checked
    # as σ_θ's on I*, reg*, still commutes; η and Φ are no YD maps.
    d = dual_cocycle(fx["h4"], bumped(fx["theta"].theta, (0, 2)))
    return verify_theta_braided(d, fx["mreg"], fx["unit_obj"].module)


def yd_action(fx):
    mod = fx["mreg"]
    return verify_yd(YdModule(mod.host, mod.dim,
                              bumped(mod.action, (3, 0, 0)),
                              mod.coaction))


def yd_coaction(fx):
    mod = fx["mreg"]
    return verify_yd(YdModule(mod.host, mod.dim, mod.action,
                              bumped(mod.coaction, (3, 0, 3))))


def yd_coaction_counit(fx):
    mod = fx["mreg"]
    return verify_yd(YdModule(mod.host, mod.dim, mod.action,
                              bumped(mod.coaction, (2, 2, 0))))


def yd_algebra_mult(fx):
    alg = fx["unit_obj"]
    return verify_yd_algebra(
        YdAlgebra(alg.module, bumped(alg.mult, (2, 2, 0)), alg.unit))


def yd_algebra_mult_unit_stage(fx):
    alg = fx["unit_obj"]
    return verify_yd_algebra(
        YdAlgebra(alg.module, bumped(alg.mult, (1, 2, 3)), alg.unit))


def yd_algebra_unit(fx):
    alg = fx["unit_obj"]
    return verify_yd_algebra(
        YdAlgebra(alg.module, alg.mult, bumped(alg.unit, (0,))))


def yd_map_entry(fx):
    mod = fx["mreg"]
    ident = Matrix.identity(QQ, mod.dim)
    return is_yd_map(YdMap(mod, mod, bumped(ident, (3, 2))))


def yd_map_first_row(fx):
    mod = fx["mreg"]
    ident = Matrix.identity(QQ, mod.dim)
    return is_yd_map(YdMap(mod, mod, bumped(ident, (0, 1))))


def braided_antipode_entry(fx):
    bh = fx["bh"]
    return verify_braided_hopf(BraidedHopf(
        bh.cqt, bh.underlying, bumped(bh.braided_antipode, (2, 3))))


def bimodule_left(fx):
    b = fx["bim"]
    return verify_bimodule(fx["bh"], BimoduleActions(
        b.module, bumped(b.left_hr, (2, 1, 3)), b.right_hr, b.act2))


def bimodule_left_unit(fx):
    b = fx["bim"]
    return verify_bimodule(fx["bh"], BimoduleActions(
        b.module, bumped(b.left_hr, (0, 2, 0)), b.right_hr, b.act2))


def bimodule_right(fx):
    b = fx["bim"]
    return verify_bimodule(fx["bh"], BimoduleActions(
        b.module, b.left_hr, bumped(b.right_hr, (1, 0, 0)), b.act2))


def galois_regular_mult(fx):
    alg = cat.regular_galois_algebra(fx["h4"])
    return comodule_galois(
        YdAlgebra(alg.module, bumped(alg.mult, (0, 0, 0)), alg.unit))


def galois_unit_object_mult(fx):
    alg = fx["unit_obj"]
    bim = bimodule_actions(fx["bh"], alg.module)
    verify_bimodule(fx["bh"], bim).require("bimodule_actions")
    return galois_maps(fx["bh"], bim,
                       YdAlgebra(alg.module, bumped(alg.mult, (0, 1, 1)),
                                 alg.unit))


def mu_pi_mult_keeps_pi(fx):
    # π(A) is still a YD algebra; only A's own checks see the corruption
    e = fx["end"]
    return mu_action_and_pi(
        YdAlgebra(e.module, bumped(e.mult, (1, 2, 6)), e.unit))[1]


def azumaya_mult(fx):
    e = fx["end"]
    return azumaya_check(
        YdAlgebra(e.module, bumped(e.mult, (7, 13, 15)), e.unit))


def azumaya_coaction(fx):
    # ρ(e_8) gains e_0⊗h, which makes F (and G) singular
    e = fx["end"]
    mod = e.module
    return azumaya_check(YdAlgebra(
        YdModule(mod.host, mod.dim, mod.action,
                 bumped(mod.coaction, (8, 0, 2))), e.mult, e.unit))


def mu_pi_mult(fx):
    e = fx["end"]
    return mu_action_and_pi(
        YdAlgebra(e.module, bumped(e.mult, (1, 6, 0)), e.unit))[1]


def mu_pi_coaction(fx):
    e = fx["end"]
    mod = e.module
    return mu_action_and_pi(YdAlgebra(
        YdModule(mod.host, mod.dim, mod.action,
                 bumped(mod.coaction, (2, 8, 1))), e.mult, e.unit))[1]


CASES = [
    (hopf_mult, {"associativity": (0, 0, 1), "unit": (0,),
                 "comult_algebra_map": (0, 0, 0, 0),
                 "counit_algebra_map": (0, 0), "antipode": (0,)}),
    (hopf_comult, {"coassociativity": (2, 2, 1, 0), "counit": (2,),
                   "comult_algebra_map": (1, 2, 3, 1), "antipode": (2,)}),
    (hopf_unit, {"unit": (0,), "comult_algebra_map": (0, 0),
                 "counit_algebra_map": (), "antipode": (0,)}),
    (hopf_counit, {"counit": (2,), "counit_algebra_map": (1, 2),
                   "antipode": (2,)}),
    (map_entry, {"map_mult": (1, 1), "map_comult": (1,),
                 "map_counit": (1,)}),
    (map_offdiagonal, {"map_mult": (1, 2), "map_comult": (2,),
                       "map_antipode": None}),
    (cocycle_entry, {"convolution_inverse": None,
                     "cocycle_identity": (1, 2, 3),
                     "mixed_identity": (1, 0, 1),
                     "antipode_pairing": (1,)}),
    (cocycle_inverse_entry, {"convolution_inverse": None,
                             "mixed_identity": (2, 0, 3),
                             "inverse_cocycle_identity": (1, 2, 3)}),
    (dual_cocycle_entry, {"dual_pentagon": (0, 0, 1),
                          "counit_normalization": None, "invertible": None}),
    (cqt_entry, {"CQT1": (1,), "invertible": None, "CQT2": (0, 1, 1),
                 "CQT3": (1, 0, 0), "CQT4": (0, 2), "CQT4'": (0, 2),
                 "CQT4''": (0, 2)}),
    (cqt_diagonal, {"invertible": None, "CQT2": (1, 1, 1),
                    "CQT3": (1, 1, 1), "CQT4": (1, 2), "CQT4'": (1, 2),
                    "CQT4''": (1, 2)}),
    (qt_entry, {"QT1": (0, 1, 0), "QT2": None, "QT3": (0, 1, 0),
                "QT4": (2,)}),
    (qt_offdiagonal, {"QT1": (2, 0, 2), "QT3": (2, 1, 3)}),
    (theta_braided_entry, {"eta_h_linear": (0, 2),
                           "phi_sigma_h_linear": (0, 2)}),
    (yd_action, {"module_axioms": (1, 2, 0),
                 "yd_compatibility": (3, 0, 0, 1),
                 "yd_compatibility_sinv_form": (3, 0, 0, 1)}),
    (yd_coaction, {"comodule_axioms": (3, 0, 0, 3),
                   "yd_compatibility": (1, 3, 0, 2),
                   "yd_compatibility_sinv_form": (1, 3, 0, 3)}),
    (yd_coaction_counit, {"comodule_axioms": (2,),
                          "yd_compatibility": (2, 2, 0, 1),
                          "yd_compatibility_sinv_form": (2, 2, 0, 1)}),
    (yd_algebra_mult, {"algebra_axioms": (2, 0, 2),
                       "module_algebra": (1, 2, 2),
                       "comodule_algebra": (0, 2, 0, 2)}),
    (yd_algebra_mult_unit_stage, {"algebra_axioms": (2,),
                                  "module_algebra": (1, 0, 3),
                                  "comodule_algebra": (1, 0, 3, 3)}),
    (yd_algebra_unit, {"algebra_axioms": (0,), "module_algebra": (1,),
                       "comodule_algebra": ()}),
    (yd_map_entry, {"h_linear": (1, 3), "h_colinear": (3, 0, 2)}),
    (yd_map_first_row, {"h_linear": (1, 0), "h_colinear": (0, 1, 0)}),
    (braided_antipode_entry, {"braided_antipode": (2,)}),
    (bimodule_left, {"left_action_for_star": (1, 2, 1)}),
    (bimodule_left_unit, {"left_action_for_star": (2,)}),
    (bimodule_right, {"right_action_for_star": (1, 1, 0)}),
    (galois_regular_mult, {"beta_relations_in_kernel": (0,),
                           "beta_kernel_is_relations": None,
                           "galois": None}),
    (galois_unit_object_mult, {"beta_r_surjective": None,
                               "beta_r_relations_in_kernel": (0,),
                               "beta_r_kernel_is_relations": None,
                               "beta_l_relations_in_kernel": (0,),
                               "beta_l_kernel_is_relations": None,
                               "right_galois": None, "left_galois": None,
                               "bigalois_object": None}),
    (mu_pi_mult, {"A_algebra_axioms": (0, 1, 6),
                  "A_module_algebra": (1, 1, 6),
                  "A_comodule_algebra": (1, 6, 0, 1),
                  "pi_module_axioms": (1, 2, 0),
                  "pi_yd_compatibility": (3, 0, 0, 1),
                  "pi_yd_compatibility_sinv_form": (3, 0, 0, 1),
                  "pi_module_algebra": (3, 1, 0)}),
    (mu_pi_coaction, {"A_comodule_axioms": (2,),
                      "A_comodule_algebra": (0, 2, 8, 1),
                      "pi_module_axioms": (1, 2, 3),
                      "pi_module_algebra": (2, 3, 3)}),
    (mu_pi_mult_keeps_pi, {"A_algebra_axioms": (1, 0, 2),
                           "A_module_algebra": (2, 1, 2),
                           "A_comodule_algebra": (1, 2, 4, 3)}),
    (azumaya_mult, {"F_algebra_map": (3, 4)}),
    (azumaya_coaction, {"F_bijective": None, "G_bijective": None,
                        "F_algebra_map": (0, 0), "is_azumaya": None}),
]


@pytest.mark.parametrize("corrupt, want", CASES,
                         ids=[c[0].__name__ for c in CASES])
def test_one_entry_corruption_witnesses(fx, corrupt, want):
    rep = corrupt(fx)
    assert {c.name: c.witness for c in rep.failures()} == want


@pytest.mark.parametrize("corrupt, family", [(azumaya_mult, "(i) "),
                                             (azumaya_coaction, "(ii) ")])
def test_azumaya_detail_names_the_failing_family(fx, corrupt, family):
    [check] = [c for c in corrupt(fx).failures() if c.name == "F_algebra_map"]
    assert check.detail.startswith(family)


# mu_action_and_pi raises where π(A) cannot be built.  mu_action_well_defined
# has no one-entry control: no ±1 change of one mult, coaction or unit entry
# of End(regular) that keeps it Galois makes ker β act on π(A) by nonzero.
# A coaction or unit change keeps the product associative, and then each
# relation acts on a ∈ π(A) by v_p·(x·a − a·x)·v_r = 0.
@pytest.mark.parametrize("entry, message", [
    ((1, 6, 5), "MU action leaves the centralizer"),
    ((0, 0, 0), "mu_action_and_pi requires a Galois input")])
def test_mu_action_corruption_raises(fx, entry, message):
    e = fx["end"]
    with pytest.raises(VerificationError, match="^%s$" % message):
        mu_action_and_pi(
            YdAlgebra(e.module, bumped(e.mult, entry), e.unit))


# Constructions that give an object in two displayed forms raise when the
# forms disagree.  The corrupted input is the regular YD module with 1 added
# to action[0, 0, 0], so its action no longer matches its coaction.

def bad_regular_module(fx):
    mod = fx["mreg"]
    return YdModule(mod.host, mod.dim, bumped(mod.action, (0, 0, 0)),
                    mod.coaction)


def witness_of(message):
    """The index tuple at the end of "... disagree at (i, j, k)"."""
    found = re.search(r"disagree at \(([\d, ]*)\)$", message)
    assert found, message
    return tuple(int(x) for x in found.group(1).split(","))


RAISING = {
    "sigma_module": ("twisted-action", (3, 2, 0), lambda fx, m: sigma_module(
        fx["s1"], m)),
    # θ̲(M) = (σ̲_θ(M*))*: σ̲_θ's witness (k, p, q) is ρ_θ's entry (p, q, k)
    "theta_module": ("twisted-action", (2, 2, 0), lambda fx, m: theta_module(
        fx["theta"], m)),
    "bimodule_actions": ("−▷", (2, 2, 0), lambda fx, m: bimodule_actions(
        fx["bh"], m)),
}


@pytest.mark.parametrize("what, want, build", RAISING.values(),
                         ids=RAISING.keys())
def test_displayed_forms_disagree(fx, what, want, build):
    with pytest.raises(VerificationError) as info:
        build(fx, bad_regular_module(fx))
    message = str(info.value)
    assert message.startswith("the two %s expressions disagree at " % what)
    assert witness_of(message) == want


def test_wedge_of_corrupted_module_is_not_closed(fx):
    with pytest.raises(VerificationError, match="wedge is not closed"):
        wedge(fx["r1"], bad_regular_module(fx), fx["mreg"])
