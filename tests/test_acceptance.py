"""Acceptance gate: every criterion runs exactly (no tolerances) and prints
one pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to see
the lines, or `hopflab suite` for the standalone report.
"""

import hashlib
import re

import pytest

from hopflab import cli, suite
from hopflab.fields import QQ
from hopflab.report import CheckReport, VerificationError
from hopflab.suite import (CRITERIA, SuiteContext,
                           criterion_10_section3_witnesses,
                           criterion_13_galois_stability)
from reference import count_calls


@pytest.fixture(scope="module")
def ctx():
    return SuiteContext(QQ, (-2, -1, 0, 1, 2, 3), seed=0)


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(ctx, name, fn):
    rep = fn(ctx)
    status = "PASS" if rep.ok else "FAIL"
    print("%s  %s (%d checks)" % (status, name, len(rep.checks)))
    if not rep.ok:
        print(rep.render_text())
    assert rep.ok, "criterion %s failed:\n%s" % (name, rep.render_text())


# sha256 of `hopflab suite --json --field F --seed 0`, copied from
# perfbench/reference.json: the report must stay byte-identical.
SUITE_SHA256 = {
    "Q": "bd46e6e740758990e554c61308dc1da695d6967955a7a404b8784a9f0adb88f3",
    "Fp:5": "54e3c4f955dd07341818292f611fe20ad9d5fe97b13918339781773723f0bb4f",
}


@pytest.mark.parametrize("field", sorted(SUITE_SHA256))
def test_suite_report_is_byte_identical(field, capsys):
    assert cli.main(["suite", "--json", "--field", field, "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_SHA256[field]


# criterion 13 passes when a verdict agrees across σ̲; these are the verdicts
# themselves (before, after) at seed 0, so a bug that breaks both sides of a
# comparison still turns red.
GALOIS_VERDICTS = {
    "lemma3_14_I": ("fail", "fail"),
    "lemma3_14_H_regular": ("pass", "pass"),
    "lemma3_14_End_regular": ("pass", "pass"),
    "prop3_10_I_right_galois": ("pass", "pass"),
    "prop3_10_I_left_galois": ("pass", "pass"),
    "prop3_10_I_bigalois_object": ("pass", "pass"),
    "prop3_10_H_regular_right_galois": ("pass", "pass"),
    "prop3_10_H_regular_left_galois": ("pass", "pass"),
    "prop3_10_H_regular_bigalois_object": ("pass", "pass"),
    "prop3_10_End_regular_right_galois": ("fail", "fail"),
    "prop3_10_End_regular_left_galois": ("fail", "fail"),
    "prop3_10_End_regular_bigalois_object": ("fail", "fail"),
}


def test_criterion_13_verdicts_are_pinned(ctx):
    rep = criterion_13_galois_stability(ctx)
    got = {c.name: tuple(re.findall(r"=(pass|fail)\b", c.detail))
           for c in rep.checks if c.name in GALOIS_VERDICTS}
    assert got == GALOIS_VERDICTS


def test_criterion_13_decides_each_galois_map_once(monkeypatch):
    """Thm 3.12's membership of σ̲I reads the Galois maps that Prop 3.10's
    loop decided for I: one bimodule_actions and one galois_maps call for
    each of the 3 algebras and their 3 σ̲ images, and one for I∧I."""
    maps = count_calls(monkeypatch, "galois_maps", "hopflab.galois")
    actions = count_calls(monkeypatch, "bimodule_actions", "hopflab.galois")
    ctx = SuiteContext(QQ, suite.T_DEFAULT, 0)
    assert criterion_13_galois_stability(ctx).ok
    assert len(maps) == 7 and len(actions) == 7


def test_criteria_13_and_14_decide_each_comodule_galois_once(monkeypatch):
    """Criterion 14's π(A) and π(σ̲A) read the comodule Galois decisions
    that criterion 13 made on End(regular) and σ̲₁End(regular), through
    SuiteContext.galois: one _comodule_galois call for each of the 3
    algebras and their 3 σ̲ images, and none in criterion 14."""
    calls = count_calls(monkeypatch, "_comodule_galois", "hopflab.galois")
    ctx = SuiteContext(QQ, suite.T_DEFAULT, 0)
    assert criterion_13_galois_stability(ctx).ok
    assert len(calls) == 6
    assert dict(CRITERIA)["14_thm315_centralizer"](ctx).ok
    assert len(calls) == 6
    assert [args[0] for args in calls[4:]] == [
        ctx.end_regular(), ctx.sigma_algebra(1, "End_regular")]


def test_suite_pass_builds_each_live_content_once(monkeypatch):
    """One seed-0 F₅ pass builds at most 164 sparse tables and 134 lifted
    row tables (484 and 387 before tables were shared per content: most
    tensors of a pass repeat a live tensor's content, as H^σ = H for every
    lazy σ_t), and makes 75 conv_inverse2 solves (141 before known
    inverses were passed in).  A table is counted once however many
    Bilinears read it.  Three of the lifted tables are read since
    azumaya_check sums F and G lifted: the products of the H-opposites Ā
    of End(regular), σ̲₁(End(regular)) and σ̲₋₁(End(regular)), which were
    read only as sparse rows before (131 lifted tables then)."""
    from hopflab.fields import PrimeField
    from hopflab.linalg import Bilinear
    built = {"_table": [], "lifted_rows": []}

    def keep(name):
        inner = getattr(Bilinear, name)

        def kept(self):
            table = inner(self)
            built[name].append(table)       # kept, so no id is reused
            return table
        monkeypatch.setattr(Bilinear, name, kept)

    keep("_table")
    keep("lifted_rows")
    solves = count_calls(monkeypatch, "conv_inverse2", "hopflab.twist")
    overall, _ = suite.run_suite(PrimeField(5), suite.T_DEFAULT, 0)
    assert overall.ok

    def distinct(tables):
        return len({id(t) for t in tables})

    assert distinct(built["_table"]) <= 164
    assert distinct(built["lifted_rows"]) <= 134
    assert len(solves) == 75


@pytest.mark.parametrize("witness", ["chi_maps", "phi_psi_xi"])
def test_criterion_10_reports_failed_identities(monkeypatch, ctx, witness):
    def fails(*args):
        raise VerificationError("identity does not hold")

    monkeypatch.setattr(suite, witness, fails)
    rep = criterion_10_section3_witnesses(ctx)
    assert not rep.ok
    bad = rep.first_failure()
    assert bad.detail == "identity does not hold"


@pytest.mark.parametrize("builder", ["sigma", "end_regular"])
def test_criterion_10_counts_failed_builds_as_failed_checks(monkeypatch, ctx,
                                                            builder):
    """A VerificationError while building σ_t or End(regular) fails the
    checks that use it, and criterion 10 still returns its report."""
    def fails(*args):
        raise VerificationError("cannot build")

    monkeypatch.setattr(ctx, builder, fails)
    rep = criterion_10_section3_witnesses(ctx)
    assert {c.detail for c in rep.failures()} == {"cannot build"}
    assert {c.name for c in rep.failures()} == (
        {c.name for c in rep.checks} if builder == "sigma"
        else {"phi_psi_xi_sigma_2_on_End"})


@pytest.mark.parametrize("witness", ["chi_maps", "phi_psi_xi"])
def test_criterion_10_propagates_programming_errors(monkeypatch, ctx,
                                                     witness):
    def broken(*args):
        raise TypeError("not an identity")

    monkeypatch.setattr(suite, witness, broken)
    with pytest.raises(TypeError, match="not an identity"):
        criterion_10_section3_witnesses(ctx)


def test_report_status_needs_exactly_one_check():
    rep = CheckReport()
    rep.add("galois", False)
    rep.add("twice", True)
    rep.add("twice", True)
    assert rep.status("galois") == "fail"
    with pytest.raises(KeyError, match="0 checks named 'renamed'"):
        rep.status("renamed")
    with pytest.raises(KeyError, match="2 checks named 'twice'"):
        rep.status("twice")


def test_each_shared_instance_is_built_once(monkeypatch):
    """On one SuiteContext every criterion takes its instances from the
    context, which builds each (builder, arguments) pair at most once.
    Criterion 15 is left out: it builds two fresh contexts by design."""
    from collections import Counter
    calls = Counter()
    seen = []                   # keeps the arguments alive, so ids stay apart

    def count(owner, name):
        built = getattr(owner, name)

        def counted(*args, **kwargs):
            seen.append(args)
            calls[(name,) + tuple(a if isinstance(a, (int, str)) else id(a)
                                  for a in args)] += 1
            return built(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for name in ("sigma_t", "theta_t", "r_t", "qt_t", "cqt_c2", "qt_c2",
                 "regular_galois_algebra", "regular_comodule_module",
                 "trivial_module", "end_regular"):
        count(suite.cat, name)
    for name in ("build_hr", "sigma_algebra", "unit_object", "deform_cqt"):
        count(suite, name)
    ctx = SuiteContext(QQ, suite.T_DEFAULT, 0)
    for name, fn in CRITERIA:
        if name != "15_determinism":
            assert fn(ctx).ok, name
    assert calls[("sigma_t", id(ctx.h4), 6)] == 1
    # criterion 05 builds R_t^{σ_s} for every (t, s); 07 and 13 reuse them
    assert sum(n for key, n in calls.items()
               if key[0] == "deform_cqt") == len(suite.T_DEFAULT) ** 2
    assert {key: n for key, n in calls.items() if n > 1} == {}


def test_braided_squares_build_each_object_once(monkeypatch):
    """One criterion-06 run on a fresh context builds each σ̲ image once
    (3 modules and 9 tensor products under each of 6 cocycles), the dual of
    each of its 3 modules once, and one η per (cocycle, ordered pair).
    Φ_{M,N} and M⊗N do not depend on σ, so each is built once per ordered
    pair of each half (σ_t and θ_t) for its three cocycles: 18 of each,
    beside the 54 Φ_{σ̲M,σ̲N} and σ̲M⊗σ̲N."""
    from hopflab.hopf import dual_hopf
    sigmas = count_calls(monkeypatch, "sigma_module")
    etas = count_calls(monkeypatch, "eta")
    duals = count_calls(monkeypatch, "dual_module")
    tensors = count_calls(monkeypatch, "yd_tensor")
    braids = count_calls(monkeypatch, "_braid_terms")
    ctx = SuiteContext(QQ, suite.T_DEFAULT, 0)
    assert dict(CRITERIA)["06_braided_squares"](ctx).ok

    def distinct(calls):
        """The number of calls, when no two share their arguments."""
        keys = {tuple(map(id, args)) for args in calls}
        assert len(keys) == len(calls)
        return len(calls)

    assert distinct(sigmas) == 72 and distinct(etas) == 6 * 9
    # unit_object builds I as a dual; then one dual per module
    mods = [ctx.regular(1), ctx.unit_obj().module, ctx.trivial()]
    assert distinct(duals) == 4 and [args[0] for args in duals[1:]] == mods
    # the cocycles are the six of criterion 06: σ_t, and σ_θ for θ_t
    assert len({id(args[0]) for args in sigmas + etas}) == 6
    assert distinct(tensors) == 72 and distinct(braids) == 72
    # M⊗N lies on H₄ or H₄*, σ̲M⊗σ̲N on a deformed host
    hosts = (ctx.h4, dual_hopf(ctx.h4))
    for calls in (tensors, braids):
        on_mods = [args for args in calls
                   if any(args[0].host is h for h in hosts)]
        assert len(on_mods) == 18
        assert all(args[0].host is args[1].host for args in on_mods)


def test_sigma_images_are_verified():
    """SuiteContext.sigma_algebra requires verify_yd_algebra of each σ̲
    image it builds: σ̲₁ of End(regular) with 1 added to its mult entry
    (1, 2, 6) raises, naming the failing check and its witness."""
    from hopflab.linalg import Tensor
    from hopflab.yd import YdAlgebra
    ctx = SuiteContext(QQ, suite.T_DEFAULT, 0)
    e = ctx.end_regular()
    data = list(e.mult.data)
    data[(1 * 16 + 2) * 16 + 6] += 1
    bad = YdAlgebra(e.module, Tensor(QQ, e.mult.shape, data), e.unit)
    ctx = SuiteContext(QQ, suite.T_DEFAULT, 0)
    ctx.ALGEBRAS = dict(ctx.ALGEBRAS, End_regular=lambda c: bad)
    with pytest.raises(VerificationError, match=re.escape(
            "sigma_1(End_regular): check 'algebra_axioms' failed "
            "(witness=(0, 1, 2))")):
        ctx.sigma_algebra(1, "End_regular")
    assert ctx.sigma_algebra(1, "I").dim == 4
