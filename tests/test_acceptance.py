"""Acceptance gate: every criterion runs exactly (no tolerances) and prints
one pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to see
the lines, or `hopflab suite` for the standalone report.
"""

import hashlib

import pytest

from hopflab import cli
from hopflab.fields import QQ
from hopflab.suite import CRITERIA, SuiteContext


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
