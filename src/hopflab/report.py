"""Pass/fail reports with witnesses, shared by every verifier."""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    status: str                      # "pass" | "fail" | "skipped"
    witness: tuple | None = None     # offending basis indices, if any
    detail: str = ""
    time_ms: float = 0.0

    @property
    def ok(self):
        return self.status != "fail"


@dataclass
class CheckReport:
    checks: list = field(default_factory=list)

    @property
    def ok(self):
        return bool(self.checks) and all(c.ok for c in self.checks)

    def add(self, name, passed, witness=None, detail=""):
        self.checks.append(Check(name, "pass" if passed else "fail",
                                 witness, detail))
        return passed

    def add_check(self, check):
        self.checks.append(check)

    def merge(self, other, prefix=""):
        for c in other.checks:
            self.checks.append(Check(prefix + c.name, c.status, c.witness,
                                     c.detail, c.time_ms))
        return self

    def failures(self):
        return [c for c in self.checks if c.status == "fail"]

    def first_failure(self):
        fails = self.failures()
        return fails[0] if fails else None

    def require(self, context=""):
        """Raise if any check failed; used where validity is a precondition."""
        bad = self.first_failure()
        if bad is not None:
            raise VerificationError(
                "%s: check %r failed (witness=%r) %s"
                % (context or "verification", bad.name, bad.witness,
                   bad.detail))
        return self

    def to_json(self, include_timing=False):
        """JSON-ready dict.  Timings are off by default so that reports are
        byte-reproducible across runs."""
        out = []
        for c in sorted(self.checks, key=lambda c: c.name):
            entry = {"name": c.name, "status": c.status,
                     "witness": list(c.witness) if c.witness is not None else None,
                     "detail": c.detail}
            if include_timing:
                entry["time_ms"] = c.time_ms
            out.append(entry)
        return {"ok": self.ok, "checks": out}

    def render_text(self, show_timing=True):
        lines = []
        for c in self.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[c.status]
            extra = ""
            if c.witness is not None:
                extra += " witness=%r" % (c.witness,)
            if c.detail:
                extra += " [%s]" % c.detail
            if show_timing and c.time_ms:
                extra += " (%.1f ms)" % c.time_ms
            lines.append("%s  %s%s" % (mark, c.name, extra))
        return "\n".join(lines)


class VerificationError(RuntimeError):
    """A structure failed a verification that its user required to pass."""


class timed_check:
    """Context manager adding one timed Check to a report."""

    def __init__(self, report, name):
        self.report = report
        self.name = name
        self.passed = False
        self.witness = None
        self.detail = ""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def set(self, passed, witness=None, detail=""):
        self.passed = passed
        self.witness = witness
        self.detail = detail

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return False
        ms = (time.perf_counter() - self.t0) * 1000.0
        self.report.add_check(Check(self.name,
                                    "pass" if self.passed else "fail",
                                    self.witness, self.detail, ms))
        return False

