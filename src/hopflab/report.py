"""Pass/fail reports with witnesses, shared by every verifier, and the one
identity-checking loop that finds those witnesses.  Constructions that give
an object in two displayed forms check them with require_agree."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product


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

    def status(self, name):
        """The status of the one check called name; raises KeyError when
        no check or more than one has that name."""
        found = [c.status for c in self.checks if c.name == name]
        if len(found) != 1:
            raise KeyError("%d checks named %r" % (len(found), name))
        return found[0]

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

    def to_json(self):
        """JSON-ready dict.  Timings are left out so that reports are
        byte-reproducible across runs."""
        out = [{"name": c.name, "status": c.status,
                "witness": list(c.witness) if c.witness is not None else None,
                "detail": c.detail}
               for c in sorted(self.checks, key=lambda c: c.name)]
        return {"ok": self.ok, "checks": out}

    def render_text(self):
        """One line per check; a nonzero timing is shown."""
        lines = []
        for c in self.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[c.status]
            extra = ""
            if c.witness is not None:
                extra += " witness=%r" % (c.witness,)
            if c.detail:
                extra += " [%s]" % c.detail
            if c.time_ms:
                extra += " (%.1f ms)" % c.time_ms
            lines.append("%s  %s%s" % (mark, c.name, extra))
        return "\n".join(lines)


class VerificationError(RuntimeError):
    """A structure failed a verification that its user required to pass."""


def first_mismatch(space, sides):
    """The first index tuple at which the two sides of an identity differ,
    or None when they agree everywhere.

    space is a sequence of index ranges walked like nested for-loops
    (itertools.product order; an empty space is the one tuple ()), and
    sides(*idx) returns (lhs, rhs).  Dict sides are sparse coordinates with
    absent keys read as 0; their witness is idx followed by the first key of
    set(lhs) | set(rhs) whose coefficients differ.  The witness () is falsy,
    so staged checks are chained with `is None`.
    """
    for idx in product(*space):
        lhs, rhs = sides(*idx)
        if type(lhs) is dict:
            for key in set(lhs) | set(rhs):
                if lhs.get(key, 0) != rhs.get(key, 0):
                    return idx + key
        elif lhs != rhs:
            return idx
    return None


def require_agree(what, space, sides):
    """Raise VerificationError("the two <what> expressions disagree at idx")
    at the first_mismatch of two displayed forms of one construction."""
    bad = first_mismatch(space, sides)
    if bad is not None:
        raise VerificationError(
            "the two %s expressions disagree at %r" % (what, bad))
