"""Pass/fail reports with witnesses, shared by every verifier, and the one
identity-checking loop that finds those witnesses.  Constructions that give
an object in two displayed forms check them with require_agree.

first_block_mismatch and first_lifted_mismatch are first_mismatch for
sides summed from lifted tables (fields.Field.lift): both sides of the
identity are at one positive scale, so each tests the coordinates of
their difference with field.nonzero, which reads only zero-ness, and
each gives the witness first_mismatch gives on the same identity written
with field elements."""

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


def first_block_mismatch(field, space, block, width):
    """first_mismatch for an identity decided one block of rows at a time.

    block(*idx) returns the block's lhs − rhs as one dict {p·width+q:
    lifted coefficient of row p, column q}, absent keys read as 0.  The
    witness is idx followed by the least row p holding a coefficient that
    field.nonzero finds nonzero: the witness of first_mismatch over
    (*space, rows), with each row's two sides compared as dense lists.
    """
    nonzero = field.nonzero
    for idx in product(*space):
        diff = block(*idx)
        if any(map(nonzero, diff.values())):
            return idx + (min(k for k, v in diff.items() if nonzero(v))
                          // width,)
    return None


def _key_tuple(k, widths):
    """The tuple (a, b, …) of the flat key k = (a·w₁ + b)·w₂ + … for the
    trailing widths (w₁, w₂, …)."""
    digits = []
    for w in reversed(widths):
        k, d = divmod(k, w)
        digits.append(d)
    digits.append(k)
    return tuple(reversed(digits))


def first_lifted_mismatch(field, space, sides, widths):
    """first_mismatch for dict sides keyed by tuples, summed lifted.

    sides(*idx) returns (lhs, rhs) as dicts {flat key: lifted
    coefficient}, the flat key of (a, b) being a·w + b for widths (w,) and
    that of (a, b, c) (a·w₁ + b)·w₂ + c for widths (w₁, w₂); each stands
    for a dict {tuple: coefficient} and is filled in the order that dict
    would be.  The witness is the one first_mismatch gives on those
    tuple-keyed dicts, reduced: idx followed by the first tuple of their
    key set whose coefficients differ.
    """
    red, nonzero = field.reduce, field.nonzero
    for idx in product(*space):
        lhs, rhs = sides(*idx)
        diff = dict(lhs)
        for k, v in rhs.items():
            diff[k] = diff.get(k, 0) - v
        if any(map(nonzero, diff.values())):
            return idx + first_mismatch((), lambda: tuple(
                {_key_tuple(k, widths): red(v, 1) for k, v in side.items()}
                for side in (lhs, rhs)))
    return None


def require_agree(what, space, sides):
    """Raise VerificationError("the two <what> expressions disagree at idx")
    at the first_mismatch of two displayed forms of one construction."""
    bad = first_mismatch(space, sides)
    if bad is not None:
        raise VerificationError(
            "the two %s expressions disagree at %r" % (what, bad))
