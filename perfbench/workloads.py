"""The benchmark's workloads.

Every workload builds its inputs in `setup()` from the seed alone, runs
passes over them with `run_pass()`, and checks a pass's outputs with
`check_pass()`.  A pass returns its wall time and the latency of each unit
of output a user waits for: one criterion verdict of `hopflab suite`, or
one `hopflab` command.  Checks run outside the timed region, so a traced
run can check its passes after the tracer is removed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
import traceback

from taft import taft_algebra

HERE = os.path.dirname(os.path.abspath(__file__))


class Pass:
    def __init__(self, start, end, units, raw):
        self.start = start              # perf_counter at start and end
        self.end = end
        self.units = units              # [(label, start, end)]
        self.raw = raw                  # outputs, checked by check_pass

    @property
    def seconds(self):
        return self.end - self.start


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


# -- suite-q / suite-fp5 ----------------------------------------------------

class SuiteWorkload:
    """One full `run_suite` pass per operation, default t-values."""

    def __init__(self, field_spec, seed):
        self.field_spec = field_spec
        self.seed = seed
        self.digest = None              # sha256 of the first pass's report
        ref = load_reference()["suite_sha256"].get(field_spec, {})
        self.reference = ref.get(str(seed))

    def setup(self, hl):
        self.hl = hl
        self.field = hl.fields.field_from_spec(self.field_spec)
        self.t_values = hl.suite.T_DEFAULT
        # run_suite builds its own context; this one is built to time the
        # input construction that every suite run pays for.
        self.context = hl.suite.SuiteContext(self.field, self.t_values,
                                             self.seed)

    def run_pass(self):
        units = []
        criterion_ms = {}
        clock = time.perf_counter
        last = [0.0]

        def on_criterion(name, ok, ms):
            now = clock()
            units.append((name, last[0], now))
            last[0] = now
            criterion_ms[name] = ms

        last[0] = start = clock()
        overall, details = self.hl.suite.run_suite(
            self.field, self.t_values, self.seed, progress=on_criterion)
        return Pass(start, clock(), units, (overall, details, criterion_ms))

    def check_pass(self, p):
        """Returns (attempted, failed, problems); one pass is one operation."""
        overall, details, _ = p.raw
        suite = self.hl.suite
        problems = []
        names = [name for name, _ in suite.CRITERIA]
        if sorted(details) != sorted(names) or len(names) != 16:
            problems.append("expected the 16 criteria, got %d"
                            % len(details))
        if not overall.ok:
            problems.append("failed criteria: %s" % ", ".join(
                c.name for c in overall.failures()))
        doc = suite.suite_json(overall, details, self.field, self.t_values,
                               self.seed)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("report differs from the first pass's")
        if self.reference is not None and digest != self.reference:
            problems.append("report differs from the reference for seed %d"
                            % self.seed)
        return 1, int(bool(problems)), problems

    def layer_extras(self, p):
        """suite.<criterion>_s from run_suite's progress callback; the
        suite emits no documents."""
        extras = {"suite.%s_s" % name: ms / 1000.0
                  for name, ms in p.raw[2].items()}
        extras["io_json.bytes_out"] = 0
        return extras


# -- cli-mix ----------------------------------------------------------------

T_VALUES = (-2, -1, 0, 1, 2, 3)
SMALL_KINDS = ("validate", "check-cocycle", "check-cqt", "check-qt",
               "check-yd", "deform", "wedge", "galois")
SMALL_PER_KIND = 4          # 32 small commands per pass
# Mid-weight: `catalog export`.  Exports over F_5 take about half as long as
# over ℚ; fixing the share of each keeps p90 inside the ℚ exports.
EXPORT_FIELDS = ("Q", "Q", "Q", "Q", "Fp:5", "Fp:5")
TAFT_N = (3, 4, 6)          # heavy: validate T_n, dimensions 9, 16, 36
TAFT_P = 13


class Command:
    def __init__(self, argv, expected, check=None):
        self.argv = argv
        self.expected = expected        # exit code
        self.check = check              # check(stdout) -> problem or None


class CliMixWorkload:
    """A seeded list of `hopflab.cli.main(argv)` calls, made in-process.

    Per pass: 32 small checks (4 of each small subcommand), 6 catalog
    exports, 4 heavy commands (azumaya on End(regular), validate on
    T_3, T_4, T_6) and 3 one-entry corruptions that must exit 1.
    """

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    # setup ----------------------------------------------------------------

    def setup(self, hl):
        self.hl = hl
        rng = random.Random(self.seed)
        os.makedirs(self.workdir, exist_ok=True)
        self._entries = {}
        self.hosts = {}
        self.commands = []
        # `azumaya` and the exports use t = 1, the t of criterion 09: their
        # times depend on t (azumaya's by up to 25%), and p90 falls among
        # the exports.
        t_small = (1, rng.choice([t for t in T_VALUES if t != 1]))
        docs = {}
        for t in t_small:
            for name, doc in self._catalog_docs("Q", t).items():
                docs[name, t] = self._write("%s_t%d" % (name, t), doc)

        def small(kind):
            t = rng.choice(t_small)
            if kind == "validate":
                names = [n for n in hl.catalog.catalog_names()
                         if n != "end_regular"]
                return ["validate", docs[rng.choice(names), t]]
            if kind == "check-cocycle":
                return ["check-cocycle", docs["sigma_t", t]]
            if kind == "check-cqt":
                name = rng.choice(["r_t", "cqt_c2_minus", "cqt_c2_plus"])
                return ["check-cqt", docs[name, t]]
            if kind == "check-qt":
                return ["check-qt", docs[rng.choice(["qt_t", "qt_c2"]), t]]
            if kind == "check-yd":
                name = rng.choice(["yd_regular_r", "yd_trivial",
                                   "unit_object", "regular_galois_algebra"])
                return ["check-yd", docs[name, t]]
            if kind == "deform":
                if rng.random() < 0.5:
                    return ["deform", docs["h4", t], "--cocycle",
                            docs["sigma_t", t]]
                return ["deform", docs["h4", t], "--dual-cocycle",
                        docs["theta_t", t]]
            if kind == "wedge":
                return ["wedge", docs["unit_object", t],
                        docs["unit_object", t], "--cqt", docs["r_t", t]]
            return ["galois", docs["unit_object", t], "--cqt",
                    docs["r_t", t]]

        for kind in SMALL_KINDS:
            for _ in range(SMALL_PER_KIND):
                argv = small(kind)
                check = None
                if kind == "deform":
                    check = self._check_deform
                elif kind == "wedge":
                    check = self._check_wedge
                self.commands.append(Command(argv, 0, check))

        names = hl.catalog.catalog_names()
        for field in EXPORT_FIELDS:
            name = rng.choice(names)
            expected = self._catalog_docs(field, 1)[name]
            self.commands.append(Command(
                ["catalog", "export", name, "--param", "1", "--field", field],
                0, self._export_check(expected, field)))

        self.commands.append(Command(["azumaya", docs["end_regular", 1]], 0))
        tafts = {}
        for n in TAFT_N:
            h = taft_algebra(hl, n, TAFT_P)
            hl.hopf.verify_hopf_axioms(h).require("T_%d" % n)
            tafts[n] = hl.io_json.hopf_to_json(h)
            self.commands.append(Command(
                ["validate", self._write("taft%d" % n, tafts[n])], 0))

        self.commands += self._corruptions(rng, docs[("h4", t_small[0])],
                                           tafts[TAFT_N[0]],
                                           docs[("sigma_t", t_small[0])])
        rng.shuffle(self.commands)

    def _catalog_docs(self, field_spec, t):
        """Catalog documents, as `catalog export` writes them."""
        key = (field_spec, t)
        if key not in self._entries:
            hl = self.hl
            field = hl.fields.field_from_spec(field_spec)
            self._entries[key] = {
                e.name: hl.io_json.to_json_of(e.payload)
                for e in hl.catalog.catalog_entries(field, t)}
        return self._entries[key]

    def _write(self, stem, doc):
        path = os.path.join(self.workdir, stem + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def _load_file(self, path):
        with open(path) as fh:
            return json.load(fh)

    def _corruptions(self, rng, h4_path, taft_doc, sigma_path):
        """One-entry corruptions whose failure is certain, so exit code 1.

        - H₄: the coefficient of e_j in 1·e_j (unit axiom);
        - T_3: the counit of one basis element (counit axiom);
        - σ_t: σ(1, e_j), which normalization pins to ε(e_j).
        """
        out = []
        h4 = self._load_file(h4_path)
        j = rng.randrange(h4["dim"])
        for entry in h4["mult"]:
            if entry[:3] == [0, j, j]:
                entry[3] = rng.choice(["2", "-1", "1/2", "3"])
        out.append(Command(["validate", self._write("bad_h4", h4)], 1))

        doc = json.loads(json.dumps(taft_doc))
        j = rng.randrange(doc["dim"])
        old = int(doc["counit"][j])
        doc["counit"][j] = str((old + rng.randrange(1, TAFT_P)) % TAFT_P)
        out.append(Command(["validate", self._write("bad_taft", doc)], 1))

        sig = self._load_file(sigma_path)
        j = rng.randrange(4)
        counit = self._load_file(h4_path)["counit"]
        sig["entries"] = [e for e in sig["entries"] if e[:2] != [0, j]]
        bad = rng.choice([v for v in ("0", "1", "2", "-1")
                          if v != counit[j]])
        sig["entries"].append([0, j, bad])
        out.append(Command(["check-cocycle", self._write("bad_sigma", sig)],
                           1))
        return out

    # output checks ----------------------------------------------------------

    def _host(self, field_spec, name):
        key = (field_spec, name)
        if key not in self.hosts:
            cat = self.hl.catalog
            field = self.hl.fields.field_from_spec(field_spec)
            build = {"H4": cat.sweedler_h4, "kC2": cat.group_algebra_c2}
            self.hosts[key] = build[name](field, verify=False)
        return self.hosts[key]

    def _load_back(self, doc, field_spec):
        io_json = self.hl.io_json
        kind = doc.get("kind", "hopf")
        if kind == "hopf":
            return io_json.hopf_from_json(doc)
        host = self._host(field_spec, doc["host"])
        if kind in ("yd_module", "yd_algebra"):
            return io_json.yd_from_json(doc, host)
        return io_json.functional_from_json(doc, host)

    def _export_check(self, expected, field_spec):
        def check(stdout):
            doc = json.loads(stdout)
            if doc != expected:
                return "exported document differs from the catalog's"
            self._load_back(doc, field_spec)
            return None
        return check

    def _check_deform(self, stdout):
        self.hl.io_json.hopf_from_json(json.loads(stdout))
        return None

    def _check_wedge(self, stdout):
        out = json.loads(stdout)
        self.hl.io_json.yd_from_json(out["module"], self._host("Q", "H4"))
        if out["wedge_dim"] != out["module"]["dim"]:
            return "wedge_dim disagrees with the module"
        return None

    # passes -----------------------------------------------------------------

    def run_pass(self):
        main = self.hl.cli.main
        clock = time.perf_counter
        units = []
        raw = []
        start = clock()
        for cmd in self.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                t0 = clock()
                try:
                    code = main(list(cmd.argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception:       # a crash is a failed command
                    code = traceback.format_exc()
                t1 = clock()
            units.append((cmd.argv[0], t0, t1))
            raw.append((code, out.getvalue(), err.getvalue()))
        return Pass(start, clock(), units, raw)

    def check_pass(self, p):
        problems = []
        for cmd, (code, stdout, stderr) in zip(self.commands, p.raw):
            problem = None
            if code != cmd.expected:
                problem = "exit %r, expected %d; stderr: %s" % (
                    code, cmd.expected, stderr.strip()[-200:])
            elif cmd.check is not None:
                try:
                    problem = cmd.check(stdout)
                except Exception as exc:    # unreadable output
                    problem = "output does not load back: %r" % (exc,)
            if problem is not None:
                problems.append("%s: %s" % (" ".join(
                    os.path.basename(a) for a in cmd.argv), problem))
        return len(self.commands), len(problems), problems

    def layer_extras(self, p):
        """Bytes of the documents the pass's commands emitted; no suite."""
        extras = {"suite.%s_s" % name: 0.0
                  for name, _ in self.hl.suite.CRITERIA}
        extras["io_json.bytes_out"] = sum(
            len(stdout.encode()) for cmd, (_, stdout, _) in
            zip(self.commands, p.raw) if cmd.check is not None)
        return extras
