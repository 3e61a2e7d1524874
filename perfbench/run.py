"""hopflab benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload suite-q --seed 0 --seconds 30 --trace 0

Workloads (see perfbench/README.md):
    suite-q    one full `run_suite` pass over ℚ per operation
    suite-fp5  the same over F_5
    cli-mix    a seeded list of in-process `hopflab` commands

One process, one thread, a closed loop with one client: the next pass starts
when the previous one has finished.  The run sets up its inputs several
times (the median is `setup_s`), then runs passes until `--seconds` is used
up (at least MIN_PASSES), checking the outputs of every pass.

--trace 0 prints the end-to-end metrics.  Their times are reference seconds
from probe.py, which corrects wall time for the host's speed at the moment
it was measured; the wall-clock values are printed on the line before the
result.  --trace 1 alternates untraced and
traced passes, then makes one pass under cProfile for exact scalar
operation counts, and prints the per-layer metrics; the spans are written
to .bench_out/ in the checkout.  The last line of stdout is the result
object; lines before it give sample counts and machine facts.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import spans
from probe import SpeedProbe
from workloads import CliMixWorkload, SuiteWorkload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("suite-q", "suite-fp5", "cli-mix")
SUITE_FIELDS = {"suite-q": "Q", "suite-fp5": "Fp:5"}
MODULES = ("fields", "report", "linalg", "hopf", "twist", "quasitriangular",
           "yd", "galois", "catalog", "io_json", "suite", "cli")
MIN_PASSES = 3
SETUP_REPEATS = {"suite-q": 15, "suite-fp5": 15, "cli-mix": 3}
CLI_SUBCOMMANDS = ("validate", "check-cocycle", "check-cqt", "check-qt",
                   "check-yd", "deform", "wedge", "galois", "catalog",
                   "azumaya")


class Hopflab:
    """A freshly imported set of hopflab modules, one attribute each."""

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "hopflab" or m.startswith("hopflab.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module("hopflab." + name))

    def all_modules(self):
        return [getattr(self, name) for name in MODULES]


def setup(name, seed, workdir):
    """Import hopflab and build the inputs SETUP_REPEATS times.

    Returns (modules, workload, [(start, end) of each repeat]); the modules
    and the inputs are those of the last repeat.
    """
    if name in SUITE_FIELDS:
        workload = SuiteWorkload(SUITE_FIELDS[name], seed)
    else:
        workload = CliMixWorkload(seed, workdir)
    intervals = []
    for _ in range(SETUP_REPEATS[name]):
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()            # drop the previous repeat's modules
        t0 = time.perf_counter()
        hl = Hopflab()
        workload.setup(hl)
        intervals.append((t0, time.perf_counter()))
    return hl, workload, intervals


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, workload, p):
        attempted, failed, problems = workload.check_pass(p)
        self.attempted += attempted
        self.failed += failed
        for problem in problems[:5]:
            print("check failed: %s" % problem, file=sys.stderr)


def run_untraced(workload, seconds, tally):
    passes = []
    start = time.perf_counter()
    while True:
        p = workload.run_pass()
        tally.add(workload, p)
        passes.append(p)
        elapsed = time.perf_counter() - start
        typical = statistics.median(q.seconds for q in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            return passes


def end_to_end(passes, setups, seconds):
    """End-to-end metrics, with `seconds(start, end)` as the clock.

    Every pass runs the same units in the same order.  A unit's latency is
    its median over the passes; p50 and p90 are taken over those medians,
    so a percentile that falls between two different units does not jump
    with the noise of single samples.
    """
    pass_s = [seconds(p.start, p.end) for p in passes]
    units = [statistics.median(seconds(a, b) for _, a, b in same)
             for same in zip(*(p.units for p in passes))]
    return {
        "setup_s": statistics.median(seconds(a, b) for a, b in setups),
        "suite_s": statistics.median(pass_s),
        "cmd_ms_p50": statistics.median(units) * 1000.0,
        "cmd_ms_p90": statistics.quantiles(units, n=10)[8] * 1000.0,
        "cmds_per_s": len(units) * len(passes) / sum(pass_s),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(hl, workload, seconds, tally, out_path):
    tracer = spans.Tracer(hl)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        p = workload.run_pass()
        plain.append(p)
        q = tracer.run_pass(workload.run_pass)
        traced.append(q)
        elapsed = time.perf_counter() - start
        if elapsed + p.seconds + q.seconds > seconds:
            break
    profiled, calls, scalar_self_s = spans.profile_scalars(
        hl, workload.run_pass)
    for p in plain + traced + [profiled]:
        tally.add(workload, p)

    summaries = [tracer.pass_summary(i) for i in range(len(traced))]
    for summary, q in zip(summaries, traced):
        summary.update(workload.layer_extras(q))
    layer = {k: statistics.median(s[k] for s in summaries)
             for k in summaries[0]}
    for sub in CLI_SUBCOMMANDS:
        durations = tracer.durations("cli.main[%s]" % sub)
        layer["cli.%s_ms_p50" % sub] = (statistics.median(durations) * 1000.0
                                        if durations else 0.0)
    for op, n in calls.items():
        layer["fields.%s_calls" % op] = n
    layer["fields.nonzero_ratio"] = (calls["mul"] / calls["bool"]
                                     if calls["bool"] else 0.0)
    layer["fields.self_s"] = scalar_self_s
    layer["trace.overhead_frac"] = (
        statistics.median(q.seconds for q in traced)
        / statistics.median(p.seconds for p in plain) - 1.0)
    tracer.write(out_path, {
        "scalar_calls": calls,
        "passes_untraced_s": [p.seconds for p in plain],
        "passes_traced_s": [q.seconds for q in traced]})
    return layer, {"passes_untraced": len(plain), "passes_traced": len(traced),
                   "passes_profiled": 1, "spans": len(tracer.t0)}


def declared_metrics(trace_on):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace_on else "end_to_end"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hopflab", "__init__.py")):
        print("error: no hopflab sources under %s; run from the root of a "
              "source checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".bench_work",
                           "%s-%d" % (args.workload, os.getpid()))
    tally = Tally()
    try:
        if args.trace:
            hl, workload, _ = setup(args.workload, args.seed, workdir)
            out_path = os.path.join(ROOT, ".bench_out", "trace-%s-seed%d"
                                    % (args.workload, args.seed))
            values, samples = run_traced(hl, workload, args.seconds, tally,
                                         out_path)
        else:
            with SpeedProbe() as speed:
                hl, workload, setups = setup(args.workload, args.seed,
                                             workdir)
                passes = run_untraced(workload, args.seconds, tally)
            values = end_to_end(passes, setups, speed.ref_seconds)
            wall = end_to_end(passes, setups, lambda a, b: b - a)
            samples = {"passes": len(passes),
                       "units_per_pass": len(passes[0].units),
                       "speed_samples": len(speed.took),
                       "wall": {k: v for k, v in wall.items()
                                if k != "peak_rss_mb"}}
        facts = spans.machine_facts(hl)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:             # another run is using it
            pass

    metrics = {}
    for m in declared_metrics(args.trace):
        if m["name"] not in values:
            print("error: metric %s was not measured" % m["name"],
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    samples["workload"] = args.workload
    samples["seed"] = args.seed
    samples["fail_frac"] = tally.failed / tally.attempted
    print(json.dumps({"samples": samples, "machine": facts}, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
