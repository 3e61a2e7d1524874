#!/usr/bin/env python3
"""Run the full verification suite and write the deterministic JSON report.

    python3 scripts/run_suite.py --out report.json
    python3 scripts/run_suite.py --field Fp:7 --t-values -1,0,2
"""

import argparse
import json
import sys
import time

from hopflab.cli import int_list
from hopflab.fields import field_from_spec
from hopflab.suite import T_DEFAULT, run_suite, suite_json


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--field", default="Q")
    ap.add_argument("--t-values", dest="t_values", type=int_list,
                    default=T_DEFAULT)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="write the JSON report here")
    args = ap.parse_args()

    field = field_from_spec(args.field)

    t0 = time.time()
    overall, details = run_suite(
        field, args.t_values, args.seed,
        progress=lambda name, ok, ms: print(
            "%s  %s (%.0f ms)" % ("PASS" if ok else "FAIL", name, ms)))
    print("total %.1f s; %d criteria, %d failed"
          % (time.time() - t0, len(overall.checks),
             len(overall.failures())))
    if args.out:
        doc = suite_json(overall, details, field, args.t_values, args.seed)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print("report written to", args.out)
    return 0 if overall.ok else 1


if __name__ == "__main__":
    sys.exit(main())
