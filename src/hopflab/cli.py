"""Command-line front end.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 input error,
141 (128 + SIGPIPE, as the shell reports a writer killed by it) when the
reader of stdout went away before the output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .fields import FieldError, field_from_spec
from .linalg import DimensionError
from .report import CheckReport, VerificationError
from . import catalog as cat
from . import io_json
from .hopf import verify_hopf_axioms
from .twist import (deform, deform_dual, verify_two_cocycle,
                    verify_dual_cocycle, is_lazy, one_cocycle_problem)
from .quasitriangular import verify_cqt, verify_qt
from .yd import YdAlgebra, azumaya_check, verify_yd, verify_yd_algebra
from .galois import (bimodule_actions, build_hr, galois_maps,
                     verify_bimodule, verify_braided_hopf, wedge)
from .suite import T_DEFAULT, run_suite, suite_json


def _load_host(args, doc=None):
    """Resolve the host Hopf algebra from --host (file or catalog name) or
    the document's "host" catalog name, over --field, else the document's
    "field", else ℚ; a --host file must be over the field either names.
    A catalog name is exactly h4, kc2 or k, in any case: a deformed host
    such as "H4^s" is not H₄ and needs --host FILE."""
    spec = getattr(args, "field", None) or (doc or {}).get("field")
    field = field_from_spec("Q" if spec is None else spec)
    ref = getattr(args, "host", None)
    if ref is None and doc is not None:
        ref = doc.get("host")
    if ref is None:
        raise io_json.InputError("no host given (use --host)")
    if not isinstance(ref, str):
        raise io_json.InputError("host must be a file or catalog name, got "
                                 "%r" % (ref,))
    if ref.endswith(".json"):
        host = io_json.hopf_from_json(io_json.load_document(ref))
        if spec is not None and host.field != field:
            raise io_json.InputError("--host file is over %s, not %s"
                                     % (host.field.spec(), field.spec()))
        return host
    name = ref.lower()
    if name == "k":
        return cat.dim1_hopf(field)
    name_map = {"h4": cat.sweedler_h4, "kc2": cat.group_algebra_c2}
    if name in name_map:
        return name_map[name](field, verify=False)
    raise io_json.InputError("unknown host %r (the catalog hosts are h4, kc2 "
                             "and k; use --host FILE)" % ref)


def int_list(text):
    """argparse type of a comma-separated list of integers, e.g. -1,0,2."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers, got %r" % text) from None


def _emit(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def _finish(report, args):
    if getattr(args, "json", False):
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def _one_cocycle_checks(mu):
    problem = one_cocycle_problem(mu.host, mu.mu, mu.mu_inv)
    rep = CheckReport()
    rep.add("one_cocycle_invariants", problem is None, None, problem or "")
    return rep


# The verifier of each document kind that validate, check-* and check-yd run.
VERIFIERS = {"hopf": verify_hopf_axioms, "cocycle": verify_two_cocycle,
             "dual_cocycle": verify_dual_cocycle, "cqt": verify_cqt,
             "qt": verify_qt, "one_cocycle": _one_cocycle_checks,
             "yd_module": verify_yd, "yd_algebra": verify_yd_algebra}


def cmd_validate(args):
    doc = io_json.load_document(args.file)
    kind = doc.get("kind", "hopf")
    if kind == "hopf":
        obj = io_json.hopf_from_json(doc, strict=False)
    else:
        host = _load_host(args, doc)
        if kind in ("yd_module", "yd_algebra"):
            obj = io_json.yd_from_json(doc, host)
        elif kind in ("cocycle", "dual_cocycle", "cqt", "qt", "one_cocycle"):
            obj = io_json.functional_from_json(doc, host)
        else:
            raise io_json.InputError("unknown kind %r" % kind)
    return _finish(VERIFIERS[kind](obj), args)


def cmd_deform(args):
    h = io_json.hopf_from_json(io_json.load_document(args.hopf))
    if args.cocycle:
        doc = io_json.load_document(args.cocycle)
        if doc.get("kind") != "cocycle":
            raise io_json.InputError("--cocycle file must have kind=cocycle")
        c = io_json.functional_from_json(doc, h)
        verify_two_cocycle(c).require("cocycle")
        out = deform(c)
        verify_hopf_axioms(out).require("deform")
    elif args.dual_cocycle:
        doc = io_json.load_document(args.dual_cocycle)
        if doc.get("kind") != "dual_cocycle":
            raise io_json.InputError(
                "--dual-cocycle file must have kind=dual_cocycle")
        d = io_json.functional_from_json(doc, h)
        verify_dual_cocycle(d).require("dual cocycle")
        out = deform_dual(d)
        verify_hopf_axioms(out).require("deform_dual")
    else:
        raise io_json.InputError("deform needs --cocycle or --dual-cocycle")
    _emit(io_json.hopf_to_json(out))
    return 0


def _check_functional(args, want_kind, lazy_fn=None):
    doc = io_json.load_document(args.file)
    if doc.get("kind") != want_kind:
        raise io_json.InputError("expected kind=%s" % want_kind)
    host = _load_host(args, doc)
    obj = io_json.functional_from_json(doc, host)
    rep = VERIFIERS[want_kind](obj)
    if lazy_fn is not None and rep.ok:
        rep.add("lazy", lazy_fn(obj))
    return _finish(rep, args)


def cmd_check_cocycle(args):
    return _check_functional(args, "cocycle", is_lazy)


def cmd_check_cqt(args):
    return _check_functional(args, "cqt")


def cmd_check_qt(args):
    return _check_functional(args, "qt")


def cmd_check_yd(args):
    doc = io_json.load_document(args.file)
    host = _load_host(args, doc)
    obj = io_json.yd_from_json(doc, host)     # only the two YD kinds pass
    return _finish(VERIFIERS[doc["kind"]](obj), args)


def cmd_azumaya(args):
    doc = io_json.load_document(args.file)
    host = _load_host(args, doc)
    obj = io_json.yd_from_json(doc, host)
    if not isinstance(obj, YdAlgebra):
        raise io_json.InputError("azumaya needs a yd_algebra document")
    rep = verify_yd_algebra(obj)
    if rep.ok:
        rep.merge(azumaya_check(obj))
    return _finish(rep, args)


def _load_cqt(args, host):
    doc = io_json.load_document(args.cqt)
    if doc.get("kind") != "cqt":
        raise io_json.InputError("--cqt file must have kind=cqt")
    c = io_json.functional_from_json(doc, host)
    verify_cqt(c).require("cqt structure")
    return c


def cmd_wedge(args):
    doc_m = io_json.load_document(args.m)
    host = _load_host(args, doc_m)
    c = _load_cqt(args, host)
    ma = io_json.yd_from_json(doc_m, host)
    mb = io_json.yd_from_json(io_json.load_document(args.n), host)
    if isinstance(ma, YdAlgebra):
        ma = ma.module
    if isinstance(mb, YdAlgebra):
        mb = mb.module
    verify_yd(ma).require("wedge input M")
    verify_yd(mb).require("wedge input N")
    sub, wmod = wedge(c, ma, mb)
    rep = verify_yd(wmod).require("wedge module")
    rep.add("wedge_dimension", True, None, "dim %d" % sub.dim)
    out = {"wedge_dim": sub.dim,
           "basis": [[host.field.fmt(x) for x in v] for v in sub.vectors],
           "module": io_json.yd_module_to_json(wmod),
           "checks": rep.to_json()}
    _emit(out)
    return 0


def cmd_galois(args):
    doc = io_json.load_document(args.file)
    host = _load_host(args, doc)
    c = _load_cqt(args, host)
    alg = io_json.yd_from_json(doc, host)
    if not isinstance(alg, YdAlgebra):
        raise io_json.InputError("galois needs a yd_algebra document")
    verify_yd_algebra(alg).require("galois input")
    bh = build_hr(c)
    verify_braided_hopf(bh).require("braided Hopf algebra H_R")
    b = bimodule_actions(bh, alg.module)
    verify_bimodule(bh, b).require("H_R-bimodule")
    rep = galois_maps(bh, b, alg)
    return _finish(rep, args)


def cmd_suite(args):
    field = field_from_spec(args.field)

    def progress(name, ok, ms):
        if not args.json:
            print("%s  %s (%.0f ms)" % ("PASS" if ok else "FAIL", name, ms))
            sys.stdout.flush()

    overall, details = run_suite(field, args.t_values, args.seed,
                                 progress=progress)
    if args.json:
        print(json.dumps(suite_json(overall, details, field, args.t_values,
                                    args.seed),
                         indent=2, sort_keys=True))
    else:
        n_fail = len(overall.failures())
        print("seed=%d field=%s t_values=%s" % (args.seed, field.spec(),
                                                list(args.t_values)))
        print("%d criteria, %d failed" % (len(overall.checks), n_fail))
    return 0 if overall.ok else 1


def cmd_catalog(args):
    if args.action == "list":
        for name in cat.catalog_names():
            print(name)
        return 0
    if args.name is None:
        raise io_json.InputError("catalog export needs an entry name; "
                                 "`hopflab catalog list` prints them")
    if args.name not in cat.catalog_names():
        raise io_json.InputError("no catalog entry named %r; `hopflab "
                                 "catalog list` prints the names" % args.name)
    field = field_from_spec(args.field)
    entry = cat.get_entry(args.name, field, args.param)
    _emit(io_json.to_json_of(entry.payload))
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="hopflab",
        description="Exact checks for Hopf algebra deformations, "
                    "Yetter-Drinfeld modules and braided Galois objects.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--host", help="host Hopf algebra: file or "
                                       "catalog name")
        sp.add_argument("--field", help="Q or Fp:<p>; default: the "
                        "document's field, else Q")
        sp.add_argument("--json", action="store_true",
                        help="machine-readable report")

    sp = sub.add_parser("validate", help="run the type's verifier")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("deform", help="emit H^σ or H_θ as JSON")
    sp.add_argument("hopf")
    sp.add_argument("--cocycle")
    sp.add_argument("--dual-cocycle", dest="dual_cocycle")
    sp.set_defaults(fn=cmd_deform)

    for name, fn in (("check-cocycle", cmd_check_cocycle),
                     ("check-cqt", cmd_check_cqt),
                     ("check-qt", cmd_check_qt),
                     ("check-yd", cmd_check_yd),
                     ("azumaya", cmd_azumaya)):
        sp = sub.add_parser(name)
        sp.add_argument("file")
        common(sp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("wedge", help="generalized cotensor M∧N")
    sp.add_argument("m")
    sp.add_argument("n")
    sp.add_argument("--cqt", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_wedge)

    sp = sub.add_parser("galois", help="𝓗_R*-Galois decision")
    sp.add_argument("file")
    sp.add_argument("--cqt", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_galois)

    sp = sub.add_parser("suite", help="run all acceptance criteria")
    sp.add_argument("--field", default="Q")
    sp.add_argument("--t-values", dest="t_values", type=int_list,
                    default=T_DEFAULT)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_suite)

    sp = sub.add_parser("catalog", help="list or export built-in entries")
    sp.add_argument("action", choices=["list", "export"])
    sp.add_argument("name", nargs="?")
    sp.add_argument("--param", type=int)
    sp.add_argument("--field", default="Q")
    sp.set_defaults(fn=cmd_catalog)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # `hopflab suite | head -1`: stdout's reader is gone.  Send what is
        # still buffered to devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (io_json.InputError, FieldError, DimensionError, KeyError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except VerificationError as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
