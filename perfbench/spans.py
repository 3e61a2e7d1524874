"""Spans around hopflab's public functions, recorded from outside `src/`.

`Tracer.install()` wraps every public top-level function of the traced
modules, plus the structure-tensor product methods, and rebinds each
wrapper in every `hopflab.*` namespace that imported the function by name
(`rank`, for example, is bound in `linalg`, `yd` and `suite`).  Methods are
wrapped on their classes.  `Tracer.uninstall()` restores the originals.

Each call becomes one span: name id, parent span id, start and end time.
Spans are kept in flat arrays for the whole run and written out at the end.
Self time is a span's duration minus the time its direct children cover;
busy time of a group of functions is the time covered by its outermost
spans, so a function calling another one of the same group is not counted
twice.

`profile_scalars()` runs a callable under cProfile and returns exact call
counts of the scalar methods (`Fraction` on ℚ, `FpElem` on F_p).
"""

from __future__ import annotations

import array
import cProfile
import functools
import inspect
import json
import os
import sys
import time

# Modules whose public top-level functions are wrapped, in stack order.
TRACED_MODULES = ("linalg", "hopf", "twist", "quasitriangular", "yd",
                  "galois", "catalog", "io_json", "cli")

# Structure-tensor products that are methods, wrapped on their classes.
TRACED_METHODS = (("hopf", "HopfAlgebra", "mul_vec"),
                  ("yd", "YdAlgebra", "mul_vec"),
                  ("yd", "YdModule", "act_vec"),
                  ("yd", "YdModule", "act_basis_vec"))

# Linear-algebra entry points that eliminate their whole input.
ELIMINATING = ("linalg.rank", "linalg.kernel_basis", "linalg.solve",
               "linalg.row_space_echelon")

# Function groups whose busy time is reported, by metric prefix.
GROUPS = {
    "linalg.rank": ("linalg.rank",),
    "linalg.kernel_basis": ("linalg.kernel_basis",),
    "linalg.solve": ("linalg.solve",),
    "linalg.mat_mul": ("linalg.mat_mul",),
    "linalg.span": ("linalg.row_space_echelon", "linalg.same_span",
                    "linalg.in_span"),
    "hopf.mul_vec": ("hopf.HopfAlgebra.mul_vec",),
    "yd.mul_vec": ("yd.YdAlgebra.mul_vec",),
    "yd.act_vec": ("yd.YdModule.act_vec", "yd.YdModule.act_basis_vec"),
    "twist.convolve2": ("twist.convolve2",),
    "twist.hh_mul": ("twist.hh_mul",),
    "yd.azumaya_check": ("yd.azumaya_check",),
    "yd.sigma_module": ("yd.sigma_module",),
    "yd.theta_module": ("yd.theta_module",),
    "yd.verify_braided_functor": ("yd.verify_braided_functor",),
    "galois.galois_maps": ("galois.galois_maps",),
}


def _nonzeros(rows):
    return sum(1 for row in rows for x in row if x)


class Tracer:
    def __init__(self, hl):
        self.hl = hl
        self.names = []                 # name id -> span name
        self._name_ids = {}
        self.parent = array.array("q")
        self.name = array.array("q")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        self._stack = [-1]
        self._restore = []
        self.counters = {}
        self.passes = []                # (first span, end span, counters)

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, span_name, fn, hook):
        nid = self.name_id(span_name)
        parent, name, t0, t1 = self.parent, self.name, self.t0, self.t1
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(t0)
            parent.append(stack[-1])
            name.append(nid)
            t0.append(0.0)
            t1.append(0.0)
            if hook is not None:
                hook(sid, args)
            stack.append(sid)
            t0[sid] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1[sid] = clock()
                stack.pop()
        return wrapper

    def _hook_for(self, span_name):
        if span_name in ELIMINATING:
            return self._count_elimination
        if span_name == "io_json.load_document":
            return self._count_bytes_in
        if span_name == "cli.main":
            return self._name_subcommand
        return None

    def _count_elimination(self, sid, args):
        # Runs before the span's clock starts: the count costs the caller's
        # self time, not the eliminating function's.
        if len(args) == 1:                          # rank, kernel_basis
            m = args[0]
            cells, nnz = m.rows * m.cols, _nonzeros(m.data)
        elif len(args) == 2:                        # solve(m, b)
            m, b = args
            cells = m.rows * (m.cols + b.cols)
            nnz = _nonzeros(m.data) + _nonzeros(b.data)
        else:                                       # row_space_echelon
            vectors, dim = args[1], args[2]
            cells, nnz = len(vectors) * dim, _nonzeros(vectors)
        c = self.counters
        c["elim_cells"] = c.get("elim_cells", 0) + cells
        c["elim_nonzeros"] = c.get("elim_nonzeros", 0) + nnz

    def _count_bytes_in(self, sid, args):
        c = self.counters
        c["bytes_in"] = c.get("bytes_in", 0) + os.path.getsize(args[0])

    def _name_subcommand(self, sid, args):
        self.name[sid] = self.name_id("cli.main[%s]" % args[0][0])

    def install(self):
        hl = self.hl
        wrapped = {}                    # id(original) -> (original, wrapper)
        for mod_name in TRACED_MODULES:
            mod = getattr(hl, mod_name)
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                span = "%s.%s" % (mod_name, attr)
                wrapped[id(fn)] = (fn, self._wrap(span, fn,
                                                  self._hook_for(span)))
        for mod in hl.all_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for mod_name, cls_name, meth in TRACED_METHODS:
            cls = getattr(getattr(hl, mod_name), cls_name)
            fn = cls.__dict__[meth]
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(
                "%s.%s.%s" % (mod_name, cls_name, meth), fn, None))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def run_pass(self, fn):
        """Run fn() with spans on; returns its result."""
        first = len(self.t0)
        self.counters = {}
        self.install()
        try:
            return fn()
        finally:
            self.uninstall()
            self.passes.append((first, len(self.t0), self.counters))

    # -- aggregation --------------------------------------------------------

    def pass_summary(self, index):
        """Per-layer figures of one traced pass."""
        first, end, counters = self.passes[index]
        names = self.names
        module_of = [n.split(".")[0] for n in names]
        group_bits = {}
        group_names = list(GROUPS) + list(TRACED_MODULES)
        for bit, group in enumerate(group_names):
            members = GROUPS.get(group)
            for nid, n in enumerate(names):
                if (n in members) if members else module_of[nid] == group:
                    group_bits[nid] = group_bits.get(nid, 0) | (1 << bit)
        count = [0] * len(group_names)
        busy = [0.0] * len(group_names)
        self_by_module = dict.fromkeys(TRACED_MODULES, 0.0)
        parent, name, t0, t1 = self.parent, self.name, self.t0, self.t1
        inside = {}                         # span id -> groups of ancestors
        child_time = {}
        for sid in range(first, end):
            nid = name[sid]
            dur = t1[sid] - t0[sid]
            p = parent[sid]
            above = 0
            if p >= first:
                above = inside[p] | group_bits.get(name[p], 0)
                child_time[p] = child_time.get(p, 0.0) + dur
            inside[sid] = above
            bits = group_bits.get(nid, 0)
            bit = 0
            while bits >> bit:
                if bits >> bit & 1:
                    count[bit] += 1
                    if not above >> bit & 1:
                        busy[bit] += dur
                bit += 1
        for sid in range(first, end):
            mod = module_of[name[sid]]
            self_by_module[mod] = (self_by_module.get(mod, 0.0)
                                   + (t1[sid] - t0[sid])
                                   - child_time.get(sid, 0.0))
        out = {}
        for bit, group in enumerate(group_names):
            out[group + ".calls"] = count[bit]
            out[group + ".busy_s"] = busy[bit]
            if group in GROUPS:                 # e.g. linalg.rank_s
                out[group + "_s"] = busy[bit]
        for mod, s in self_by_module.items():
            out[mod + ".self_s"] = s
        cells = counters.get("elim_cells", 0)
        out["linalg.elim_cells"] = cells
        out["linalg.input_density"] = (counters.get("elim_nonzeros", 0)
                                       / cells if cells else 0.0)
        out["io_json.bytes_in"] = counters.get("bytes_in", 0)
        return out

    def durations(self, span_name):
        """Durations of every traced span with this name."""
        nid = self._name_ids.get(span_name)
        return [self.t1[sid] - self.t0[sid] for first, end, _ in self.passes
                for sid in range(first, end) if self.name[sid] == nid]

    def write(self, path, extra):
        """Spans as flat binary arrays next to a JSON index."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        for field in ("parent", "name", "t0", "t1"):
            with open("%s.%s.bin" % (path, field), "wb") as fh:
                getattr(self, field).tofile(fh)
        index = {"format": "one native-endian array per field: parent and "
                           "name int64, t0 and t1 float64 (perf_counter s)",
                 "names": self.names,
                 "passes": [[a, b] for a, b, _ in self.passes],
                 "spans": len(self.t0)}
        index.update(extra)
        with open(path + ".json", "w") as fh:
            json.dump(index, fh, indent=1, sort_keys=True)


# -- scalar operation counts ----------------------------------------------

SCALAR_OPS = {
    # op: (Fraction method, FpElem method)
    "bool": ("__bool__", "__bool__"),
    "mul": ("_mul", "__mul__"),
    "add": ("_add", "__add__"),
    "sub": ("_sub", "__sub__"),
    "div": ("_div", "__truediv__"),
    "new": ("__new__", "__init__"),
}


def _scalar_code_keys(hl):
    """cProfile keys of the counted scalar methods, and the scalar layer's
    source files: the rational type's module and hopflab/fields.py."""
    keys = {}
    homes = set()
    for pos, cls in enumerate((hl.fields._RAT, hl.fields.FpElem)):
        homes.add(os.path.abspath(inspect.getsourcefile(cls)))
        for op, methods in SCALAR_OPS.items():
            fn = cls.__dict__[methods[pos]]
            code = getattr(fn, "__func__", fn).__code__   # staticmethod
            keys[code.co_filename, code.co_firstlineno, code.co_name] = op
    return keys, homes


def profile_scalars(hl, fn):
    """Run fn() under cProfile; exact scalar call counts and self time.

    Counts add up both scalar types (a ℚ run still checks H₄ over F₅).
    Returns (result of fn, {op: calls}, self seconds of every function in
    the scalar layer's source files, as the profiler measured it).
    """
    keys, homes = _scalar_code_keys(hl)
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    prof.create_stats()
    calls = {op: 0 for op in SCALAR_OPS}
    self_s = 0.0
    for key, (_, ncalls, tottime, _, _) in prof.stats.items():
        op = keys.get(key)
        if op is not None:
            calls[op] += ncalls
        if os.path.abspath(key[0]) in homes:
            self_s += tottime
    return result, calls, self_s


def machine_facts(hl):
    rat = hl.fields._RAT
    return {"cores": os.cpu_count(), "python": sys.version.split()[0],
            "implementation": sys.implementation.name,
            "q_scalar_backend": "%s.%s" % (rat.__module__, rat.__name__),
            "fp_scalar_backend": "hopflab.fields.FpElem"}
