"""The benchmark tracer in perfbench/spans.py wraps named methods of the
library and counts scalar methods by code object; a refactor that moves one
of them breaks `perfbench/run.py --trace 1`.  This loads spans.py by path
and resolves every name it looks up."""

import importlib
import importlib.util
import inspect
import os
from types import SimpleNamespace

SPANS = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                     "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def hopflab_namespace(names):
    return SimpleNamespace(**{name: importlib.import_module("hopflab." + name)
                              for name in names})


def test_traced_methods_are_functions_in_their_class_body():
    spans = load_spans()
    hl = hopflab_namespace({mod for mod, _, _ in spans.TRACED_METHODS})
    for mod_name, cls_name, meth in spans.TRACED_METHODS:
        cls = getattr(getattr(hl, mod_name), cls_name)
        assert inspect.isfunction(cls.__dict__.get(meth)), \
            "%s.%s.%s" % (mod_name, cls_name, meth)


def test_span_groups_resolve_to_functions():
    """A renamed member would silently read 0 in its per-layer metric."""
    spans = load_spans()
    members = [m for group in spans.GROUPS.values() for m in group]
    hl = hopflab_namespace({m.split(".")[0] for m in members})
    for member in members:
        obj = hl
        for part in member.split("."):
            obj = getattr(obj, part, None)
        assert inspect.isfunction(obj), member


def test_scalar_code_keys_resolve():
    spans = load_spans()
    keys, homes = spans._scalar_code_keys(hopflab_namespace(["fields"]))
    assert sorted(set(keys.values())) == sorted(spans.SCALAR_OPS)
    assert all(os.path.isfile(h) for h in homes)
