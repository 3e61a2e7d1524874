"""Every public top-level function and class of hopflab has a caller in
src/hopflab outside its own definition, or is on ALLOWED with a reason.

A reference is a name or an attribute with that identifier in any other
top-level statement of any module, read with ast; an attribute of the same
name on an unrelated object also counts, so the test errs toward passing.
"""

import ast
import pathlib

import hopflab

SRC = pathlib.Path(hopflab.__file__).parent

ALLOWED = {
    "catalog_entries": "read by perfbench/workloads.py",
    "theta_module": "a span group of perfbench/spans.py",
    "verify_braided_functor": "a span group of perfbench/spans.py",
    "hopf_map_checks": "reserved for the Taft deformations (ROADMAP item 5)",
    "compose_cocycles": "reserved for the BQ group map (ROADMAP item 11)",
    "in_span": "a span group of perfbench/spans.py",
    "verify_theta_braided": "θ̲'s single-pair braided square, tests only",
    "comodule_galois": "the public form of _comodule_galois, which "
                       "SuiteContext.galois memoizes for criteria 13 and 14",
}


def referenced(node):
    """The identifiers that node reads as names or attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_public_name_has_a_src_caller():
    statements = [stmt for path in sorted(SRC.glob("*.py")) for stmt in
                  ast.parse(path.read_text(encoding="utf-8")).body]
    uses = [referenced(stmt) for stmt in statements]
    dead = []
    for i, stmt in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                or stmt.name.startswith("_"):
            continue
        if not any(stmt.name in used for j, used in enumerate(uses)
                   if j != i):
            dead.append(stmt.name)
    # an allowed name that gains a caller leaves the list
    assert sorted(dead) == sorted(ALLOWED), dead
