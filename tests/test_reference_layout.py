"""The layout of the differential tests, read from their source: every
naive reference is defined in reference.py, no test module imports
another test module or a helper of conftest.py, and reference.py reads
none of the routes its references check."""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
REFERENCE_PREFIXES = ("dense_", "reference_", "closure_", "naive_")

# the routes under test: Bilinear's sparse and lifted tables and
# Field.lift, the word products and copowers of HopfAlgebra, twist.eval2,
# linalg's sums, products and eliminations, galois's subspaces and yd's
# H-opposite and generating sets
ROUTES = {"Bilinear", "bilinear", "lifted_rows", "lifted_terms",
          "flat_tables", "lifted_nonzeros", "lift", "copower",
          "lifted_copower", "copowers", "product", "word_table", "mul_vec",
          "act_vec", "act_basis_vec", "apply", "apply_basis", "eval2",
          "eval2_lifted", "linear_combination", "sparse_sum", "mat_mul",
          "are_inverse", "rank", "sparse_rank", "kernel_basis",
          "sparse_kernel", "solve", "sparse_solve", "mat_inverse", "_reduce",
          "_rref", "row_space_echelon", "same_span", "in_span",
          "Subspace", "_equalizer", "_coinvariant_space",
          "comodule_coinvariants", "_comodule_galois", "h_opposite",
          "_pushed_product", "generating_set"}
# the attributes through which a structure reads its tables
TABLES = {"mul", "delta", "antipodes", "act", "coact", "row", "terms"}


def tree(name):
    return ast.parse((TESTS / name).read_text(), filename=name)


def test_references_live_in_the_reference_module():
    misplaced = [(path.name, node.name)
                 for path in sorted(TESTS.glob("*.py"))
                 if path.name != "reference.py"
                 for node in tree(path.name).body
                 if isinstance(node, ast.FunctionDef)
                 and node.name.startswith(REFERENCE_PREFIXES)]
    assert misplaced == []


def test_no_test_module_imports_another():
    found = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(tree(path.name)):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.startswith("test_") or name == "conftest"]
    assert found == []


def test_references_read_no_route_they_check():
    imported, read = set(), set()
    for node in ast.walk(tree("reference.py")):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("hopflab"):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    assert imported & ROUTES == set()
    assert read & (ROUTES | TABLES) == set()
