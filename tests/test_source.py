import ast
import re
from pathlib import Path

import vertexmod

PACKAGE = Path(vertexmod.__file__).parent
ROOT = PACKAGE.parent.parent

# Package functions that only tests call, each kept as an independent
# reference or a documented helper.
TEST_ONLY = {
    "flip_corner": "corner-flip move on a vertex path, used to build test configurations",
    "is_empty": "emptiness of a configuration, a test convenience",
    "max_area_path": "the all-up-first staircase, used to build test configurations",
    "face_weight": "the weight of a face, the reference for face_of_weight",
    "vertex_val2": "doubled vertex value, the reference for vertex_of_val2",
    "loop_matrix": "the balanced loop operator as a matrix product, the Casimir reference",
    "path_poly_product": "edge polynomial product along a face path, the adjoint-identity reference",
    "as_rational": "exact rational value of a Radical, a reference conversion",
    "sqrt_rational": "principal square root of a rational, the reference for sqrt_value",
    "times_rational": "Radical times a rational, used by the Casimir reference ratio",
    "adjoint_matrix": "form adjoint of a generator, checked against the opposite generator",
    "check_sign_consistency": "brute-force path independence of the sign, criterion 9's oracle",
    "crossing_order": "one loop's crossing count by walking, the reference for order_support",
}


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements; invariants must raise explicitly
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_every_package_function_has_a_non_test_caller():
    # a def or class must be named outside its own definition somewhere in
    # src/, scripts/ or perfbench/, unless it is listed in TEST_ONLY
    sources = {path: path.read_text(encoding="utf-8").splitlines()
               for d in ("src", "scripts", "perfbench") for path in sorted((ROOT / d).rglob("*.py"))}
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse("\n".join(sources[path]), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            own = range(node.lineno - 1, node.end_lineno)
            if not any(word.search(line) for src, lines in sources.items()
                       for j, line in enumerate(lines) if not (src == path and j in own)):
                unused.add(name)
    assert unused - TEST_ONLY.keys() == set(), "called only from tests"
    assert TEST_ONLY.keys() - unused == set(), "listed in TEST_ONLY but called outside tests"
