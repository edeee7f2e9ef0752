import ast
import re
from pathlib import Path

import vertexmod

PACKAGE = Path(vertexmod.__file__).parent
ROOT = PACKAGE.parent.parent

# Package functions that only tests call, each with the reason it is kept.
# None today: the test-only references live in tests/reference.py.
TEST_ONLY: dict[str, str] = {}


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
