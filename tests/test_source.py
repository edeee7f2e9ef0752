import ast
from pathlib import Path

import vertexmod

PACKAGE = Path(vertexmod.__file__).parent
ROOT = PACKAGE.parent.parent

# Package functions that only tests call, as "name" or "Class.name", each
# with the reason it is kept.  None today: the test-only references live in
# tests/reference.py.
TEST_ONLY: dict[str, str] = {}


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements; invariants must raise explicitly
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def _uses(tree: ast.AST) -> list[tuple[str, int, bool]]:
    """(name, line, is attribute) of every attribute read, name and import."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno, True))
        elif isinstance(node, ast.Name):
            out.append((node.id, node.lineno, False))
        elif isinstance(node, ast.alias):
            out.append((node.name, node.lineno, False))
    return out


def test_every_package_function_has_a_non_test_caller():
    # a method must be read as an attribute, and a module-level def or class
    # named, read as an attribute or imported, outside its own definition
    # somewhere in src/, scripts/ or perfbench/, unless it is listed in
    # TEST_ONLY; words in docstrings and comments do not count
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for d in ("src", "scripts", "perfbench") for path in sorted((ROOT / d).rglob("*.py"))}
    uses: dict[str, list[tuple[Path, int, bool]]] = {}
    for path, tree in trees.items():
        for name, line, attr in _uses(tree):
            uses.setdefault(name, []).append((path, line, attr))
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        body = trees[path].body
        defs = [(node, None) for node in body]
        defs += [(item, node.name) for node in body if isinstance(node, ast.ClassDef)
                 for item in node.body]
        for node, cls in defs:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any((attr or cls is None) and not (src == path and line in own)
                       for src, line, attr in uses.get(name, [])):
                unused.add(f"{cls}.{name}" if cls else name)
    assert unused - TEST_ONLY.keys() == set(), "called only from tests"
    assert TEST_ONLY.keys() - unused == set(), "listed in TEST_ONLY but called outside tests"
