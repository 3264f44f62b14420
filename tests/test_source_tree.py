"""No test-only code in src/: every public function, class and method of the
package is reached from the program itself or from the benchmark harness."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nearscat"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(tree):
    """Public top-level functions and classes, and public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def _names(tree, skip=None, strings=False):
    """Names a tree refers to: identifiers, attributes, imported names and,
    with ``strings``, string constants; the subtree ``skip`` left out."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    bench = set().union(*(_names(_parse(path), strings=True)
                          for path in sorted((ROOT / "perfbench").glob("*.py"))))
    callers = {path: _names(tree) for path, tree in modules.items()
               if path.name != "__init__.py"}
    unreached = []
    for path, tree in modules.items():
        for node in _definitions(tree):
            elsewhere = set(bench)
            for other, names in callers.items():
                elsewhere |= _names(tree, skip=node) if other == path else names
            if node.name not in elsewhere:
                unreached.append(f"{path.stem}.{node.name}")
    assert unreached == []
