"""No test-only code in src/: every public function, class and method of the
package is reached from the program itself or from the benchmark harness,
and every parameter with a default is passed by one of their calls."""

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


# the console-script entry point: ``nearscat`` calls main() and tests pass argv
ENTRY_POINTS = {("cli", "main", "argv")}


def _defaulted(fn, method):
    """(name, position) of each parameter of ``fn`` with a default; position
    counts the arguments a call passes before it (None: keyword-only)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    shift = 1 if method else 0
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - shift
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _functions(tree):
    """(call name, function, is a method) for every def of a module, nested
    ones included; an ``__init__`` is called by its class's name."""
    for node in ast.walk(tree):
        body = node.body if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) else []
        for item in body:
            if isinstance(item, ast.FunctionDef):
                method = isinstance(node, ast.ClassDef) and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in item.decorator_list)
                name = node.name if item.name == "__init__" else item.name
                yield name, item, method


def _passes(call, param, position):
    """Whether ``call`` passes ``param`` by keyword, ``**`` or position."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_is_passed_by_the_program():
    trees = [_parse(path) for path in sorted(PACKAGE.glob("*.py"))
             + sorted((ROOT / "perfbench").glob("*.py"))]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    never = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, fn, method in _functions(_parse(path)):
            for param, position in _defaulted(fn, method):
                if (path.stem, fn.name, param) in ENTRY_POINTS:
                    continue
                if not any(_passes(c, param, position) for c in calls.get(name, [])):
                    never.append(f"{path.stem}.{fn.name}({param}=)")
    assert never == []
