"""No test-only code in src/: every public function, class and method of the
package is reached from the program itself or from the benchmark harness,
and every parameter with a default is passed by one of their calls.  No
dead private constants either: every private module-level name is read."""

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


def _private_assignments(tree):
    """(name, statement) for each private module-level name a tree assigns;
    dunders such as ``__all__`` are read by Python itself."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if name.id.startswith("_") and not name.id.startswith("__"):
                    yield name.id, node


def test_every_private_module_name_is_read():
    modules = {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    names = {path: _names(tree) for path, tree in modules.items()}
    unread = []
    for path, tree in modules.items():
        for name, node in _private_assignments(tree):
            elsewhere = _names(tree, skip=node).union(
                *(found for other, found in names.items() if other != path))
            if name not in elsewhere:
                unread.append(f"{path.stem}.{name}")
    assert unread == []


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


def test_no_repr_outside_error_messages():
    # numpy 2's repr of a scalar is ``np.float64(0.05)``, which no reader of
    # nearscat's headers or config text parses: numbers are written with
    # ``format``, and repr quotes values in error messages only
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        in_raise = {id(node) for stmt in ast.walk(tree) if isinstance(stmt, ast.Raise)
                    for node in ast.walk(stmt)}
        for node in ast.walk(tree):
            called = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "repr")
            converted = isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
            if (called or converted) and id(node) not in in_raise:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# np.random names that draw from a caller-held seeded generator; every other
# one (np.random.seed, np.random.normal, ...) reads or moves the global state
SEEDED_RNG = {"Generator", "PCG64", "SeedSequence", "default_rng"}


def _global_rng(tree):
    """(line, name) for each np.random name outside SEEDED_RNG that a tree
    uses, and each import of numpy's or the standard library's random module."""
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in ("np.random",
                                                                           "numpy.random"):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                              and node.module == "numpy"):
            names = [a.name for a in node.names if a.name in ("numpy.random", "random")]
        yield from ((node.lineno, name) for name in names if name not in SEEDED_RNG)


def test_no_global_rng():
    # a library call may not touch global state: the noise draws from
    # generators seeded per (seed, source), and nothing else is random
    caught = _global_rng(ast.parse(
        "import random\nfrom numpy import random\nimport numpy.random\n"
        "from numpy.random import default_rng, rand\nnp.random.seed(1)\n"
        "np.random.default_rng(1)\n"))
    assert sorted(caught) == [(1, "random"), (2, "random"), (3, "numpy.random"), (4, "rand"),
                              (5, "seed")]
    found = [f"{path.name}:{line} {name}" for path in sorted(PACKAGE.glob("*.py"))
             for line, name in _global_rng(_parse(path))]
    assert found == []
