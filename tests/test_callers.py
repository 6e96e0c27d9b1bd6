"""Every function and class in src/csieve has a caller in the package, no
module of it imports another module's private name, and each module
imports only the modules below it in one layer order.

Code that only tests call belongs in the tests, as a reference the package
is compared with.  A definition passes when the package refers to it
outside its own body, when the benchmark's tracer wraps it, or when the
allowlist below names it with its reason."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "csieve"
PERFBENCH = PACKAGE.parent.parent / "perfbench"

LAYERS = ("words", "qpoly", "actions", "formulas", "insertion", "subsets", "sweeps", "cli")

ALLOWED = {
    "power_image": "phi of a power; the sweep of the power structure will call it",
    "shift_bijection": "the Wagon-Wilf shift; its sweep will call it",
    "rotate_global": "the one-subset form of global_action's step",
    "mbs": "the statistic's public form, for subsets in any order",
    "sum_prime": "the public Sum' and the tests' reference; the verifiers shift Sum's tally",
    "_make": "the NamedTuple hook that _replace calls",
}


def definitions(tree: ast.Module):
    """(name, node) for each module-level function or class and each
    method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, ast.FunctionDef)
                        and not (member.name.startswith("__") and member.name.endswith("__"))):
                    yield member.name, member


def references(node: ast.AST) -> Counter:
    """How often each name or attribute name is used under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def uncalled(allowed) -> list[str]:
    """module.name of each definition the package does not refer to
    outside its own body, that the tracer does not wrap and that
    `allowed` does not name."""
    import tracing
    traced = {attribute for _, _, attribute, _ in tracing._targets()}
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = sum((references(tree) for tree in trees.values()), Counter())
    return [f"{module}.{name}" for module, tree in trees.items()
            for name, node in definitions(tree)
            if name not in traced and name not in allowed
            and used[name] == references(node)[name]]


def test_every_definition_has_a_caller(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    assert uncalled(ALLOWED) == []


def test_every_allowed_name_is_a_definition_without_a_caller(monkeypatch):
    # an entry whose name gained a caller, or lost its definition, is stale
    monkeypatch.syspath_prepend(str(PERFBENCH))
    assert {name.rsplit(".", 1)[1] for name in uncalled({})} == set(ALLOWED)


def test_no_module_imports_another_modules_private_name():
    # a name with a leading underscore belongs to its module: code that
    # needs it from outside lives beside it, or the name is public
    private = [f"{path.stem}:{node.lineno} {alias.name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level >= 1
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_each_module_imports_only_the_modules_before_it():
    # the layers stack in one order, so no import cycle can form; a new
    # module has to take its place in LAYERS
    assert {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"} == set(LAYERS)
    later = []
    for position, name in enumerate(LAYERS):
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                imported = [node.module] if node.module else [a.name for a in node.names]
                later += [f"{name}:{node.lineno} {module}" for module in imported
                          if module not in LAYERS[:position]]
    assert later == []
