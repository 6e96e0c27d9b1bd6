"""Every function and class in src/csieve has a caller in the package, no
module of it imports another module's private name, each module imports
only the modules below it in one layer order, and each theorem verifier
takes its instance and only the sharing arguments allowed below.

Code that only tests call belongs in the tests, as a reference the package
is compared with.  A definition passes when the package refers to it
outside its own body, when the benchmark's tracer wraps it, or when the
allowlist below names it with its reason."""

import ast
import inspect
from collections import Counter
from pathlib import Path

from csieve import sweeps

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


# The optional arguments through which a sweep hands a verifier work it
# shares between instances, each with the reason the verifier's own path
# for one instance is not a memoized table of the whole content or (n, k).
SHARING = {
    ("verify_formula_vs_oracle", "closed"):
        "closed_forms walks the delta tree once per content; one instance folds "
        "its own factors, less work than walking every delta",
    ("period_g_check", "tilde"):
        "the same walk; period-g has no cap, so one instance walks no other delta",
    ("verify_multisubset_refinement", "carrier"):
        "one pass per (n, d, k) buckets every profile; a table of every "
        "k-multisubset would go past one profile's cap",
    ("verify_subset_star", "carrier"):
        "one pass per (n, d, k) buckets every profile; a table of every "
        "k-subset would go past one profile's cap",
}


def test_each_verifier_takes_its_instance_and_only_the_allowed_sharing_arguments():
    # the instance parameters come first, in the theorem's order and
    # without defaults; every other parameter is an allowed sharing
    # argument that defaults to None, so a new one cannot come in unlisted
    sharing = set()
    for name, theorem in sweeps.THEOREMS.items():
        verify = theorem.verify
        parameters = list(inspect.signature(verify).parameters.values())
        instance, rest = parameters[:len(theorem.params)], parameters[len(theorem.params):]
        assert tuple(p.name for p in instance) == theorem.params, name
        assert all(p.default is inspect.Parameter.empty for p in instance), name
        assert all(p.default is None for p in rest), name
        sharing |= {(verify.__name__, p.name) for p in rest}
    assert sharing == set(SHARING)
