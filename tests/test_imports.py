"""Import hygiene: every name a module imports is used there or re-exported, and every exported name exists."""

import ast
import importlib
from pathlib import Path

import pytest

import cansol

SRC = Path(cansol.__file__).resolve().parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")

# bindings kept unused on purpose: the benchmark's tracer patches them by
# module, and its tests pin them
TRACED_BINDINGS = {("canonical", "christoffel"), ("harnack", "inverse_metric")}


def parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def imported_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set:
    """Names read anywhere in the module, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for field in ("annotation", "returns"):
            ann = getattr(node, field, None)
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name)}
    return names


def exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used_or_exported(module):
    tree = parse(module)
    kept = {name for mod, name in TRACED_BINDINGS if mod == module}
    unused = imported_names(tree) - used_names(tree) - exported_names(tree) - kept
    assert not unused, f"cansol.{module} imports {sorted(unused)} and never uses them"


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_is_defined(module):
    # a stale ``__all__`` entry would otherwise fail only where a caller reads it by name
    mod = importlib.import_module(f"cansol.{module}")
    stale = sorted(name for name in exported_names(parse(module)) if not hasattr(mod, name))
    assert not stale, f"cansol.{module}.__all__ names {stale}, which the module does not define"


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_no_private_name_is_exported(module):
    # the ``_``-private cores trust their input; the benchmark's tracer times what ``__all__`` lists
    private = sorted(name for name in exported_names(parse(module)) if name.startswith("_"))
    assert not private, f"cansol.{module}.__all__ names the private {private}"


def test_the_traced_bindings_are_imports_that_nothing_else_uses():
    # an entry that is no longer needed goes from TRACED_BINDINGS
    for module, name in TRACED_BINDINGS:
        tree = parse(module)
        assert name in imported_names(tree) and name not in used_names(tree) | exported_names(tree)


def called_names(node: ast.AST) -> set:
    return {n.func.id for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


def test_one_door_checks_both_times_and_points():
    # a (point, time) pair is checked by ``geometry._door`` alone, so every entry checks it in one order
    both = sorted(
        f"{module}.{node.name}"
        for module in MODULES
        for node in ast.walk(parse(module))
        if isinstance(node, ast.FunctionDef) and {"_time_errors", "_point_errors"} <= called_names(node)
    )
    assert both == ["geometry._door"]
    for module in MODULES + ["__init__"]:
        tree = parse(module)
        names = used_names(tree) | imported_names(tree) | {
            n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert "_pairs" not in names, f"cansol.{module} still names _pairs"


def test_reports_lay_out_and_format_floats_in_one_place():
    # one renderer: the recursive ``_render`` is gone, and one function formats every float,
    # so no fast path stands beside a slow one
    functions = [n for n in ast.walk(parse("reports")) if isinstance(n, ast.FunctionDef)]
    assert "_render" not in {f.name for f in functions}
    formats = [
        f.name for f in functions
        if any(isinstance(n, ast.Attribute) and n.attr == "__repr__" and isinstance(n.value, ast.Name)
               and n.value.id == "float" for n in ast.walk(f))
    ]
    assert formats == ["render"]
