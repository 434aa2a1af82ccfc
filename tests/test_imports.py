"""Import hygiene: every name a module imports is used there or re-exported."""

import ast
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


def test_the_traced_bindings_are_imports_that_nothing_else_uses():
    # an entry that is no longer needed goes from TRACED_BINDINGS
    for module, name in TRACED_BINDINGS:
        tree = parse(module)
        assert name in imported_names(tree) and name not in used_names(tree) | exported_names(tree)
