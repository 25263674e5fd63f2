"""Every name a module of the package imports at module level is used in
that module, or exported through its ``__all__``."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "estateledger"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.Module) -> dict:
    """name -> line of each name bound by a module-level import."""
    names = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                names[name] = stmt.lineno
    return names


def _exported(tree: ast.Module) -> set:
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets)):
            return set(ast.literal_eval(stmt.value))
    return set()


def _unused(tree: ast.Module) -> dict:
    """name -> line of each imported name the module neither uses nor
    exports."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in _imported(tree).items()
            if name not in used and name not in _exported(tree)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    unused = _unused(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    assert _unused(ast.parse(
        "import os.path\nfrom json import dumps, loads\n"
        "from typing import Optional as Opt\n"
        "__all__ = ['loads']\nx: Opt[int] = 1\n")) == {"os": 1, "dumps": 2}
