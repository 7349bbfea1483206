"""Module boundaries of the package: each decision stays inside the module
that owns it, so no module reaches for a sibling's private names."""

import ast
import pathlib

import xalpwb

PACKAGE = pathlib.Path(xalpwb.__file__).parent


def _private_imports(source: str) -> list[str]:
    """'module.name' for every underscore name the source imports from a
    sibling module, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").split(".")[0] == "xalpwb"):
            found += [f"{node.module or '.'}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_private_import_scan_sees_nested_and_absolute_imports():
    source = ("from __future__ import annotations\n"
              "from .instances import Graph\n"
              "def f():\n    from .machines import _build, shaped_run\n"
              "from xalpwb.oracles import _guard\n")
    assert sorted(_private_imports(source)) == ["machines._build", "xalpwb.oracles._guard"]


def test_no_module_imports_a_private_name_of_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    offenders = {path.name: names for path in modules
                 if (names := _private_imports(path.read_text(encoding="utf-8")))}
    assert not offenders, offenders
