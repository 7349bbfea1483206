"""Module boundaries of the package: each decision stays inside the module
that owns it, so no module reaches for a sibling's private names."""

import ast
import dataclasses
import inspect
import pathlib

import xalpwb
from xalpwb.reductions import REDUCTIONS, ReductionArtifact
from xalpwb.verify import FIXTURES

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


def _calls(node, name: str) -> bool:
    """Whether node is a call of name(...) or self.name(...)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return (func.attr == name and isinstance(func.value, ast.Name)
                and func.value.id == "self")
    return isinstance(func, ast.Name) and func.id == name


def _self_callers(source: str, module: str) -> list[str]:
    """'module.outer.name' for every function that calls itself by name, as
    name(...) or, in a method, as self.name(...)."""
    found = []
    todo = [(ast.parse(source), module)]
    while todo:
        node, prefix = todo.pop()
        for child in ast.iter_child_nodes(node):
            here = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                here = f"{prefix}.{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    _calls(call, child.name) for call in ast.walk(child)):
                found.append(here)
            todo.append((child, here))
    return sorted(found)


def test_self_call_scan_sees_nested_functions_and_methods():
    source = ("def outer():\n"
              "    def walk(n):\n        return walk(n - 1) if n else 0\n"
              "    return walk(3)\n"
              "class Table:\n"
              "    def grow(self, d):\n        return self.grow(d - 1) if d else d\n"
              "    def read(self):\n        return self.grow(1)\n"
              "def flat(xs):\n    return [x for x in xs]\n")
    assert _self_callers(source, "m") == ["m.Table.grow", "m.outer.walk"]


def test_recursion_stays_where_its_depth_is_bounded():
    """Deep inputs must not raise RecursionError, so every walk runs on an
    explicit stack except these: the altstack search, whose depth is the
    tree-size budget (a known defect, on ROADMAP), and the balanced meter's
    meter, whose depth is logarithmic in the tree's size."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _self_callers(path.read_text(encoding="utf-8"), path.stem)
    assert found == ["machines._balanced_co_meter.meter",
                     "machines.eval_alternating_as_stack.search"]


def _top_level_callers(source: str, name: str) -> list[str]:
    """The module-level functions and classes whose body calls name(...) at
    any depth."""
    return sorted(node.name for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and any(_calls(call, name) for call in ast.walk(node)))


def test_top_level_caller_scan_sees_nested_calls():
    source = ("def outer():\n    def inner(p):\n        return step(p)\n    return inner\n"
              "class Walk:\n    def go(self):\n        return step(1)\n"
              "def other():\n    return stepper(2)\n")
    assert _top_level_callers(source, "step") == ["Walk", "outer"]


def test_one_step_rule_reads_the_transition_table():
    """_step alone says what a stack-free configuration does next; the
    stack search and the stack-guard-free closure of stackalt are the only
    other readers of the transition table."""
    source = (PACKAGE / "machines.py").read_text(encoding="utf-8")
    readers = ["_overapprox_parts", "_stack_search", "_step"]
    assert _top_level_callers(source, "_applicable") == readers
    assert _top_level_callers(source, "_apply") == readers


def test_a_reduction_takes_only_its_source():
    # a decomposition travels inside its instance, never beside it
    takes = {name: list(inspect.signature(fn).parameters)
             for name, fn in {**REDUCTIONS, **FIXTURES}.items()}
    assert {name: len(params) for name, params in takes.items()} == dict.fromkeys(takes, 1)
    assert [f.name for f in dataclasses.fields(ReductionArtifact)] == ["target", "lift"]
