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


def test_one_exploration_per_machine_input():
    """The _step table of an input is walked in one place, whose record the
    machine keeps for alt, balanced, altstack and smallest_tree_shape; only
    stackalt's stack-guard-free closure walks the parts apart from it.  The
    costs and the smallest tree are built by their one reader, and the
    stack search runs only through the record."""
    source = (PACKAGE / "machines.py").read_text(encoding="utf-8")
    assert _top_level_callers(source, "_reach") == ["_exploration", "_overapprox_parts"]
    assert _top_level_callers(source, "_min_tree_costs") == ["_smallest_tree"]
    assert _top_level_callers(source, "_smallest_run") == ["_smallest_tree"]
    assert _top_level_callers(source, "_stack_search") == ["_searched"]


def test_a_reduction_takes_only_its_source():
    # a decomposition travels inside its instance, never beside it
    takes = {name: list(inspect.signature(fn).parameters)
             for name, fn in {**REDUCTIONS, **FIXTURES}.items()}
    assert {name: len(params) for name, params in takes.items()} == dict.fromkeys(takes, 1)
    assert [f.name for f in dataclasses.fields(ReductionArtifact)] == ["target", "lift"]


def _reads(node, name: str) -> bool:
    """Whether node is the name name or an attribute .name, read or called."""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def _top_level_readers(source: str, name: str) -> list[str]:
    """The module-level functions and classes whose body reads name, as a
    name or as an attribute of any object, at any depth."""
    return sorted(node.name for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and any(_reads(part, name) for part in ast.walk(node)))


def test_top_level_reader_scan_sees_attributes_and_aliases():
    source = ("def direct(inst):\n    return inst.cell_of_var(1)\n"
              "def alias(inst):\n    look = inst.cell_of_var\n    return look(2)\n"
              "def bare():\n    return cell_of_var(3)\n"
              "def other(inst):\n    return inst.cell_of(4)\n")
    assert _top_level_readers(source, "cell_of_var") == ["alias", "bare", "direct"]


_MAPPED = ("bags", "classes", "partition")


def _keyed_by(node, names: set[str]) -> bool:
    """Whether node stores into a map under one of names: d[v] = ...,
    d[v] op= ... or d.setdefault(v, ...)."""
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(t, ast.Subscript) and isinstance(t.slice, ast.Name)
                   and t.slice.id in names for t in targets)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setdefault" and bool(node.args)
            and isinstance(node.args[0], ast.Name) and node.args[0].id in names)


def _member_maps(source: str) -> list[str]:
    """The module-level functions and classes that key a map by the members
    of bags, classes or cells: by a name bound inside a loop, or by a later
    generator of a dict comprehension, whose iterable reads .bags, .classes
    or .partition."""
    def reads_mapped(node) -> bool:
        return any(isinstance(n, ast.Attribute) and n.attr in _MAPPED for n in ast.walk(node))

    def bound(targets) -> set[str]:
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}

    found = []
    for top in ast.parse(source).body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.For) and reads_mapped(node.iter):
                inner = bound(n.target for part in node.body for n in ast.walk(part)
                              if isinstance(n, ast.For))
                hit = any(_keyed_by(n, inner) for part in node.body for n in ast.walk(part))
            elif isinstance(node, ast.DictComp) and isinstance(node.key, ast.Name):
                gens = node.generators
                hit = any(reads_mapped(g.iter)
                          and node.key.id in bound(later.target for later in gens[i + 1:])
                          for i, g in enumerate(gens))
            else:
                continue
            if hit:
                found.append(top.name)
                break
    return sorted(found)


def test_member_map_scan_sees_loops_setdefault_and_comprehensions():
    source = ("def loop(inst):\n    out = {}\n"
              "    for key, cell in inst.partition.items():\n"
              "        for v in cell:\n            out[v] = key\n"
              "def mask(dec):\n    occ = [0] * 9\n"
              "    for i, bag in dec.bags.items():\n"
              "        for v in bag:\n            occ[v] |= 1 << i\n"
              "def host(dec):\n    out = {}\n    for i in sorted(dec.bags):\n"
              "        for v in dec.bags[i]:\n            out.setdefault(v, i)\n"
              "def comp(inst):\n"
              "    return {v: vs for vs in inst.partition.values() for v in vs}\n"
              "def by_key(inst):\n"
              "    return {key: set(vs) for key, vs in inst.classes.items()}\n"
              "def by_vertex(g):\n    out = {}\n    for v in g.vertices():\n"
              "        out[v] = 0\n")
    assert _member_maps(source) == ["comp", "host", "loop", "mask"]


def test_each_structure_map_has_one_home():
    """The instance that validates a tree-chained structure map builds it,
    and the reductions read it from there: class pairs through
    constrained_class_pairs (or constrained_pairs), partition cells through
    cell_of_var or class_of, and bag occurrences through occurrences.  No
    other module keys a map by the members of bags, classes or cells."""
    source = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _top_level_readers(source["instances"], "_cell_owners") == [
        "TcmcInstance", "TreeChainedCnf"]
    assert _member_maps(source["instances"]) == ["TreeDecomposition"]
    assert {stem: found for stem, text in source.items()
            if stem != "instances" and (found := _member_maps(text))} == {}
    readers = {
        "reductions": {
            "constrained_class_pairs": ["reduce_atm_to_tcmc"],
            "constrained_pairs": ["complement_tcmc_to_tcmis"],
            "class_of": ["reduce_tcmis_to_listcoloring"],
            "cell_of_var": ["reduce_negcnf_to_poscnf", "reduce_poscnf_to_logtw_is"],
            "occurrences": ["reduce_listcoloring_to_precoloring", "reduce_vc_to_rbds"]},
        "formats": {"cell_of_var": ["_cnf_lines"]},
        "verify": {"cell_of_var": ["_faulty_negcnf_poscnf"]},
        "instances": {"occurrences": ["_check_decomposition"]},
    }
    for module, names in readers.items():
        for name, want in names.items():
            assert _top_level_readers(source[module], name) == want, (module, name)


def _record_builders(source: str) -> dict[str, list[str]]:
    """What each _*_lines function builds a record with itself: an
    f-string, a ' '.join or a .rstrip(), outside a raise statement."""
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                and fn.name.endswith("_lines")):
            continue
        raised = {id(n) for r in ast.walk(fn) if isinstance(r, ast.Raise) for n in ast.walk(r)}
        found[fn.name] = []
        for node in ast.walk(fn):
            if id(node) in raised:
                continue
            if isinstance(node, ast.JoinedStr):
                found[fn.name].append("f-string")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                if func.attr == "rstrip":
                    found[fn.name].append(".rstrip()")
                elif (func.attr == "join" and isinstance(func.value, ast.Constant)
                      and func.value.value == " "):
                    found[fn.name].append("' '.join")
    return {name: sorted(what) for name, what in found.items()}


def test_record_builder_scan_sees_fstrings_joins_and_rstrip():
    source = ("def _a_lines(x):\n    return [f'a {x}']\n"
              "def _b_lines(xs):\n    return ['b ' + ' '.join(xs).rstrip()]\n"
              "def _c_lines(x):\n    if ' ' in x:\n        raise ValueError(f'bad {x!r}')\n"
              "    return [write(x), ''.join(x)]\n"
              "def helper(x):\n    return f'{x}'\n")
    assert _record_builders(source) == {"_a_lines": ["f-string"],
                                        "_b_lines": ["' '.join", ".rstrip()"], "_c_lines": []}


def test_format_writers_leave_each_record_to_its_compiled_writer():
    """_SYNTAX is the one place a record's layout is written down: the
    nine format writers hand fields to the record writers _compile builds
    from it, and spell out no record of their own."""
    builders = _record_builders((PACKAGE / "formats.py").read_text(encoding="utf-8"))
    assert len(builders) == 9
    assert not any(builders.values()), builders


def _environment_reads(source: str) -> list[str]:
    """Each place the source imports os or reads os.environ or os.getenv,
    at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name.split(".")[0] == "os"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "os":
            found.append(f"from {node.module} import")
        elif (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"os.{node.attr}")
    return sorted(found)


def test_environment_scan_sees_imports_and_reads():
    source = ("import os\n"
              "def f():\n    from os import environ\n    return os.getenv('A')\n"
              "def g():\n    return os.environ.get('A')\n"
              "def h(env):\n    return env.environ\n")
    assert _environment_reads(source) == ["from os import", "import os", "os.environ",
                                          "os.getenv"]


def test_no_module_reads_the_process_environment():
    # an oracle cap or any other setting comes in as an argument, so a
    # result depends on its arguments alone
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    offenders = {path.name: reads for path in modules
                 if (reads := _environment_reads(path.read_text(encoding="utf-8")))}
    assert offenders == {}
