"""What the benchmark relies on in the program still holds.

bench/tracing.py wraps module attributes and registry entries of the xalpwb
modules by name, so a rename breaks `bench/run.py --trace 1`; one test
installs the tracer on the modules and uninstalls it again.  The other
reads the failure bench/config.json accepts on machine-sweep and checks
that it is the one the evaluator raises.
"""

import importlib
import importlib.util
import json
import pathlib
from types import SimpleNamespace

import pytest

from xalpwb.instances import CapExceeded, ResourceBudget
from xalpwb.machines import EVALUATORS

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
MODULES = ("instances", "formats", "machines", "reductions", "oracles", "verify", "corpus")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(owner) -> dict:
    return dict(owner) if isinstance(owner, dict) else dict(vars(owner))


def _current(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def test_tracer_installs_on_the_program_and_restores_it():
    tracing = _load_tracing()
    prog = SimpleNamespace(**{m: importlib.import_module(f"xalpwb.{m}") for m in MODULES})
    owners = [*vars(prog).values(), prog.reductions.REDUCTIONS, prog.verify.FIXTURES,
              prog.machines.EVALUATORS]
    before = [(owner, _bindings(owner)) for owner in owners]
    tracer = tracing.Tracer(CapExceeded)
    try:
        tracing.install(tracer, prog)
        targets = list(tracer._restore)
        for owner, key, original in targets:
            assert any(owner is o for o in owners), key
            assert _current(owner, key) is not original, key
    finally:
        tracer.uninstall()
    assert len(targets) == 40
    for owner, bindings in before:
        after = _bindings(owner)
        assert after.keys() == bindings.keys()
        assert all(after[key] is value for key, value in bindings.items())


def test_the_accepted_machine_sweep_failure_is_what_altstack_raises(corpus):
    # bench/workloads.py books an evaluator's error as "<name> raised <type>"
    config = json.loads((BENCH / "config.json").read_text())
    [defect] = [d for d in config["known_defects"] if d.get("workload") == "machine-sweep"]
    with pytest.raises(Exception) as info:
        EVALUATORS["altstack"](corpus["spin"], "0", ResourceBudget(tree_size=2000))
    assert f"altstack raised {type(info.value).__name__}" == defect["failure"]
