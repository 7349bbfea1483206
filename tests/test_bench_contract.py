"""The names the benchmark's tracer rebinds still exist in the program.

bench/tracing.py wraps module attributes and registry entries of the xalpwb
modules by name, so a rename breaks `bench/run.py --trace 1`.  This test
installs the tracer on the modules and uninstalls it again.
"""

import importlib
import importlib.util
import pathlib
from types import SimpleNamespace

from xalpwb.instances import CapExceeded

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
