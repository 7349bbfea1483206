"""The problem-family registry that verify and the CLI both read."""

import dataclasses
import inspect
import pathlib

import pytest

from xalpwb import oracles, verify
from xalpwb.cli import main
from xalpwb.formats import parse_instance, serialize_instance
from xalpwb.instances import InvariantViolation
from xalpwb.reductions import reduce_rbds_to_ds
from xalpwb.verify import CONTRACTS, FAMILIES, _RULES, generate_instance

GENERATED = [f for f, entry in FAMILIES.items() if entry.generate]

# --problem name -> a family of that problem
PROBLEM_FAMILY = {e.problem: f for f, e in reversed(FAMILIES.items()) if e.problem}


def _instance(family, seed):
    if family == "logtw-ds":
        return reduce_rbds_to_ds(generate_instance("logtw-rbds", None, seed=seed)).target
    return generate_instance(family, None, seed=seed)


def _read_solution(text):
    """The solution a 'sol' line holds: a set of members, or a dict whose
    keys are ints or i,j pairs."""
    head, *items = text.split()
    assert head == "sol"
    if not any("=" in item for item in items):
        return frozenset(int(v) for v in items)

    def key(k):
        return tuple(int(c) for c in k.split(",")) if "," in k else int(k)

    return {key(k): int(v) for k, v in (item.split("=") for item in items)}


@pytest.mark.parametrize("name", sorted(CONTRACTS))
def test_every_reduction_family_has_an_entry(name):
    contract = CONTRACTS[name]
    for family in (*contract.sources, contract.target):
        assert family in FAMILIES, (name, family)
    for rule in contract.rules:
        assert rule in _RULES, (name, rule)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_each_family_decides_by_the_first_entry_of_its_solve_table(family):
    # the solve table is the one place that says how a family is solved
    assert "decide" not in {f.name for f in dataclasses.fields(verify.Family)}
    entry = FAMILIES[family]
    assert entry.solvers, family
    for name, solve in entry.solvers.items():
        params = list(inspect.signature(solve).parameters.values())
        assert [p.name for p in params[:3]] == ["instance", "cap", "threshold"], name
        assert all(p.default is not p.empty for p in params[3:]), name
    if entry.generate:
        first = next(iter(entry.solvers.values()))
        for seed in range(20):
            inst = generate_instance(family, None, seed=seed)
            assert entry.decide(inst, None) == first(inst, None, None), seed


@pytest.mark.parametrize("family", GENERATED)
def test_instances_round_trip_and_decided_solutions_check(family):
    entry = FAMILIES[family]
    solvable = 0
    for seed in range(20):
        inst = generate_instance(family, None, seed=seed)
        assert parse_instance(entry.format, serialize_instance(inst)) == inst, seed
        ok, solution = entry.decide(inst, None)
        if ok:
            solvable += 1
            assert entry.check(inst, solution), seed
        else:
            assert solution is None, seed
    assert solvable


@pytest.mark.parametrize("family", ["gencnf", "logtw-ds", "graph"])
def test_only_source_families_draw(family):
    with pytest.raises(InvariantViolation, match="unknown generator family"):
        generate_instance(family)


@pytest.mark.parametrize("problem", sorted(PROBLEM_FAMILY))
def test_solve_writes_a_solution_that_splits_and_checks(tmp_path, monkeypatch, capsys,
                                                        problem):
    monkeypatch.chdir(tmp_path)
    entry = FAMILIES[PROBLEM_FAMILY[problem]]
    inst = next(i for i in (_instance(PROBLEM_FAMILY[problem], s) for s in range(50))
                if entry.decide(i, None)[0])
    pathlib.Path("inst.txt").write_text(serialize_instance(inst))
    for solver in entry.solvers:
        assert main(["solve", "--problem", problem, "-i", "inst.txt",
                     "--solver", solver, "-o", f"{solver}.sol"]) == 0
        assert capsys.readouterr().out.strip() == "YES"
        solution = _read_solution(pathlib.Path(f"{solver}.sol").read_text())
        assert entry.check(inst, solution), solver


@pytest.mark.parametrize("family, name", [("tcmc", "atm-tcmc"), ("tcmis", "tcmc-tcmis")])
def test_tcmc_decide_never_runs_the_brute_force(monkeypatch, family, name):
    # the traversal decides outright, with the brute force's choice
    entry, mode = FAMILIES[family], {"tcmc": "clique", "tcmis": "independent-set"}[family]
    sources = [generate_instance(family, None, seed=s) for s in range(20)]
    expected = [oracles.solve_tcmc_bruteforce(inst, mode) for inst in sources]

    def brute(*args, **kwargs):
        raise AssertionError("solve_tcmc_bruteforce called")

    monkeypatch.setattr(oracles, "solve_tcmc_bruteforce", brute)
    assert [entry.decide(inst, None) for inst in sources] == expected
    assert any(ok for ok, _ in expected) and not all(ok for ok, _ in expected)
    assert verify.verify_reduction(name, 20, 1).ok
