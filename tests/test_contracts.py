"""Reduction contracts: the measured parameter rules, stage errors as skips
or disagreements, and the generic mutants verify must catch."""

import dataclasses
import zlib

import pytest

from xalpwb import verify
from xalpwb.cli import main
from xalpwb.formats import serialize_instance
from xalpwb.instances import InvariantViolation, OrderedTree, TreeChainedCnf, TreeDecomposition
from xalpwb.oracles import min_degree_decomposition, validate_decomposition
from xalpwb.reductions import REDUCTIONS, reduce_listcoloring_to_precoloring
from xalpwb.verify import (
    generate_instance,
    replay_counterexample,
    run_trial,
    verify_chain,
    verify_reduction,
)

# ------------------------------------------------------------ stage errors


def test_a_source_outside_the_domain_is_a_skip():
    source = generate_instance("logtw-vc", None, seed=0)
    outcome = run_trial("is-vc", source)
    assert outcome.status == "skip"
    assert outcome.detail == "is-vc needs an independent-set instance"


def test_a_stage_error_is_a_replayable_disagreement(monkeypatch, capsys):
    # a negcnf-poscnf that raises on about one source in six, always the same
    real = REDUCTIONS["negcnf-poscnf"]

    def flaky(source):
        if zlib.crc32(serialize_instance(source).encode()) % 6 == 0:
            raise InvariantViolation("flaky stage")
        return real(source)

    monkeypatch.setitem(REDUCTIONS, "negcnf-poscnf", flaky)
    for report in (verify_reduction("negcnf-poscnf", 50, 1),
                   verify_chain(["tcmis-negcnf", "negcnf-poscnf", "part-gencnf"], 50, 1)):
        assert report.disagreements and not report.ok, report.name
        for t, cex in report.disagreements:
            assert f"trial {t} disagree: InvariantViolation: flaky stage" in report.resource_notes
            assert replay_counterexample(cex), (report.name, t)
    assert main(["verify", "--reduction", "negcnf-poscnf", "--trials", "50",
                 "--seed", "1"]) == 1
    assert "disagree: InvariantViolation: flaky stage" in capsys.readouterr().out


# ------------------------------------------------------------ the rules


@pytest.mark.parametrize("name, attr, delta, problem", [
    ("is-vc", "k", 1, "parameter changed under a k'=k reduction"),
    ("poscnf-logtwis", "k", 1, "does not match ceil(width/ceil(log2 n))"),
    ("vc-rbds", "k", 1, "does not match ceil(width/ceil(log2 n))"),
    ("rbds-ds", "k", 1, "does not match ceil(width/ceil(log2 n))"),
    # a smaller size target keeps the solvable targets solvable
    ("poscnf-logtwis", "target_weight", -1, "size target"),
])
def test_a_target_that_breaks_its_contract_is_a_disagreement(monkeypatch, name, attr,
                                                              delta, problem):
    real = REDUCTIONS[name]

    def broken(source):
        art = real(source)
        changed = getattr(art.target, attr) + delta
        art.target = dataclasses.replace(art.target, **{attr: changed})
        return art

    monkeypatch.setitem(REDUCTIONS, name, broken)
    report = verify_reduction(name, 20, 1)
    assert any(problem in note for note in report.resource_notes if " disagree: " in note)


# ------------------------------------------------------ the size rules


def _rebuilt_decomposition(real, source):
    art = real(source)
    art.target = dataclasses.replace(
        art.target, decomposition=min_degree_decomposition(source.graph))
    return art


def _last_edge_unsubdivided(real, source):
    # the last edge gets no red vertex: the target is that of the source
    # without it
    graph = source.graph
    return real(dataclasses.replace(source, graph=dataclasses.replace(
        graph, edges=graph.edges - {max(graph.edges)})))


def _no_x0_x1_edge(real, source):
    art = real(source)
    graph, x0 = art.target.graph, source.graph.n + 1
    art.target = dataclasses.replace(art.target, graph=dataclasses.replace(
        graph, edges=graph.edges - {(x0, x0 + 1)}))
    return art


@pytest.mark.parametrize("name, mutant, seed, problem", [
    ("is-vc", _rebuilt_decomposition, 0,
     "size rule: the target's graph or decomposition is not the source's"),
    ("vc-rbds", _last_edge_unsubdivided, 1,
     "size rule: n' 10 != 11, m' 10 != 12, red' 5 != 6, nodes' 6 != 7"),
    # an unsolvable source: the lift checks that catch this mutant elsewhere
    # do not run
    ("rbds-ds", _no_x0_x1_edge, 12, "size rule: m' 15 != 16"),
])
def test_a_size_rule_catches_its_mutant_on_trial_0(monkeypatch, name, mutant, seed, problem):
    real = REDUCTIONS[name]
    monkeypatch.setitem(REDUCTIONS, name, lambda source: mutant(real, source))
    report = verify_reduction(name, 1, seed)
    assert report.disagreements
    assert f"trial 0 disagree: {problem}" in report.resource_notes
    # without its size rule the same trial agrees
    monkeypatch.setitem(verify.CONTRACTS, name,
                        dataclasses.replace(verify.CONTRACTS[name], checks=()))
    assert verify_reduction(name, 1, seed).ok


# ------------------------------------------------------ the width+<=1 rule


def test_listcol_precol_grows_a_given_witness_by_at_most_one():
    for seed in range(50):
        listcol = REDUCTIONS["tcmis-listcol"](generate_instance("tcmis", None, seed=seed)).target
        art = reduce_listcoloring_to_precoloring(listcol)
        width = validate_decomposition(art.target.graph, art.witness)
        assert width == art.target.width, seed
        assert width <= listcol.width + 1, seed
        notes = []
        contract = verify.CONTRACTS["listcol-precol"]
        assert verify._resource_checks(contract, listcol, art, notes) == [], seed
        assert notes == [f"witness-width {width}"], seed


def test_the_width_rule_says_when_it_has_no_witness():
    source = dataclasses.replace(generate_instance("listcol", None, seed=1), decomposition=None)
    outcome = run_trial("listcol-precol", source)
    assert outcome.status == "agree"
    assert outcome.notes == ["width rule not checked: no witness"]


def test_the_width_rule_runs_on_every_generated_listcol_source():
    # each generated source carries its min-degree decomposition
    report = verify_reduction("listcol-precol", 3, 1)
    assert report.ok
    assert not any("width rule" in note for note in report.resource_notes)
    sources = [generate_instance("listcol", None, seed=100003 + t) for t in range(3)]
    assert [note for note in report.resource_notes if "witness-width" in note] == [
        f"trial {t} witness-width {reduce_listcoloring_to_precoloring(s).target.width}"
        for t, s in enumerate(sources)]


# ---------------------------------------------------------------- mutants


def _drop_least(solution):
    least = min(solution)
    if isinstance(solution, dict):
        return {key: value for key, value in solution.items() if key != least}
    return frozenset(solution) - {least}


def _lift_drops_one(direction):
    def mutate(art, hit):
        lift = getattr(art.lift, direction)

        def dropped(solution):
            lifted = lift(solution)
            if not lifted:
                return lifted
            hit.append(direction)
            return _drop_least(lifted)

        setattr(art.lift, direction, dropped)

    return mutate


def _target_loses_first_edge(art, hit):
    target = art.target
    if hasattr(target, "clauses"):
        if target.clauses:
            art.target = dataclasses.replace(target, clauses=target.clauses[1:])
            hit.append("clause")
    elif target.graph.edges:
        edges = target.graph.edges
        graph = dataclasses.replace(target.graph, edges=edges - {min(edges)})
        art.target = dataclasses.replace(target, graph=graph)
        hit.append("edge")


def _largest_bag_loses_a_vertex(art, hit):
    witness = art.witness
    if witness is not None:
        node = max(sorted(witness.bags), key=lambda i: len(witness.bags[i]))
        bag = witness.bags[node]
        hit.append("bag")
        art.target = dataclasses.replace(art.target, decomposition=TreeDecomposition(
            tree=witness.tree, bags={**witness.bags, node: bag - {min(bag)}}))


MUTANTS = {
    "forward-lift": _lift_drops_one("forward"),
    "backward-lift": _lift_drops_one("backward"),
    "target-edge": _target_loses_first_edge,
    "witness-bag": _largest_bag_loses_a_vertex,
}

# these reductions build targets without a decomposition
NOT_APPLICABLE = {(name, "witness-bag") for name in (
    "atm-tcmc", "tcmc-tcmis", "tcmis-negcnf", "negcnf-poscnf", "part-gencnf")}

# What 50 generated trials miss.  The poscnf-logtwis target numbers the
# bit pairs first, so its least edge is the first bit pair of the first cell
# that has one, or, when no cell has two variables, the first clause's
# p_0--p_1 edge.
# - A bit pair: removing it keeps every verdict.  A set holding both of its
#   ends blocks every literal vertex of that cell, so the cell's
#   normalization gadget loses the vertex the pair gained, and positive
#   clauses satisfied without that cell stay satisfied when the cell takes
#   any variable.
# - No bit pair: every cell holds one variable, which is true, so every
#   nonempty positive clause is satisfied.  Only an empty clause makes the
#   source unsatisfiable, and the generator never draws one;
#   test_target_edge_mutant_is_caught_on_an_empty_clause builds it.
# Of the generated sources at seeds 0-799, 683 have a bit pair and 117 do
# not; the mutant changed no trial's outcome on any of them.
SURVIVORS = {("poscnf-logtwis", "target-edge")}


def test_generic_mutants_are_caught(monkeypatch):
    outcomes = {}
    for name, reduce in list(REDUCTIONS.items()):
        for mutant, mutate in MUTANTS.items():
            hit = []

            def mutated(source, reduce=reduce, mutate=mutate, hit=hit):
                art = reduce(source)
                mutate(art, hit)
                return art

            monkeypatch.setitem(REDUCTIONS, name, mutated)
            report = verify_reduction(name, 50, 1)
            outcomes[name, mutant] = ("not applicable" if not hit
                                      else "caught" if report.disagreements else "survived")
        monkeypatch.setitem(REDUCTIONS, name, reduce)
    assert {key for key, o in outcomes.items() if o == "not applicable"} == NOT_APPLICABLE
    assert {key for key, o in outcomes.items() if o == "survived"} == SURVIVORS


def test_target_edge_mutant_is_caught_on_an_empty_clause(monkeypatch):
    # two singleton cells give no bit pair, so the least edge is the empty
    # clause's p_0--p_1 edge; the unsatisfiable source meets a target that
    # the mutant makes solvable
    source = TreeChainedCnf(tree=OrderedTree(n=1), variable_sets={1: frozenset({1, 2})},
                            clauses=((),), variant="positive-partitioned", k=2,
                            partition={(1, 1): frozenset({1}), (1, 2): frozenset({2})})
    assert run_trial("poscnf-logtwis", source).status == "agree"
    real = REDUCTIONS["poscnf-logtwis"]
    hit = []

    def mutated(source):
        art = real(source)
        _target_loses_first_edge(art, hit)
        return art

    monkeypatch.setitem(REDUCTIONS, "poscnf-logtwis", mutated)
    outcome = run_trial("poscnf-logtwis", source)
    assert hit == ["edge"]
    assert (outcome.status, outcome.detail) == ("disagree", "source False target True")
