"""Generators, verification reports, fault injection, and replayability."""

import dataclasses
import hashlib
import json
import pathlib
import re

import pytest

from conftest import DS_CHAIN, DS_PROFILE, ds_chain_target
from xalpwb import oracles, verify
from xalpwb.instances import (
    FormatError,
    InvariantViolation,
    TreeDecomposition,
    log_width_parameter,
)
from xalpwb.machines import RunStats
from xalpwb.reductions import REDUCTION_NAMES, REDUCTIONS
from xalpwb.verify import (
    CONTRACTS,
    FIXTURES,
    VerificationReport,
    check_chain,
    generate_instance,
    parse_counterexample,
    replay_counterexample,
    run_trial,
    serialize_counterexample,
    verify_chain,
    verify_machine_equivalences,
    verify_reduction,
)


def test_registry_coverage_duty():
    # every registered reduction has a contract and vice versa (fixtures
    # live in their own registry and never shadow the real list)
    assert set(REDUCTIONS) == set(REDUCTION_NAMES)
    assert set(REDUCTION_NAMES) <= set(CONTRACTS)
    assert not (set(FIXTURES) & set(REDUCTIONS))


def test_generator_determinism():
    for family in ("tcmis", "poscnf", "listcol", "logtw-is", "atm"):
        a = generate_instance(family, None, seed=9)
        b = generate_instance(family, None, seed=9)
        assert a == b, family


def test_generator_boundary_profiles():
    # singleton classes requested explicitly stay singleton
    inst = generate_instance("tcmis", {"max_class": 1}, seed=0)
    assert all(len(vs) == 1 for vs in inst.classes.values())
    seen_empty = seen_edges = False
    for seed in range(40):
        inst = generate_instance("tcmis", None, seed=seed)
        if inst.graph.edges:
            seen_edges = True
        else:
            seen_empty = True
    assert seen_empty and seen_edges


def test_generated_instances_validate():
    # constructors revalidate, so surviving generation means invariants hold
    for family in ("tcmc", "tcmis", "negcnf", "poscnf", "listcol",
                   "logtw-is", "logtw-vc", "logtw-rbds"):
        for seed in range(10):
            generate_instance(family, None, seed=seed)


@pytest.mark.parametrize("name", REDUCTION_NAMES)
def test_verify_reduction_small_run(name):
    report = verify_reduction(name, trials=8, seed=13)
    assert report.ok, (name, report.disagreements[:1])
    assert report.agreements + len(report.skips) == 8


def test_report_bookkeeping():
    report = VerificationReport(name="x", seed=0, trials=10)
    report.agreements = 9
    report.skips.append(2)
    report.finish()
    assert report.ok
    bad = VerificationReport(name="x", seed=0, trials=3)
    bad.agreements = 1
    with pytest.raises(InvariantViolation):
        bad.finish()


def test_report_skip_budget():
    report = VerificationReport(name="x", seed=0, trials=10)
    report.agreements = 7
    report.skips.extend([0, 1, 2])
    report.finish()
    assert not report.ok  # 30% skips exceeds the 20% budget


def test_fault_fixture_detected_and_replayable():
    report = verify_reduction("negcnf-poscnf!faulty", trials=20, seed=5)
    assert not report.ok and report.disagreements
    trial, cex = report.disagreements[0]
    assert replay_counterexample(cex)
    name, source = parse_counterexample(cex)
    assert name == "negcnf-poscnf!faulty"
    assert run_trial(name, source).status == "disagree"


def test_counterexample_round_trip_atm():
    source = generate_instance("atm", None, seed=3)
    text = serialize_counterexample("atm-tcmc", source)
    assert text.splitlines()[2] == "section instance atm"
    name, parsed = parse_counterexample(text)
    assert name == "atm-tcmc"
    machine, x, shape, blocks, beta = parsed
    assert (machine, x, shape, blocks, beta) == source


@pytest.mark.parametrize("text", [
    "",
    "xalpwb 1\n",
    "xalpwb 1\ncounterexample\n",
    "xalpwb 1\ncounterexample atm-tcmc\n",
    "xalpwb 1\ncounterexample atm-tcmc\nsection instance\n",
    "xalpwb 1\ncounterexample atm-tcmc\nsection instance nosuch\n",
    "xalpwb 1\ncounterexample nosuch\nsection instance graph\np graph 1 0\n",
    # a graph is not the source of atm-tcmc, so it could not be replayed
    "xalpwb 1\ncounterexample atm-tcmc\nsection instance graph\np graph 1 0\n",
    "xalpwb 1\ncounterexample atm-tcmc\nsection instance atm\n",
    "xalpwb 1\ncounterexample atm-tcmc\nsection instance atm\natm two 1\n",
    # the earlier atm layout, with its own parameter record and sections
    "xalpwb 1\ncounterexample atm-tcmc\natmparams 2 1 -\nsection machine\n",
])
def test_malformed_counterexample_raises_a_documented_error(text):
    with pytest.raises((FormatError, InvariantViolation)):
        parse_counterexample(text)


def test_truncated_atm_counterexample_raises_a_format_error():
    text = serialize_counterexample("atm-tcmc", generate_instance("atm", None, seed=3))
    with pytest.raises(FormatError, match="missing 't' record"):
        parse_counterexample(text[:text.index("\nt ")])


def test_a_counterexample_parse_error_names_its_line_in_the_file():
    text = serialize_counterexample("tcmc-tcmis", generate_instance("tcmis", None, seed=0))
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("class "))
    lines[at] += " x"
    with pytest.raises(FormatError, match=f"^line {at + 1}: expected integer for <v>"):
        parse_counterexample("\n".join(lines))


def test_chain_type_compatibility():
    check_chain(["tcmis-negcnf", "negcnf-poscnf", "part-gencnf"])
    with pytest.raises(InvariantViolation, match="chain breaks"):
        check_chain(["tcmis-negcnf", "poscnf-logtwis"])
    with pytest.raises(InvariantViolation, match="unknown"):
        check_chain(["no-such"])


def test_identity_style_chain_agrees():
    report = verify_chain(["tcmc-tcmis"], trials=10, seed=1)
    assert report.ok and report.agreements == 10


def test_full_chain_to_dominating_set():
    chain = ["tcmis-negcnf", "negcnf-poscnf", "poscnf-logtwis",
             "is-vc", "vc-rbds", "rbds-ds"]
    report = verify_chain(chain, trials=8, seed=4,
                          profile={"tree_nodes": 2, "max_class": 1, "max_edges": 4})
    assert report.ok, report.disagreements[:1]
    assert report.agreements == 8


def test_faulty_chain_detected_with_replay():
    chain = ["tcmis-negcnf", "negcnf-poscnf!faulty", "part-gencnf"]
    report = verify_chain(chain, trials=20, seed=5)
    assert not report.ok and report.disagreements
    _, cex = report.disagreements[0]
    assert replay_counterexample(cex)


def test_faulty_chain_report_names_each_disagreement():
    chain = ["tcmis-negcnf", "negcnf-poscnf!faulty", "part-gencnf"]
    report = verify_chain(chain, trials=20, seed=5)
    text = report.serialize()
    assert report.disagreements
    for i, _ in report.disagreements:
        assert f"trial {i} disagree counterexample-{i}\n" in text
        assert f"note trial {i} disagree: source False end True\n" in text


def test_machine_equivalence_report(corpus):
    from xalpwb.corpus import CORPUS_BUDGET

    report = verify_machine_equivalences(corpus, CORPUS_BUDGET, max_len=3)
    assert report.ok
    assert report.trials == report.agreements


@pytest.mark.parametrize("sem, fake, problem", [
    ("stackalt", RunStats(accepted=True, tree_nodes=17), "tree size 17 > 8*steps+8"),
    ("balanced", RunStats(accepted=True, max_co_nondet_on_path=99), "co-nondet 99 > 16.00"),
    ("alt", RunStats(accepted=False), "evaluators disagree: {'stack': True, 'alt': False, "),
])
def test_machine_report_names_the_machine_and_input_of_a_problem(monkeypatch, corpus,
                                                                  sem, fake, problem):
    # one evaluator swapped for a fake on input '1' (trial 2) trips one of
    # the report's checks: the stackalt tree-size ratio (find_one's stack
    # run takes 1 step), the co-nondeterminism bound 2*log2(64)+4, or the
    # verdicts' agreement
    from xalpwb.corpus import CORPUS_BUDGET

    real = verify.EVALUATORS[sem]
    monkeypatch.setitem(verify.EVALUATORS, sem,
                        lambda m, x, budget: fake if x == "1" else real(m, x, budget))
    report = verify_machine_equivalences({"find_one": corpus["find_one"]}, CORPUS_BUDGET,
                                         max_len=1)
    assert not report.ok and report.agreements == 2
    (trial, text), = report.disagreements
    assert trial == 2
    assert text.startswith("# machine find_one input '1'\n" + problem)


def test_report_serialization_lines():
    report = verify_reduction("is-vc", trials=5, seed=2)
    lines = report.serialize().splitlines()
    assert lines[0].startswith("report is-vc")
    assert sum(1 for ln in lines if ln.startswith("trial ")) == 5
    assert all(ln.split()[2] in ("agree", "disagree", "skip")
               for ln in lines if ln.startswith("trial "))


def test_machine_encoding_chains_into_cnf_family():
    chain = ["atm-tcmc", "tcmc-tcmis", "tcmis-negcnf",
             "negcnf-poscnf", "part-gencnf"]
    profile = {"states": 1, "shape_nodes": 2, "min_shape_nodes": 2,
               "input_len": 0, "blocks": 1, "beta": 1}
    report = verify_chain(chain, trials=8, seed=21, profile=profile)
    assert report.ok, report.disagreements[:1]
    assert report.agreements == 8


def test_chain_domain_exit_counts_as_skip(corpus):
    # atm-tcmc is defined on stack-free machines: a source whose machine
    # uses the stack is outside its domain, and the trial skips
    from xalpwb.verify import run_chain_trial

    src = generate_instance("atm", None, seed=0)._replace(machine=corpus["push_pop"])
    outcome = run_chain_trial(["atm-tcmc", "tcmc-tcmis", "tcmis-negcnf"], src)
    assert (outcome.status, outcome.detail) == ("skip", "atm-tcmc requires a stack-free machine")


def test_cap_skips_carry_the_cap_message():
    report = verify_reduction("is-vc", trials=4, seed=0, cap=1)
    assert report.skips == [0, 1, 2, 3]
    assert all(note.startswith(f"trial {t} skip: instance too large for oracle: ")
               for t, note in enumerate(report.resource_notes))
    chain = verify_chain(["is-vc", "vc-rbds"], trials=2, seed=0, cap=1)
    assert chain.skips == [0, 1]
    assert chain.resource_notes[1].startswith("trial 1 skip: instance too large")


def _count_validations(monkeypatch, *modules) -> list:
    """Record each validate_decomposition call made through the modules'
    own name for it."""
    from xalpwb import instances

    calls = []
    validate = instances.validate_decomposition

    def counted(graph, dec):
        calls.append(dec)
        return validate(graph, dec)

    for module in modules:
        monkeypatch.setattr(module, "validate_decomposition", counted)
    return calls


def test_chain_trial_validates_each_decomposition_once(monkeypatch):
    # one validation per LogTwGraphInstance built along the chain (the four
    # logtw targets), whose width the DP reads, and one of the min-degree
    # elimination the DS endpoint's DP builds when it decides the end
    from xalpwb import instances
    from xalpwb.verify import run_chain_trial

    # counted apart, each wrapping the unpatched validator
    eliminations = _count_validations(monkeypatch, oracles)
    built = _count_validations(monkeypatch, instances)
    end = ds_chain_target(5)
    assert oracles.dominator_packing(end.graph, "ds") > end.target_weight
    # the seed-0 source is solvable, so its carried solution decides the
    # end and no DP runs; the seed-5 source is not, and its end is refuted
    # by the packing, so no DP runs either unless the packing falls short
    for seed, packing_short, dp_runs in ((0, False, False), (5, False, False),
                                         (5, True, True)):
        eliminations.clear()
        built.clear()
        with monkeypatch.context() as m:
            if packing_short:
                m.setattr(oracles, "dominator_packing", lambda graph, problem: 0)
            source = generate_instance("tcmis", DS_PROFILE, seed=seed)
            assert run_chain_trial(DS_CHAIN, source).status == "agree"
        assert len(built) == 4
        # ds_chain_target(seed) runs the same source down the same chain
        expect = [oracles.min_degree_decomposition(ds_chain_target(seed).graph)]
        assert eliminations == (expect if dp_runs else [])


@pytest.mark.parametrize("name", ["is-vc", "tcmis-listcol", "listcol-precol"])
def test_each_witness_is_validated_once_when_its_target_is_built(monkeypatch, name):
    from xalpwb import instances

    source = generate_instance(CONTRACTS[name].sources[0], None, seed=1)
    calls = _count_validations(monkeypatch, instances, oracles)
    real_reduce, arts, at_build = REDUCTIONS[name], [], []

    def reduce(src):
        arts.append(real_reduce(src))
        at_build.extend(calls)
        return arts[-1]

    monkeypatch.setitem(REDUCTIONS, name, reduce)
    outcome = run_trial(name, source)
    assert outcome.status == "agree"
    # one validation, by the target's constructor, and none by the trial
    witness = arts[0].witness
    assert witness is arts[0].target.decomposition
    assert [dec is witness for dec in at_build] == [True]
    assert len(calls) == 1
    assert f"witness-width {arts[0].target.width}" in outcome.notes


def test_logtw_lift_checks_never_skip():
    report = verify_reduction("poscnf-logtwis", 50, 1)
    assert report.ok and report.agreements == 50
    assert not any(note.endswith("lift check skipped (cap)")
                   for note in report.resource_notes)


def test_capped_atm_trial_runs_the_backward_lift_check(monkeypatch):
    # the traversal decides this accepting trial's target, whose class
    # choice space is over the brute force's default cap, and its choice is
    # decoded back
    source = generate_instance("atm", None, seed=100044)
    real_reduce, real_traversal = REDUCTIONS["atm-tcmc"], oracles.solve_tcmc_traversal
    traversed, decoded = [], []

    def traversal(*args, **kwargs):
        result = real_traversal(*args, **kwargs)
        traversed.append(result)
        return result

    def reduce(src):
        art = real_reduce(src)
        backward = art.lift.backward
        art.lift.backward = lambda sol: decoded.append(sol) or backward(sol)
        return art

    monkeypatch.setattr(oracles, "solve_tcmc_traversal", traversal)
    monkeypatch.setitem(REDUCTIONS, "atm-tcmc", reduce)
    assert run_trial("atm-tcmc", source).status == "agree"
    assert len(traversed) == 1 and traversed[0][0]
    assert decoded == [traversed[0][1]]


@pytest.mark.parametrize("name, solver", [("tcmc-tcmis", "solve_tcmc_traversal"),
                                          ("rbds-ds", "optimum_treedp")])
def test_trial_solves_each_side_once(monkeypatch, name, solver):
    # each side is decided once: a dominate side by its packing, and by the
    # DP only when the packing does not refute it
    real_solve = getattr(oracles, solver)
    real_packing, real_reduce = oracles.dominator_packing, REDUCTIONS[name]
    solved, packed, lifted, targets = [], [], [], []

    def counted_solve(instance, *args, **kwargs):
        solved.append(instance)
        return real_solve(instance, *args, **kwargs)

    def counted_packing(graph, problem):
        packed.append((graph, real_packing(graph, problem)))
        return packed[-1][1]

    def counted_lift(way, lift):
        return lambda solution: lifted.append(way) or lift(solution)

    def reduce(source):
        art = real_reduce(source)
        targets.append(art.target)
        art.lift.forward = counted_lift("forward", art.lift.forward)
        art.lift.backward = counted_lift("backward", art.lift.backward)
        return art

    def no_enumeration(*args, **kwargs):
        raise AssertionError("subset enumeration called")

    monkeypatch.setattr(oracles, solver, counted_solve)
    monkeypatch.setattr(oracles, "dominator_packing", counted_packing)
    monkeypatch.setattr(oracles, "optimum_subset", no_enumeration)
    monkeypatch.setitem(REDUCTIONS, name, reduce)
    src_family = CONTRACTS[name].sources[0]
    dominate = CONTRACTS[name].target == "logtw-ds"
    refuted = solvable = 0
    for seed in range(10):
        source = generate_instance(src_family, None, seed=seed)
        solved.clear()
        packed.clear()
        targets.clear()
        lifted.clear()
        assert run_trial(name, source).status == "agree", seed
        # a solvable trial lifts forward, back, and forward again
        assert lifted in ([], ["forward", "backward", "forward"]), seed
        solvable += bool(lifted)
        sides = [source, targets[0]]
        assert [graph for graph, _ in packed] == (
            [side.graph for side in sides] if dominate else []), seed
        short = [side for side, (_, bound) in zip(sides, packed)
                 if bound <= side.target_weight] if dominate else sides
        refuted += len(sides) - len(short)
        assert len(solved) == len(short), seed
        assert all(got is side for got, side in zip(solved, short)), seed
    assert solvable  # some trials were solvable, so their lifts were checked
    assert refuted if dominate else not refuted


def test_atm_trial_runs_shaped_run_once(monkeypatch):
    # the run the source oracle found is the one the forward lift carries
    from xalpwb import machines

    real, calls = verify.shaped_run, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "shaped_run", counted)
    monkeypatch.setattr(machines, "shaped_run", counted)
    solvable = 0
    for seed in range(30):
        source = generate_instance("atm", None, seed=seed)
        calls.clear()
        assert run_trial("atm-tcmc", source).status == "agree", seed
        assert len(calls) == 1, seed
        solvable += real(source.machine, source.x, source.shape) is not None
    assert solvable


def _widened(dec: TreeDecomposition, vertices, width: int) -> TreeDecomposition:
    """dec with vertices outside a widest bag added to every bag (which
    keeps it valid) until it reaches the given width."""
    widest = max(dec.bags.values(), key=len)
    extra = frozenset(sorted(set(vertices) - widest)[:width - dec.width()])
    return TreeDecomposition(tree=dec.tree, bags={i: b | extra for i, b in dec.bags.items()})


def _grown_by_two(reduce):
    """reduce, with its target's witness widened to the source's width plus
    two, as far as the target's vertices allow."""
    def grown(src):
        art = reduce(src)
        target = art.target
        dec = _widened(target.decomposition, target.graph.vertices(), src.width + 2)
        fields = {"decomposition": dec}
        if hasattr(target, "k"):  # a log-treewidth target's k' follows its width
            fields["k"] = log_width_parameter(dec.width(), target.graph.n)
        art.target = dataclasses.replace(target, **fields)
        return art

    return grown


@pytest.mark.parametrize("name", ["listcol-precol", "vc-rbds", "rbds-ds"])
def test_witness_grown_by_two_is_a_disagreement(monkeypatch, name):
    # these reductions declare width+<=1; a source of width at most 1 shows
    # that the bound is the source width plus one, with no floor
    grown = _grown_by_two(REDUCTIONS[name])
    source = next(
        s for s in (generate_instance(CONTRACTS[name].sources[0], None, seed=t)
                    for t in range(100))
        if s.width <= 1 and grown(s).target.width == s.width + 2)
    before = source.decomposition.width()
    assert run_trial(name, source).status == "agree"
    monkeypatch.setitem(REDUCTIONS, name, grown)
    outcome = run_trial(name, source)
    assert outcome.status == "disagree"
    assert f"witness-width {before + 2}" in outcome.notes
    assert outcome.detail == f"witness width {before + 2} grew past {before}+1"


# ------------------------------------------------- carried chain solutions


def _with(monkeypatch, family: str, **fields):
    """Replace fields of one FAMILIES entry for the test."""
    monkeypatch.setitem(verify.FAMILIES, family,
                        dataclasses.replace(verify.FAMILIES[family], **fields))


def _counted_end(monkeypatch, family: str, raises=None) -> list:
    """Record each call of the family's oracle, the first entry of its solve
    table; with raises, the oracle raises it instead of deciding."""
    solvers, calls = verify.FAMILIES[family].solvers, []
    name, real = next(iter(solvers.items()))

    def solve(instance, cap, threshold):
        calls.append(instance)
        if raises is not None:
            raise raises
        return real(instance, cap, threshold)

    _with(monkeypatch, family, solvers={**solvers, name: solve})
    return calls


def _ds_source(solvable: bool):
    return generate_instance("tcmis", DS_PROFILE, seed=0 if solvable else 5)


def test_carried_solution_decides_a_solvable_end(monkeypatch):
    from xalpwb.verify import run_chain_trial

    checked = []

    def counted(family, check):
        return lambda instance, solution: checked.append(family) or check(instance, solution)

    sides = [(CONTRACTS[stage].sources[0], CONTRACTS[stage].target) for stage in DS_CHAIN]
    for family in {family for side in sides for family in side}:
        _with(monkeypatch, family, check=counted(family, verify.FAMILIES[family].check))
    ends = _counted_end(monkeypatch, "logtw-ds")
    assert run_chain_trial(DS_CHAIN, _ds_source(True)).status == "agree"
    assert ends == []
    # carried forward to each stage's target, then lifted back to each
    # stage's source and forward again to its target, last stage first
    assert checked == ([target for _, target in sides]
                       + [family for side in reversed(sides) for family in side])
    # an unsolvable source has nothing to carry: the end's oracle decides
    checked.clear()
    assert run_chain_trial(DS_CHAIN, _ds_source(False)).status == "agree"
    assert len(ends) == 1 and checked == []


def test_rejected_carry_is_a_disagreement_naming_its_stage(monkeypatch):
    # a stage lifting to an invalid solution (an empty dominating set of a
    # nonempty graph) is noticed by its checker and blamed; the end's
    # oracle is not asked to overrule it
    from xalpwb.verify import run_chain_trial

    source = _ds_source(True)
    real_reduce = REDUCTIONS["rbds-ds"]

    def invalid_lift(src):
        art = real_reduce(src)
        art.lift.forward = lambda sol: frozenset()
        return art

    with monkeypatch.context() as patch:
        patch.setitem(REDUCTIONS, "rbds-ds", invalid_lift)
        ends = _counted_end(patch, "logtw-ds")
        outcome = run_chain_trial(DS_CHAIN, source)
    assert (outcome.status, outcome.detail) == (
        "disagree", "stage rbds-ds: carried solution invalid on target")
    assert ends == []
    # a checker rejecting at any stage names that stage, not a later one
    for stage in DS_CHAIN:
        with monkeypatch.context() as patch:
            _with(patch, CONTRACTS[stage].target, check=lambda instance, solution: False)
            outcome = run_chain_trial(DS_CHAIN, source)
        assert outcome.detail == f"stage {stage}: carried solution invalid on target"


def test_capped_end_oracle_skips_only_without_a_carried_solution(monkeypatch):
    from xalpwb.instances import CapExceeded
    from xalpwb.verify import run_chain_trial

    _counted_end(monkeypatch, "logtw-ds", raises=CapExceeded("end over the cap"))
    assert run_chain_trial(DS_CHAIN, _ds_source(True)).status == "agree"
    outcome = run_chain_trial(DS_CHAIN, _ds_source(False))
    assert (outcome.status, outcome.detail) == ("skip", "end over the cap")


def _bench_chains() -> dict[str, tuple[list[str], dict | None]]:
    """The benchmark's chain-sweep chains and its fault chain, by name."""
    spec = json.loads((pathlib.Path(__file__).parents[1] / "bench" / "config.json")
                      .read_text())["workloads"]["chain-sweep"]
    return {name: (c["chain"], c["profile"])
            for name, c in {**spec["chains"], "fault-chain": spec["fault"]}.items()}


def _without_stage_notes(report: VerificationReport) -> list[str]:
    return [line for line in report.serialize().splitlines()
            if not re.match(r"note trial \d+ stage ", line)]


@pytest.mark.parametrize("chain, profile", _bench_chains().values())
def test_carried_reports_match_end_oracle_reports(monkeypatch, chain, profile):
    # on the bench's chains no stage rejects a carried solution or fails a
    # check: each report, but for the notes its stages add, is the one given
    # when the end's oracle decides every trial
    carried = [_without_stage_notes(verify_chain(chain, 20, seed, profile=profile))
               for seed in range(3)]
    src_family, end_family = verify.check_chain(chain)

    def end_oracle_trial(chain, source, cap=None):
        def trial():
            end = source
            for stage in chain:
                end = verify._lookup_reduction(stage)(end).target
            src_ok = verify.FAMILIES[src_family].decide(source, cap)[0]
            end_ok = verify.FAMILIES[end_family].decide(end, cap)[0]
            if src_ok == end_ok:
                return verify.TrialOutcome("agree")
            return verify.TrialOutcome("disagree", detail=f"source {src_ok} end {end_ok}")
        return verify._booked(trial)

    monkeypatch.setattr(verify, "run_chain_trial", end_oracle_trial)
    assert carried == [_without_stage_notes(verify_chain(chain, 20, seed, profile=profile))
                       for seed in range(3)]


# ------------------------------------------------- every stage both ways


@pytest.mark.parametrize("stage, chain", [("negcnf-poscnf", "cnf-chain"),
                                          ("vc-rbds", "ds-chain"),
                                          ("tcmc-tcmis", "atm-chain")])
def test_broken_backward_lift_mid_chain_is_a_disagreement_naming_its_stage(
        monkeypatch, stage, chain):
    # the stage's backward lift returns an empty solution, which its source
    # rejects: a solvable trial's end solution, lifted back, meets it
    chain, profile = _bench_chains()[chain]
    real_reduce = REDUCTIONS[stage]

    def empty_backward(src):
        art = real_reduce(src)
        backward = art.lift.backward
        art.lift.backward = lambda solution: type(backward(solution))()
        return art

    monkeypatch.setitem(REDUCTIONS, stage, empty_backward)
    report = verify_chain(chain, 200, 1, profile=profile)
    assert report.disagreements
    assert [note for note in report.resource_notes if " disagree: " in note] == [
        f"trial {t} disagree: stage {stage}: backward-lifted solution invalid on source"
        for t, _ in report.disagreements]
    assert replay_counterexample(report.disagreements[0][1])


def test_witness_grown_by_two_mid_chain_is_a_disagreement_naming_its_stage(monkeypatch):
    # vc-rbds declares width+<=1 on its own input, the middle of the chain
    monkeypatch.setitem(REDUCTIONS, "vc-rbds", _grown_by_two(REDUCTIONS["vc-rbds"]))
    report = verify_chain(DS_CHAIN, 20, 0, profile=DS_PROFILE)
    assert report.disagreements
    for t, _ in report.disagreements:
        detail = next(note for note in report.resource_notes
                      if note.startswith(f"trial {t} disagree: "))
        grew = re.fullmatch(rf"trial {t} disagree: stage vc-rbds: "
                            r"witness width (\d+) grew past (\d+)\+1", detail)
        assert grew and int(grew[1]) == int(grew[2]) + 2, detail
        assert f"trial {t} stage vc-rbds: witness-width {grew[1]}" in report.resource_notes


def test_single_reduction_reports_are_pinned():
    # the reports of every contract's chain of one, at seeds 0-2, hashed
    reports = "".join(verify_reduction(name, 20, seed).serialize()
                      for name in CONTRACTS for seed in range(3))
    assert hashlib.sha256(reports.encode()).hexdigest()[:16] == "19e500f1f150686b"
