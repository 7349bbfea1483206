"""The benchmark's workloads as streams of items.

A stream yields item k in three steps: prepare(k) builds the input from the
run seed (untimed), run(input) calls the program (timed, traced), and
check(input, result) judges the result (untimed).  A workload is a list of
streams that the runner interleaves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

SEED_STRIDE = 1_000_003  # item k of a run with seed s uses trial seed s*SEED_STRIDE + k


@dataclass
class Outcome:
    # checked: every claimed check ran | unchecked: agreed, but a lift check
    # was skipped on the cap | skipped: the trial skipped | failed: raised |
    # wrong: a wrong verdict
    status: str
    detail: str = ""
    verdicts: str = ""  # the program's verdicts, for the run's digest


@dataclass
class Stream:
    name: str
    prepare: Callable[[int], object]
    run: Callable[[object], object]
    check: Callable[[object, object], Outcome]


def _report_outcome(report) -> Outcome:
    if report.disagreements:
        return Outcome("wrong", "disagreement:\n" + report.disagreements[0][1])
    if report.skips:
        return Outcome("skipped")
    if any(note.endswith("lift check skipped (cap)") for note in report.resource_notes):
        return Outcome("unchecked")
    return Outcome("checked")


def reduction_streams(prog, spec, seed, cap) -> list[Stream]:
    profile = spec["profile"]

    def stream(name):
        return Stream(
            name=name,
            prepare=lambda k: seed * SEED_STRIDE + k,
            run=lambda s: prog.verify.verify_reduction(name, 1, s, cap=cap, profile=profile),
            check=lambda s, report: _report_outcome(report))

    return [stream(name) for name in prog.reductions.REDUCTION_NAMES]


def chain_streams(prog, spec, seed, cap) -> list[Stream]:
    def stream(name, chain, profile):
        return Stream(
            name=name,
            prepare=lambda k: seed * SEED_STRIDE + k,
            run=lambda s: prog.verify.verify_chain(chain, 1, s, cap=cap, profile=profile),
            check=lambda s, report: _report_outcome(report))

    streams = [stream(name, c["chain"], c["profile"]) for name, c in spec["chains"].items()]
    fault = spec["fault"]
    if prog.verify.check_chain(fault["chain"])[0] != "tcmis":
        raise ValueError("the fault chain must start at tcmis")

    def run_fault(s):
        report = prog.verify.verify_chain(fault["chain"], 1, s, cap=cap, profile=fault["profile"])
        replays = [prog.verify.replay_counterexample(cex, cap=cap)
                   for _, cex in report.disagreements]
        return report, replays

    def check_fault(s, result):
        # The faulty stage makes every target satisfiable, so a trial must
        # disagree exactly when its source is unsatisfiable.  The source is
        # rebuilt at the trial seed verify_chain uses (s * 100003); when the
        # fault is caught, the counterexample's source must equal it, so a
        # change of that seed rule shows as such and not as a wrong verdict.
        report, replays = result
        if report.skips:
            return Outcome("skipped")
        source = prog.verify.generate_instance("tcmis", fault["profile"], seed=s * 100003)
        for _, cex in report.disagreements:
            if prog.verify.parse_counterexample(cex)[1] != source:
                return Outcome("wrong", "the counterexample's source is not the one rebuilt "
                                        "at seed s * 100003: verify_chain's trial seed "
                                        "rule changed, update check_fault")
        solvable = prog.oracles.solve_tcmc_bruteforce(source, "independent-set", cap=cap)[0]
        if bool(report.disagreements) == solvable:
            return Outcome("wrong", f"fault caught {bool(report.disagreements)} "
                                    f"on a source with solvable {solvable}, or "
                                    "verify_chain's trial seed rule changed")
        if not all(replays):
            return Outcome("wrong", "a counterexample did not replay")
        return Outcome("checked", verdicts=f"caught={bool(report.disagreements)}")

    streams.append(Stream("fault-chain", lambda k: seed * SEED_STRIDE + k, run_fault, check_fault))
    return streams


def _applicable(machine, evaluators) -> list[str]:
    """Evaluators that accept the machine, as in verify_machine_equivalences."""
    has_univ = any(machine.mode[q] == "univ" for q in machine.states)
    usable = []
    if not has_univ:
        usable += ["stack", "stackalt"]
    if not machine.uses_stack:
        usable += ["alt", "balanced", "altstack"]
    return [e for e in usable if evaluators is None or e in evaluators]


def _evaluate(prog, machine, x, budget, names):
    """Verdicts of every named evaluator; an evaluator that raises records
    its exception and the rest still run."""
    results = {}
    for name in names:
        try:
            results[name] = prog.machines.EVALUATORS[name](machine, x, budget)
        except Exception as exc:  # counted as a failed item, never hidden
            results[name] = exc
    return results


def _verdict_outcome(results, extra: str = "") -> Outcome:
    errors = {n: r for n, r in results.items() if isinstance(r, Exception)}
    verdicts = {n: r.accepted for n, r in results.items() if n not in errors}
    summary = " ".join(f"{n}={type(r).__name__ if n in errors else int(r.accepted)}"
                       for n, r in results.items())
    if len(set(verdicts.values())) > 1:
        return Outcome("wrong", f"evaluators disagree: {verdicts}")
    if extra:
        return Outcome("wrong", extra)
    if errors:
        detail = "; ".join(f"{n} raised {type(e).__name__}" for n, e in errors.items())
        return Outcome("failed", detail, summary)
    return Outcome("checked", verdicts=summary)


def machine_streams(prog, spec, seed, corpus) -> list[Stream]:
    def budget_of(fields):
        if fields is None:
            return prog.corpus.CORPUS_BUDGET
        return prog.instances.ResourceBudget(**fields)

    def corpus_stream(name, stream_spec):
        budget = budget_of(stream_spec["budget"])
        items = []
        for mname in sorted(corpus):
            machine = corpus[mname]
            evaluators = _applicable(machine, stream_spec["evaluators"])
            if evaluators:
                items += [(machine, x, evaluators) for x in prog.corpus.corpus_inputs(machine)]
        random.Random(f"{seed}|{name}").shuffle(items)
        return Stream(
            name=name,
            prepare=lambda k: items[k % len(items)],
            run=lambda item: _evaluate(prog, item[0], item[1], budget, item[2]),
            check=lambda item, results: _verdict_outcome(results))

    streams = [corpus_stream(name, c) for name, c in spec["corpus_streams"].items()]
    atm = spec["atm"]
    atm_budget = budget_of(atm["budget"])

    def run_atm(source):
        machine, x, shape, _, _ = source
        results = _evaluate(prog, machine, x, atm_budget, _applicable(machine, None))
        return results, prog.machines.shaped_run(machine, x, shape)

    def check_atm(source, result):
        # an accepting run of the given shape is an accepting computation
        # tree, so the alternating verdict within its size must accept
        results, shaped = result
        _, _, shape, _, _ = source
        alt = results.get("alt")
        extra = ""
        if (shaped is not None and shape.n <= atm_budget.tree_size
                and not isinstance(alt, Exception) and not alt.accepted):
            extra = "shaped run accepts but the alternating verdict rejects"
        outcome = _verdict_outcome(results, extra)
        outcome.verdicts += f" shaped={int(shaped is not None)}"
        return outcome

    streams.append(Stream(
        name="atm-seeded",
        prepare=lambda k: prog.verify.generate_instance(
            "atm", atm["profile"], seed=seed * SEED_STRIDE + k),
        run=run_atm,
        check=check_atm))
    return streams


def build_streams(workload: str, prog, cfg: dict, seed: int, corpus) -> list[Stream]:
    spec = cfg["workloads"][workload]
    cap = cfg["cap"]
    if workload == "reduction-sweep":
        return reduction_streams(prog, spec, seed, cap)
    if workload == "chain-sweep":
        return chain_streams(prog, spec, seed, cap)
    if workload == "machine-sweep":
        return machine_streams(prog, spec, seed, corpus)
    raise ValueError(f"unknown workload {workload!r}")
