"""Certification benchmark for xalpwb.

    python3 bench/run.py --workload reduction-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Runs one workload (or each in turn) closed-loop from a single thread: each item (a trial or
an evaluator call) finishes before the next starts.  It checks every
verdict, prints a readable summary, and prints as its last line a JSON
object with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  Metric names and units come from BENCHMARK.json; the fixed
profiles, chains, budgets and the oracle cap from bench/config.json.

With --trace 1 the run measures the items untraced for half the time,
then replays the same items with every layer wrapped (bench/tracing.py).
The spans and per-item work counts go to bench/out/.  The exit code is 1
on any wrong verdict and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gzip
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
from tracing import Tracer, install  # noqa: E402
from workloads import Outcome, build_streams  # noqa: E402

LAYERS = ("bench", "verify", "reductions", "oracles", "instances", "machines",
          "formats", "corpus")
MODULES = ("instances", "formats", "machines", "reductions", "oracles", "verify", "corpus")


STATUSES = ("checked", "unchecked", "skipped", "failed", "wrong")
TURN_S = 0.05  # item time one stream runs before the next, under "time" balance


class Items:
    """Per-item results in flat arrays, so that the harness's own memory
    stays small next to the program's (peak_rss_mb is process-wide)."""

    def __init__(self):
        self.stream = array("H")
        self.k = array("L")
        self.seconds = array("d")
        self.status = array("B")
        self.detail: dict[int, str] = {}  # item index -> why it failed or was wrong
        self.counts: list[dict] = []  # per-item work counts of a traced run

    def __len__(self):
        return len(self.k)

    def add(self, stream: int, k: int, seconds: float, outcome: Outcome, counts=None):
        if outcome.status in ("failed", "wrong"):
            self.detail[len(self)] = outcome.detail
        self.stream.append(stream)
        self.k.append(k)
        self.seconds.append(seconds)
        self.status.append(STATUSES.index(outcome.status))
        if counts is not None:
            self.counts.append(counts)

    def statuses(self) -> list[str]:
        return [STATUSES[s] for s in self.status]

    def groups(self, n_streams: int) -> list[list[int]]:
        """Item indices of each stream."""
        out: list[list[int]] = [[] for _ in range(n_streams)]
        for i, stream in enumerate(self.stream):
            out[stream].append(i)
        return out


def import_program() -> SimpleNamespace:
    """A fresh import of the xalpwb modules from the checkout's src/."""
    for name in [n for n in sys.modules if n == "xalpwb" or n.startswith("xalpwb.")]:
        del sys.modules[name]
    prog = SimpleNamespace(**{m: importlib.import_module(f"xalpwb.{m}") for m in MODULES})
    if not Path(prog.verify.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"xalpwb imported from {prog.verify.__file__}, not from {SRC}")
    return prog


def run_item(stream, k: int, tracer: Tracer | None = None, run=None):
    """(seconds, outcome, work counts) of item k; only run() is timed."""
    def untraced():
        return tracer.pause() if tracer else contextlib.nullcontext()

    with untraced():
        given = stream.prepare(k)
    if tracer:
        tracer.begin_item(f"{stream.name}/{k}")
    start = time.perf_counter()
    try:
        result, error = (run or stream.run)(given), None
    except Exception as exc:  # a raising item is counted as failed
        result, error = None, exc
    seconds = time.perf_counter() - start
    with untraced():
        if error is not None:
            outcome = Outcome("failed", f"{type(error).__name__}: {error}")
        else:
            outcome = stream.check(given, result)
    return seconds, outcome, (dict(tracer.item_counts) if tracer else None)


def measure(streams, seconds: float, balance: str, min_items: int) -> tuple[Items, str]:
    """Run the streams until the time is spent and every stream has run
    min_items items.  "count" takes one item of each stream per round, so
    every stream runs the same number of items.  "time" gives every stream
    the same share of the seconds, in turns of TURN_S item time: a turn of
    consecutive trials keeps one reduction's code warm, as `xalpwb verify`
    does.

    Returns the items and a digest of the statuses and verdicts of each
    stream's first min_items items, which every run of a seed runs."""
    items = Items()
    first: dict[tuple[int, int], str] = {}
    count = [0] * len(streams)
    used = [0.0] * len(streams)

    def run(index: int) -> float:
        k = count[index]
        spent, outcome, _ = run_item(streams[index], k)
        items.add(index, k, spent, outcome)
        if k < min_items:
            first[index, k] = f"{streams[index].name} {k} {outcome.status} {outcome.verdicts}"
        count[index] += 1
        used[index] += spent
        return spent

    start = time.perf_counter()
    if balance == "count":
        while min(count) < min_items or time.perf_counter() - start < seconds:
            for index in range(len(streams)):
                run(index)
    else:
        per_stream = seconds / len(streams)

        def wanting(index: int) -> bool:
            return count[index] < min_items or used[index] < per_stream

        while live := [i for i in range(len(streams)) if wanting(i)]:
            for index in live:
                turn = 0.0
                while turn < TURN_S and wanting(index):
                    turn += run(index)
    text = "\n".join(first[key] for key in sorted(first))
    return items, hashlib.sha256(text.encode()).hexdigest()[:16]


def share(items: Items, groups, statuses) -> float:
    """Share of items with one of the statuses, averaged over streams so
    that every stream counts the same, as in acceptance criterion 1."""
    codes = {STATUSES.index(s) for s in statuses}
    return statistics.fmean(sum(items.status[i] in codes for i in g) / len(g) for g in groups)


def end_to_end(items: Items, n_streams: int, balance: str, setup_s: float) -> dict:
    groups = items.groups(n_streams)
    if balance == "count":
        rate = len(items) / sum(items.seconds)
    else:
        # equal time per stream: the mean of the per-stream rates, so an
        # item that overruns its stream's share does not stretch the others
        rate = statistics.fmean(len(g) / sum(items.seconds[i] for i in g) for g in groups)
    q = statistics.quantiles([s * 1e3 for s in items.seconds], n=100, method="inclusive")
    return {
        "setup_s": setup_s,
        "checks_per_s": rate,
        "item_p50_ms": q[49],
        "item_p95_ms": q[94],
        "checked_share": share(items, groups, {"checked"}),
        "decided_share": 1 - share(items, groups, {"skipped"}),
        "completed_share": 1 - share(items, groups, {"failed", "wrong"}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, items: Items, reductions, untraced_wall: float,
              traced_wall: float) -> dict:
    t = tracer.totals
    statuses = items.statuses()
    m = {f"{layer}.self_s": tracer.self_s[layer] for layer in LAYERS}
    m.update({
        "verify.generate_s": t["verify.generate_instance.s"],
        "verify.lift_checks_skipped": statuses.count("unchecked"),
        "verify.lift_checks_run": sum(
            status != "unchecked" and counts.get("reductions.lift.calls", 0) > 0
            for status, counts in zip(statuses, items.counts)),
        "verify.items": len(items),
        "verify.source_n": t["verify.source_n"],
        "verify.source_m": t["verify.source_m"],
        "verify.source_width_max": t["verify.source_width_max"],
        "reductions.reduce_s": sum(t[f"reductions.{n}.s"] for n in reductions)
        + t["reductions.fixture.s"],
        "reductions.lift_s": t["reductions.lift.s"],
        "reductions.target_n": t["reductions.target_n"],
        "reductions.target_m": t["reductions.target_m"],
        "reductions.witness_width_max": t["reductions.witness_width_max"],
        "oracles.check_s": t["oracles.check.s"],
        "oracles.subset_masks": t["oracles.subset_masks"],
        "oracles.subset_space": t["oracles.subset_space"],
        "oracles.ds_treedp.calls": t["oracles.ds_treedp.calls"],
        "oracles.ds_treedp.s": t["oracles.ds_treedp.s"],
        "oracles.ds_bag_states": t["oracles.ds_bag_states"],
        "instances.validate_decomposition.calls": t["instances.validate_decomposition.calls"],
        "instances.validate_decomposition.s": t["instances.validate_decomposition.s"],
        "machines.exhausted": t["machines.exhausted"],
        "formats.serialize_s": t["formats.serialize.s"],
        "formats.parse_s": t["formats.parse.s"],
        "formats.bytes": t["formats.bytes"],
        "corpus.load_s": t["corpus.load_corpus.s"],
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_share": (traced_wall - untraced_wall) / untraced_wall,
        "trace.spans": len(tracer.spans),
    })
    for name in reductions:
        m[f"reductions.{name}.reduce_s"] = t[f"reductions.{name}.s"]
    for name in ("optimum_subset", "tcmc_bruteforce", "tcmc_traversal", "cnf_bruteforce",
                 "listcoloring", "is_treedp"):
        for key in ("calls", "s", "cap_exceeded"):
            m[f"oracles.{name}.{key}"] = t[f"oracles.{name}.{key}"]
    for name in ("stack", "stackalt", "alt", "balanced", "altstack", "shaped_run"):
        for key in ("calls", "s", "errors", "tree_nodes"):
            m[f"machines.{name}.{key}"] = t[f"machines.{name}.{key}"]
    return m


def write_trace(path_stem: str, tracer: Tracer, streams, untraced: Items, traced: Items):
    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / f"{path_stem}.spans.csv.gz", "wt", compresslevel=1, newline="") as fh:
        out = csv.writer(fh)
        out.writerow(("name", "layer", "start", "end", "parent", "item"))
        out.writerows(tracer.spans)
    with gzip.open(OUT / f"{path_stem}.items.jsonl.gz", "wt", compresslevel=1) as fh:
        for i, status in enumerate(untraced.statuses()):
            fh.write(json.dumps({
                "stream": streams[untraced.stream[i]].name, "k": untraced.k[i],
                "status": status, "untraced_s": untraced.seconds[i],
                "traced_s": traced.seconds[i], "counts": traced.counts[i]}) + "\n")


def unexpected(items: Items, known_failures: set[str]) -> list[int]:
    """Items that gave a wrong verdict or raised other than as a known defect."""
    def known(i: int, detail: str) -> bool:
        return (STATUSES[items.status[i]] == "failed"
                and set(detail.split("; ")) <= known_failures)

    return [i for i, detail in items.detail.items() if not known(i, detail)]


def output_problems(items: Items, streams, skip_budget: float,
                    known_failures: set[str]) -> list[str]:
    """Wrong verdicts, items that raised other than as a known defect, and
    streams that skip more than the program's skip budget."""
    problems = [f"{streams[items.stream[i]].name} item {items.k[i]}: {items.detail[i]}"
                for i in unexpected(items, known_failures)]
    skipped = STATUSES.index("skipped")
    for stream, group in zip(streams, items.groups(len(streams))):
        n_skipped = sum(items.status[i] == skipped for i in group)
        if n_skipped > skip_budget * len(group):
            problems.append(f"{stream.name}: {n_skipped} of {len(group)} items skipped")
    return problems


def set_up(workload: str, cfg: dict):
    """Import, corpus load and one warm-up item per stream at a fixed seed."""
    start = time.perf_counter()
    prog = import_program()
    corpus = prog.corpus.load_corpus()
    warm = build_streams(workload, prog, cfg, cfg["warmup_seed"], corpus)
    statuses = [run_item(stream, 0)[1].status for stream in warm]
    return time.perf_counter() - start, prog, corpus, statuses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cfg = json.loads((BENCH / "config.json").read_text())
    if args.workload == "all":
        # one process per workload, one after the other, so that each
        # reports its own peak memory
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], check=False).returncode
                 for name in cfg["workloads"]]
        return max(codes)
    if args.workload not in cfg["workloads"]:
        parser.error(f"unknown workload {args.workload!r}")
    workload = cfg["workloads"][args.workload]
    balance = workload["balance"]
    # the cap is passed explicitly; the environment must not change it
    os.environ.pop("XALPWB_CAP", None)
    sys.path.insert(0, str(SRC))
    setup_times, warm_statuses = [], []
    for _ in range(cfg["setup_repeats"]):
        try:
            spent, prog, corpus, statuses = set_up(args.workload, cfg)
        except ImportError as exc:
            print(f"cannot import the program: {exc}", file=sys.stderr)
            return 2
        setup_times.append(spent)
        warm_statuses.append(statuses)
    setup_s = statistics.median(setup_times)
    problems = []
    if any(s != warm_statuses[0] for s in warm_statuses):
        problems.append("warm-up verdicts differ between fresh imports")

    streams = build_streams(args.workload, prog, cfg, args.seed, corpus)
    seconds = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    items, run_digest = measure(streams, seconds, balance, cfg["min_items"])
    wall = time.perf_counter() - start
    known_failures = {d["failure"] for d in cfg["known_defects"]
                      if d.get("workload") == args.workload}
    problems += output_problems(items, streams, prog.verify.SKIP_BUDGET, known_failures)

    if args.trace:
        tracer = Tracer(prog.instances.CapExceeded)
        install(tracer, prog)
        try:
            tracer.begin_item("setup")
            prog.corpus.load_corpus()
            start = time.perf_counter()
            bench_run = [tracer.wrap("bench.item", "bench", s.run) for s in streams]
            traced = Items()
            for stream, k in zip(items.stream, items.k):
                traced.add(stream, k, *run_item(streams[stream], k, tracer, bench_run[stream]))
            traced_wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        if traced.status != items.status:
            problems.append("traced replay gave other verdicts than the untraced run")
        values = per_layer(tracer, traced, prog.reductions.REDUCTION_NAMES, wall, traced_wall)
        write_trace(f"{args.workload}-seed{args.seed}", tracer, streams, items, traced)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(items, len(streams), balance, setup_s)
        wanted = spec["end_to_end"]

    if args.workload == "machine-sweep":
        report = prog.verify.verify_machine_equivalences(corpus, prog.corpus.CORPUS_BUDGET)
        if not report.ok:
            problems.append(f"verify_machine_equivalences: {report.disagreements[:1]}")

    # an item that raised as a known defect is measured (completed_share,
    # machines.<evaluator>.errors) but is not a failed operation of the run
    failed = len(unexpected(items, known_failures))
    summarize(args, streams, items, setup_s, run_digest, problems,
              len(items.detail) - failed)
    result = {
        "correct": not problems,
        "attempted": len(items),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def summarize(args, streams, items: Items, setup_s: float, run_digest: str,
              problems: list[str], known_defect_items: int):
    out = io.StringIO()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {len(items)} items, setup {setup_s:.3f} s, "
          f"digest {run_digest}", file=out)
    if known_defect_items:
        print(f"  {known_defect_items} items failed as a known defect of config.json; "
              "they count in completed_share, not in the result's failed", file=out)
    for stream, group in zip(streams, items.groups(len(streams))):
        counts = [(s, sum(STATUSES[items.status[i]] == s for i in group)) for s in STATUSES]
        busy = sum(items.seconds[i] for i in group)
        print(f"  {stream.name:16s} {len(group):6d} items {busy:8.3f} s  "
              + " ".join(f"{s} {n}" for s, n in counts if n), file=out)
    for problem in problems[:10]:
        print(f"WRONG {problem}", file=out)
    print(out.getvalue(), end="")


if __name__ == "__main__":
    sys.exit(main())
