"""Layer tracing from outside the program.

The tracer rebinds public functions of the xalpwb modules (module attributes
and registry dict entries) to timing wrappers.  Each wrapped call records a
span (name, layer, start, end, parent, item) in memory and adds its
duration, minus the time of its wrapped callees, to its layer's self time.
Work counts computed from each call's inputs and results are added both to
run totals and to the current item's record.

``check_subset_solution`` runs once per enumerated subset (up to 2^20 times
in one call of ``optimum_subset``), so it is tallied without a span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, cap_error: type[Exception]):
        self.cap_error = cap_error  # counted apart from other exceptions
        self.spans: list[tuple] = []  # (name, layer, start, end, parent, item)
        self.self_s: dict[str, float] = defaultdict(float)
        self.totals: dict[str, float] = defaultdict(float)
        self.item_counts: dict[str, float] = defaultdict(float)
        self.item = None
        self.paused = False
        self._open: list[list] = []  # [span index, seconds spent in callees]
        self._restore: list = []

    # ------------------------------------------------------------ counting

    def add(self, key: str, value: float = 1):
        self.totals[key] += value
        self.item_counts[key] += value

    def peak(self, key: str, value: float):
        self.totals[key] = max(self.totals[key], value)
        self.item_counts[key] = max(self.item_counts[key], value)

    def begin_item(self, item):
        self.item = item
        self.item_counts = defaultdict(float)

    @contextmanager
    def pause(self):
        """Calls made by the benchmark's own checks are not traced."""
        self.paused, was = True, self.paused
        try:
            yield
        finally:
            self.paused = was

    # ------------------------------------------------------------ wrapping

    def wrap(self, name: str, layer: str, fn, before=None, after=None):
        """A wrapper recording one span per call; before(args, kwargs) and
        after(args, kwargs, result) add work counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            index = len(self.spans)
            parent = self._open[-1][0] if self._open else -1
            frame = [index, 0.0]
            self.spans.append(None)
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                kind = "cap_exceeded" if isinstance(exc, self.cap_error) else "errors"
                self.add(f"{name}.{kind}")
                raise
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (name, layer, start, end, parent, self.item)
                self.self_s[layer] += end - start - frame[1]
                if self._open:
                    self._open[-1][1] += end - start
                self.add(f"{name}.calls")
                self.add(f"{name}.s", end - start)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def tally(self, name: str, layer: str, fn):
        """A span-free wrapper for leaf functions called per enumerated
        candidate: counts calls and time, charges them to the caller."""

        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                self.self_s[layer] += spent
                if self._open:
                    self._open[-1][1] += spent
                self.add(f"{name}.calls")
                self.add(f"{name}.s", spent)

        return tallied

    def patch(self, owner, key, wrapper):
        """Rebind owner.key (a module attribute) or owner[key] (a registry
        entry) until uninstall()."""
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = wrapper
        else:
            self._restore.append((owner, key, getattr(owner, key)))
            setattr(owner, key, wrapper)

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


# ------------------------------------------------------------ the layers

ORACLES = {
    "solve_tcmc_bruteforce": "tcmc_bruteforce",
    "solve_tcmc_traversal": "tcmc_traversal",
    "solve_cnf_bruteforce": "cnf_bruteforce",
    "solve_listcoloring": "listcoloring",
    "solve_is_treedp": "is_treedp",
    "solve_ds_treedp": "ds_treedp",
    "solve_is_ds_vc": "is_ds_vc",
    "optimum_subset": "optimum_subset",
    "check_tcmc_solution": "check_tcmc",
    "check_cnf_solution": "check_cnf",
    "check_coloring": "check_coloring",
}

VERIFY_ENTRIES = ("verify_reduction", "verify_chain", "replay_counterexample")


def instance_size(prog, obj) -> tuple[int, int, int]:
    """(n, m, width) of an instance: vertices or variables, edges or
    clauses, and the decomposition width, the parameter k of a
    tree-chained instance, or the work cells of a machine source."""
    inst = prog.instances
    if isinstance(obj, tuple):  # atm source: machine, input, shape, blocks, beta
        machine, _, shape, blocks, beta = obj
        return shape.n, len(machine.transitions), blocks * beta
    if isinstance(obj, inst.LogTwGraphInstance):
        return obj.graph.n, len(obj.graph.edges), obj.decomposition.width()
    if isinstance(obj, inst.TreeChainedCnf):
        variables = set().union(*obj.variable_sets.values())
        return len(variables), len(obj.clauses), obj.k
    if isinstance(obj, inst.TcmcInstance):
        return obj.graph.n, len(obj.graph.edges), obj.k
    if isinstance(obj, inst.ListColoringInstance):
        return obj.graph.n, len(obj.graph.edges), 0
    raise TypeError(f"no size for {type(obj).__name__}")


def install(tracer: Tracer, prog):
    """Wrap the public entry points of every layer of the imported program
    (a namespace holding the xalpwb modules)."""
    verify, oracles, machines = prog.verify, prog.oracles, prog.machines

    def subset_ground(args, kwargs) -> int:
        graph, problem = args[0], args[1]
        if problem == "rbds":
            return sum(1 for v in graph.vertices() if graph.labels.get(v) == "blue")
        return graph.n

    def before_subset(args, kwargs):
        tracer.add("oracles.subset_space", float(2 ** subset_ground(args, kwargs)))

    def after_subset(args, kwargs, result):
        tracer.add("oracles.subset_masks", float(2 ** subset_ground(args, kwargs)))

    def before_ds(args, kwargs):
        bags = args[0].decomposition.bags.values()
        tracer.add("oracles.ds_bag_states", float(3 ** max(len(b) for b in bags)))

    hooks = {"optimum_subset": (before_subset, after_subset),
             "solve_ds_treedp": (before_ds, None)}
    for attr, short in ORACLES.items():
        before, after = hooks.get(attr, (None, None))
        tracer.patch(oracles, attr, tracer.wrap(
            f"oracles.{short}", "oracles", getattr(oracles, attr), before, after))
    tracer.patch(oracles, "check_subset_solution", tracer.tally(
        "oracles.check", "oracles", oracles.check_subset_solution))
    tracer.patch(oracles, "validate_decomposition", tracer.wrap(
        "instances.validate_decomposition", "instances", oracles.validate_decomposition))

    def lifted(fn):
        return tracer.wrap("reductions.lift", "reductions", fn)

    def after_reduce(args, kwargs, art):
        n, m, _ = instance_size(prog, art.target)
        tracer.add("reductions.target_n", n)
        tracer.add("reductions.target_m", m)
        if art.witness is not None:
            tracer.peak("reductions.witness_width_max", art.witness.width())
        art.lift.forward = lifted(art.lift.forward)
        art.lift.backward = lifted(art.lift.backward)

    for name, fn in list(prog.reductions.REDUCTIONS.items()):
        tracer.patch(prog.reductions.REDUCTIONS, name, tracer.wrap(
            f"reductions.{name}", "reductions", fn, after=after_reduce))
    for name, fn in list(verify.FIXTURES.items()):
        tracer.patch(verify.FIXTURES, name, tracer.wrap(
            "reductions.fixture", "reductions", fn, after=after_reduce))
    # the logtw-rbds generator draws its instances through vc-rbds
    tracer.patch(verify, "reduce_vc_to_rbds", tracer.wrap(
        "reductions.vc-rbds", "reductions", verify.reduce_vc_to_rbds, after=after_reduce))

    def after_generate(args, kwargs, source):
        n, m, width = instance_size(prog, source)
        tracer.add("verify.source_n", n)
        tracer.add("verify.source_m", m)
        tracer.peak("verify.source_width_max", width)

    tracer.patch(verify, "generate_instance", tracer.wrap(
        "verify.generate_instance", "verify", verify.generate_instance, after=after_generate))
    for attr in VERIFY_ENTRIES:
        tracer.patch(verify, attr, tracer.wrap(f"verify.{attr}", "verify", getattr(verify, attr)))

    def after_eval(name):
        def after(args, kwargs, stats):
            tracer.add(f"{name}.tree_nodes", stats.tree_nodes)
            tracer.add("machines.exhausted", int(stats.exhausted))
        return after

    for key, fn in list(machines.EVALUATORS.items()):
        name = f"machines.{key}"
        tracer.patch(machines.EVALUATORS, key,
                     tracer.wrap(name, "machines", fn, after=after_eval(name)))

    def after_shaped(args, kwargs, run):
        tracer.add("machines.shaped_run.tree_nodes", len(run) if run else 0)

    shaped = tracer.wrap("machines.shaped_run", "machines", machines.shaped_run,
                         after=after_shaped)
    tracer.patch(machines, "shaped_run", shaped)
    tracer.patch(verify, "shaped_run", shaped)

    def after_serialize(args, kwargs, text):
        tracer.add("formats.bytes", len(text))

    def before_parse(args, kwargs):
        tracer.add("formats.bytes", len(args[1]))

    tracer.patch(verify, "serialize_instance", tracer.wrap(
        "formats.serialize", "formats", verify.serialize_instance, after=after_serialize))
    tracer.patch(verify, "parse_instance", tracer.wrap(
        "formats.parse", "formats", verify.parse_instance, before=before_parse))
    tracer.patch(prog.corpus, "load_corpus", tracer.wrap(
        "corpus.load_corpus", "corpus", prog.corpus.load_corpus))
