"""Randomized small-instance generators and the cross-validation harness
certifying every reduction and evaluator-equivalence claim.

Each problem family's format, solution checker, solve table and generator
sit in one registry, FAMILIES, which the CLI reads too; the first entry of
a family's solve table is its exact oracle.  The atm source of atm-tcmc is
one more family, decided by its shaped run.  One pipeline runs every trial,
and a reduction's trial is its chain of one.  Each stage checks its
contract on its own input.  A solvable source's solution is carried forward,
checked on each stage's target; the end's solution is then lifted back,
checked on each stage's source and, lifted forward again, on its target.
The end's oracle decides the end of an unsolvable source and of a chain of
one, whose backward pass starts from that oracle's solution.  The logtw
families are solved by the decomposition DP; a DS or RBDS instance is first
tried against a dominator packing, which refutes it when larger than its
threshold, and the DP decides the rest.  Subset enumeration stays the
oracles' small-n cross-check.  Each reduction's contract (CONTRACTS) names
its families, the parameter rules its measured k and k' obey, and for some
the size rules its target obeys.  Trials are
deterministic in (name, profile, seed); disagreements, any error a trial
raises among them, carry a replayable serialized counterexample and their
detail as a note.  Skips (an oracle's cap reached, or a stage's source
outside its domain) are reported separately with their reason as a note,
and a report only passes when skips stay at or below 20% of the trials.
"""

from __future__ import annotations

import math
import random
import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Callable

from . import oracles
from .corpus import MAX_INPUT_LEN, corpus_inputs
from .formats import parse_instance, serialize_instance
from .instances import (
    CapExceeded,
    DomainError,
    Graph,
    InvariantViolation,
    ListColoringInstance,
    LogTwGraphInstance,
    OrderedTree,
    TcmcInstance,
    TreeChainedCnf,
    TreeDecomposition,
    XalpwbError,
    constrained_class_pairs,
    log_width_parameter,
    normalize_edge,
)
from .machines import (
    EVALUATORS,
    Action,
    AtmInstance,
    MachineSpec,
    SemanticsMismatch,
    check_shaped_run,
    shaped_run,
    smallest_tree_shape,
)
from .reductions import (
    REDUCTION_NAMES,
    REDUCTIONS,
    ReductionArtifact,
    reduce_negcnf_to_poscnf,
    reduce_vc_to_rbds,
)

SKIP_BUDGET = 0.2  # reports fail past this fraction of skipped trials
RATIO_C = 8  # an accepted stack run's stackalt tree stays within C*(steps+1) nodes


@dataclass
class VerificationReport:
    """Aggregate outcome of a verification run; trials split into
    agreements, disagreements (with replayable counterexamples) and skips."""

    name: str
    seed: int
    trials: int
    agreements: int = 0
    disagreements: list[tuple[int, str]] = field(default_factory=list)
    skips: list[int] = field(default_factory=list)
    resource_notes: list[str] = field(default_factory=list)

    def finish(self):
        total = self.agreements + len(self.disagreements) + len(self.skips)
        if total != self.trials:
            raise InvariantViolation(
                f"report books do not balance: {total} outcomes for {self.trials} trials")
        return self

    @property
    def skip_budget(self) -> float:
        """The most skips a passing report may have."""
        return SKIP_BUDGET * max(self.trials, 1)

    @property
    def ok(self) -> bool:
        if self.disagreements:
            return False
        return len(self.skips) <= self.skip_budget

    def serialize(self) -> str:
        lines = [f"report {self.name} seed {self.seed} trials {self.trials}"]
        bad = {i for i, _ in self.disagreements}
        skipped = set(self.skips)
        for i in range(self.trials):
            if i in bad:
                lines.append(f"trial {i} disagree counterexample-{i}")
            elif i in skipped:
                lines.append(f"trial {i} skip")
            else:
                lines.append(f"trial {i} agree")
        for note in self.resource_notes:
            lines.append(f"note {note}")
        return "\n".join(lines) + "\n"


# ------------------------------------------------------------- generators

def _rng_for(family: str, profile: dict, seed: int) -> random.Random:
    key = f"{family}|{seed}|" + ",".join(f"{k}={profile[k]}" for k in sorted(profile))
    return random.Random(key)


def _random_binary_tree(rng: random.Random, nodes: int) -> OrderedTree:
    children: dict[int, list[int]] = {}
    open_slots = [1]
    for node in range(2, nodes + 1):
        parent = rng.choice(sorted(open_slots))
        children.setdefault(parent, []).append(node)
        if len(children[parent]) == 2:
            open_slots.remove(parent)
        open_slots.append(node)
    return OrderedTree(n=nodes, children={p: tuple(cs) for p, cs in children.items()})


def _generate_tcmc(rng: random.Random, profile: dict) -> TcmcInstance:
    nodes = rng.randint(1, profile["tree_nodes"])
    tree = _random_binary_tree(rng, nodes)
    k = profile["k"]
    boundary = rng.random()
    classes = {}
    nxt = 1
    for i in range(1, nodes + 1):
        for j in range(1, k + 1):
            size = 1 if boundary < 0.15 else rng.randint(1, profile["max_class"])
            classes[(i, j)] = frozenset(range(nxt, nxt + size))
            nxt += size
    n = nxt - 1
    pairs = []
    for a, b in constrained_class_pairs(tree, k):
        for u in sorted(classes[a]):
            for v in sorted(classes[b]):
                pairs.append((u, v))
    edges: set[tuple[int, int]] = set()
    if boundary < 0.3:
        prob = 0.0 if boundary < 0.22 else 1.0  # empty / saturated extremes
    else:
        prob = rng.uniform(0.15, 0.5)
    for u, v in pairs:
        if len(edges) >= profile["max_edges"]:
            break
        if rng.random() < prob:
            edges.add(normalize_edge(u, v))
    return TcmcInstance(tree=tree, k=k, classes=classes,
                        graph=Graph(n=n, edges=frozenset(edges)))


def _generate_listcol(rng: random.Random, profile: dict) -> ListColoringInstance:
    n = rng.randint(1, profile["n"])
    palette = frozenset(range(1, profile["palette"] + 1))
    edges = set()
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < profile["edge_prob"]:
                edges.add((u, v))
    lists = {}
    for v in range(1, n + 1):
        size = rng.randint(1, len(palette))
        lists[v] = frozenset(rng.sample(sorted(palette), size))
    graph = Graph(n=n, edges=frozenset(edges))
    return ListColoringInstance(graph=graph, palette=palette, lists=lists,
                                decomposition=oracles.min_degree_decomposition(graph))


def _generate_cnf(rng: random.Random, profile: dict, variant: str) -> TreeChainedCnf:
    nodes = rng.randint(1, profile["tree_nodes"])
    tree = _random_binary_tree(rng, nodes)
    k = profile["k"]
    partition = {}
    variable_sets: dict[int, set[int]] = {i: set() for i in range(1, nodes + 1)}
    nxt = 1
    for i in range(1, nodes + 1):
        for j in range(1, k + 1):
            size = rng.randint(1, profile["max_cell"])
            cell = frozenset(range(nxt, nxt + size))
            partition[(i, j)] = cell
            variable_sets[i] |= cell
            nxt += size
    scopes = [(i, i) for i in range(1, nodes + 1)]
    scopes += [(p, c) for p, c in tree.edge_list()]
    clauses = []
    n_clauses = rng.randint(0, profile["clauses"])
    sign = -1 if variant == "negative-partitioned" else 1
    for _ in range(n_clauses):
        a, b = scopes[rng.randrange(len(scopes))]
        pool = sorted(variable_sets[a] | variable_sets[b])
        width = rng.randint(1, min(3, len(pool)))
        lits = tuple(sign * v for v in rng.sample(pool, width))
        clauses.append(lits)
    return TreeChainedCnf(
        tree=tree,
        variable_sets={i: frozenset(vs) for i, vs in variable_sets.items()},
        clauses=tuple(clauses), variant=variant, k=k, partition=partition)


def _generate_logtw(rng: random.Random, profile: dict, problem: str) -> LogTwGraphInstance:
    nodes = rng.randint(1, profile["tree_nodes"])
    tree = _random_binary_tree(rng, nodes)
    n = rng.randint(2, profile["n"])
    bags: dict[int, set[int]] = {i: set() for i in range(1, nodes + 1)}
    for v in range(1, n + 1):
        start = rng.randint(1, nodes)
        bags[start].add(v)
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for c in tree.child_list(i):
                if len(bags[c]) < profile["max_bag"] and rng.random() < 0.4:
                    bags[c].add(v)
                    frontier.append(c)
    dec = TreeDecomposition(tree=tree,
                            bags={i: frozenset(b) for i, b in bags.items()})
    edges = set()
    for b in bags.values():
        for u in sorted(b):
            for v in sorted(b):
                if u < v and rng.random() < 0.45:
                    edges.add((u, v))
    graph = Graph(n=n, edges=frozenset(edges))
    target = rng.randint(0, n)
    return LogTwGraphInstance(graph=graph, decomposition=dec, target_weight=target,
                              k=log_width_parameter(dec.width(), n), problem=problem)


def _generate_logtw_rbds(rng: random.Random, profile: dict) -> LogTwGraphInstance:
    # through this module's reduce_vc_to_rbds, which a tracer may rebind
    return reduce_vc_to_rbds(_generate_logtw(rng, profile, "vc")).target


def _generate_atm(rng: random.Random, profile: dict) -> AtmInstance:
    """A small stack-free machine plus shape tree, input, and block layout.

    Half of the shapes are taken from an actual accepting computation tree
    of the machine (when one small enough exists), so accepting and
    rejecting shaped runs both occur regularly."""
    blocks, beta = profile["blocks"], profile["beta"]
    cells = blocks * beta
    n_exist = rng.randint(1, 2)
    states = [f"e{i}" for i in range(n_exist)] + ["u0", "acc"]
    mode = {f"e{i}": "exist" for i in range(n_exist)}
    mode["u0"] = "univ"
    mode["acc"] = "det"
    accepting = frozenset({"acc"})
    non_acc = [q for q in states if q != "acc"]
    in_syms = ["#", "0", "1"]
    work_syms = ["0", "1"]
    transitions: dict[tuple[str, str, str], tuple[Action, ...]] = {}
    for q in non_acc:
        for a in in_syms:
            for w in work_syms:
                if rng.random() < 0.35:
                    continue  # leave some read tuples stuck
                fanout = 2 if mode[q] == "univ" else rng.randint(1, 2)
                acts = []
                for _ in range(fanout):
                    # bias toward acceptance so shaped runs of both outcomes
                    # show up regularly
                    target = "acc" if rng.random() < 0.4 else rng.choice(states)
                    acts.append(Action(
                        state=target,
                        write=rng.choice(work_syms),
                        dw=rng.choice((-1, 0, 1)),
                        di=rng.choice((-1, 0, 1)),
                        stack_op=None))
                transitions[(q, a, w)] = tuple(acts)
    machine = MachineSpec(
        states=tuple(states), initial=states[0], accepting=accepting,
        mode=mode, work_cells=cells, work_alphabet=("0", "1"),
        transitions=transitions)
    x = "".join(rng.choice("01") for _ in range(rng.randint(0, profile["input_len"])))
    low = profile["min_shape_nodes"]
    shape = None
    if rng.random() < 0.5:
        shape = smallest_tree_shape(machine, x, profile["shape_nodes"])
        if shape is not None and shape.n < low:
            shape = None
    if shape is None:
        shape = _random_binary_tree(rng, rng.randint(low, profile["shape_nodes"]))
    return AtmInstance(machine, x, shape, blocks, beta)


def generate_instance(family: str, size_profile: dict | None = None, seed: int = 0):
    """Deterministic random instance of the family, drawn by its FAMILIES
    entry; profiles are merged over the entry's default profile and biased
    toward boundary structures."""
    entry = FAMILIES.get(family)
    if entry is None or entry.generate is None:
        raise InvariantViolation(f"unknown generator family {family!r}")
    profile = {**entry.profile, **(size_profile or {})}
    return entry.generate(_rng_for(family, profile, seed), profile)


# ------------------------------------------------------- family registry


@dataclass(frozen=True)
class Family:
    """One problem family: its CLI --problem name (None when the CLI does not
    solve it), its parse_instance format tag, its solution checker, its
    solvers, and parameter(instance), which measures the instance's
    parameter.  A family that trials draw sources from has generate(rng,
    profile), which draws one from a random.Random and its default profile
    updated by the caller's; the others have None.

    solvers is the family's one solve table: solver name -> solve(instance,
    cap, threshold), returning (solvable, solution or None), with threshold
    None meaning the instance's own size target (only logtw instances carry
    one; the other solvers ignore it).  Its first entry is the exact oracle
    that decide runs; the CLI's --solver picks any entry.  tcmc and tcmis
    list the tree traversal first, whose choice is the brute force's
    wherever the brute force fits its cap.  The logtw families list treedp
    first, which for DS and RBDS returns (False, None) without the DP when a
    dominator packing is larger than the threshold, and runs the DP
    otherwise.  atm's one solver is its shaped run, which the CLI does not
    offer.  Every solver looks its oracle up in the oracles module (atm's:
    this module's shaped_run) when called, so rebinding an oracle there
    reaches the registry."""

    problem: str | None
    format: str
    check: Callable
    solvers: dict[str, Callable]
    parameter: Callable = lambda instance: instance.k
    generate: Callable | None = None
    profile: dict = field(default_factory=dict)

    def decide(self, instance, cap):
        """The first solver's verdict and solution at the instance's own
        threshold."""
        return next(iter(self.solvers.values()))(instance, cap, None)


_TCMC_PROFILE = {"tree_nodes": 3, "k": 2, "max_class": 2, "max_edges": 12}
_LOGTW_PROFILE = {"tree_nodes": 3, "n": 7, "max_bag": 4}


def _tcmc_family(problem: str, mode: str) -> Family:
    return Family(
        problem, "tcmc",
        lambda instance, choice: oracles.check_tcmc_solution(instance, mode, choice),
        {"traversal": lambda instance, cap, threshold:
            oracles.solve_tcmc_traversal(instance, mode, cap=cap),
         "brute": lambda instance, cap, threshold:
            oracles.solve_tcmc_bruteforce(instance, mode, cap=cap)},
        generate=_generate_tcmc, profile=_TCMC_PROFILE)


def _logtw_family(problem: str, **draw) -> Family:
    dominate = oracles.SUBSET_PROBLEMS[problem].condition == "dominate"

    def treedp(instance, cap, threshold, on=None):
        threshold = instance.target_weight if threshold is None else threshold
        if dominate and oracles.dominator_packing(instance.graph, problem) > threshold:
            return False, None
        best, solution = oracles.optimum_treedp(instance, problem, cap=cap, on=on)
        ok = oracles.meets_target(problem, best, threshold)
        return ok, solution if ok else None

    def brute(instance, cap, threshold):
        threshold = instance.target_weight if threshold is None else threshold
        return oracles.solve_is_ds_vc(instance.graph, problem, threshold, cap=cap)

    def check(instance, solution):
        s = frozenset(solution)
        return (oracles.check_subset_solution(instance.graph, problem, s)
                and oracles.meets_target(problem, len(s), instance.target_weight))

    return Family(problem, "logtw", check, {"treedp": treedp, "brute": brute}, **draw)


def _shaped(instance: AtmInstance, cap, threshold):
    run = shaped_run(instance.machine, instance.x, instance.shape)
    return run is not None, run


def _cnf_family(**draw) -> Family:
    return Family(
        "cnf", "cnf",
        lambda instance, true_vars: oracles.check_cnf_solution(instance, frozenset(true_vars)),
        {"brute": lambda instance, cap, threshold: oracles.solve_cnf_bruteforce(instance, cap=cap)},
        **draw)


# family name -> Family; the families of every contract in CONTRACTS have
# an entry
FAMILIES = {
    "atm": Family(None, "atm", check_shaped_run, {"shaped": _shaped},
                  parameter=lambda instance: instance.blocks, generate=_generate_atm,
                  profile={"states": 3, "shape_nodes": 4, "min_shape_nodes": 1,
                           "input_len": 2, "blocks": 2, "beta": 1}),
    "tcmc": _tcmc_family("tcmc", "clique"),
    "tcmis": _tcmc_family("tcmis", "independent-set"),
    "listcol": Family(
        "listcol", "listcol",
        lambda instance, coloring: oracles.check_coloring(instance, coloring),
        {"brute": lambda instance, cap, threshold: oracles.solve_listcoloring(instance, cap=cap)},
        lambda instance: 0 if instance.width is None else instance.width,
        generate=_generate_listcol, profile={"n": 5, "palette": 4, "edge_prob": 0.4}),
    "negcnf": _cnf_family(
        generate=functools.partial(_generate_cnf, variant="negative-partitioned"),
        profile={"tree_nodes": 3, "k": 2, "max_cell": 2, "clauses": 5}),
    "poscnf": _cnf_family(
        generate=functools.partial(_generate_cnf, variant="positive-partitioned"),
        profile={"tree_nodes": 2, "k": 2, "max_cell": 2, "clauses": 4}),
    "gencnf": _cnf_family(),
    **{f"logtw-{p}": _logtw_family(
        p, generate=functools.partial(_generate_logtw, problem=p), profile=_LOGTW_PROFILE)
       for p in ("is", "vc")},
    "logtw-rbds": _logtw_family("rbds", generate=_generate_logtw_rbds,
                                profile={"tree_nodes": 2, "n": 5, "max_bag": 3}),
    "logtw-ds": _logtw_family("ds"),
}


# ----------------------------------------------------- reduction contracts


@dataclass(frozen=True)
class Contract:
    """What a reduction promises: the families it takes (trials generate
    the first) and the one it builds, the _RULES its measured parameters
    obey, and further checks(source, artifact), each returning a problem
    text or None."""

    sources: tuple[str, ...]
    target: str
    rules: tuple[str, ...]
    checks: tuple[Callable, ...] = ()

    def parameters(self, source, art: ReductionArtifact) -> tuple[int, int]:
        """k and k' of one step, measured on the source and on the target."""
        return (FAMILIES[self.sources[0]].parameter(source),
                FAMILIES[self.target].parameter(art.target))


def _at_most_2k_minus_1(k, k_out, width_in, art, notes):
    notes.append(f"listcol-width {k_out} bound {2 * k - 1}")
    return f"witness width {k_out} > 2k-1 = {2 * k - 1}" if k_out > 2 * k - 1 else None


def _width_plus_one(k, k_out, width_in, art, notes):
    if width_in is None:
        notes.append("width rule not checked: no witness")
    elif art.target.width > width_in + 1:
        return f"witness width {art.target.width} grew past {width_in}+1"
    return None


# parameter rule -> check(k, k_out, width_in, art, notes) on the measured k
# and k', the width of the source's decomposition (None without one) and the
# artifact; it returns a problem text or None, and may add notes
_RULES = {
    "k'=k": lambda k, k_out, width_in, art, notes:
        None if k_out == k else "parameter changed under a k'=k reduction",
    "k'<=2k-1": _at_most_2k_minus_1,
    "width+<=1": _width_plus_one,
    # on the width of the target's own decomposition, which its k bounds
    "k'=ceil(width/ceil(log2 n))": lambda k, k_out, width_in, art, notes:
        None if k_out == log_width_parameter(art.target.width, art.target.graph.n)
        else f"k' {k_out} does not match ceil(width/ceil(log2 n))",
}


def _size_target(source: TreeChainedCnf, art: ReductionArtifact) -> str | None:
    """poscnf-logtwis's size target: the bits of every cell, and 2 plus the
    length padded to even of every cell and clause."""
    cells = source.partition.values()
    lengths = [len(cell) for cell in cells] + [len(clause) for clause in source.clauses]
    expect = (sum(max(len(cell) - 1, 0).bit_length() for cell in cells)
              + sum(2 + ell + ell % 2 for ell in lengths))
    weight = art.target.target_weight
    return f"size target {weight} != {expect}" if weight != expect else None


def _graph_measures(instance: LogTwGraphInstance) -> dict[str, int]:
    """n, m, the blue and red label counts, the decomposition's tree nodes
    and the size target W of a logtw instance."""
    labels = list(instance.graph.labels.values())
    return {"n": instance.graph.n, "m": len(instance.graph.edges),
            "blue": labels.count("blue"), "red": labels.count("red"),
            "nodes": instance.decomposition.tree.n, "W": instance.target_weight}


def _measures_differ(target: LogTwGraphInstance, want: dict[str, int]) -> str | None:
    got = _graph_measures(target)
    wrong = [f"{key}' {got[key]} != {value}" for key, value in want.items() if got[key] != value]
    return "size rule: " + ", ".join(wrong) if wrong else None


def _is_vc_sizes(source: LogTwGraphInstance, art: ReductionArtifact) -> str | None:
    """is-vc keeps the source's graph and decomposition, with W' = n - W
    (reduce_is_to_vc)."""
    if (art.target.graph, art.target.decomposition) != (source.graph, source.decomposition):
        return "size rule: the target's graph or decomposition is not the source's"
    return _measures_differ(art.target, {"W": source.graph.n - source.target_weight})


def _vc_rbds_sizes(source: LogTwGraphInstance, art: ReductionArtifact) -> str | None:
    """vc-rbds subdivides each of the m edges by a red vertex, labels the n
    source vertices blue and hangs one tree node per edge: n' = n + m,
    m' = 2m, n blue and m red, m more nodes, W' = W (reduce_vc_to_rbds)."""
    n, m = source.graph.n, len(source.graph.edges)
    return _measures_differ(art.target, {
        "n": n + m, "m": 2 * m, "blue": n, "red": m,
        "nodes": source.decomposition.tree.n + m, "W": source.target_weight})


def _rbds_ds_sizes(source: LogTwGraphInstance, art: ReductionArtifact) -> str | None:
    """rbds-ds adds x0 and x1, the edge x0x1, an edge from x1 to every blue
    vertex and one tree node: n' = n + 2, m' = m + 1 + #blue, one more node,
    W' = W + 1 (reduce_rbds_to_ds)."""
    return _measures_differ(art.target, {
        "n": source.graph.n + 2, "m": len(source.graph.edges) + 1 + len(source.blue_vertices()),
        "nodes": source.decomposition.tree.n + 1, "W": source.target_weight + 1})


# reduction or fault fixture name -> its contract
CONTRACTS = {
    "atm-tcmc": Contract(("atm",), "tcmc", ("k'=k",)),
    "tcmc-tcmis": Contract(("tcmc",), "tcmis", ("k'=k",)),
    "tcmis-listcol": Contract(("tcmis",), "listcol", ("k'<=2k-1",)),
    "listcol-precol": Contract(("listcol",), "listcol", ("width+<=1",)),
    "tcmis-negcnf": Contract(("tcmis",), "negcnf", ("k'=k",)),
    "negcnf-poscnf": Contract(("negcnf",), "poscnf", ("k'=k",)),
    "part-gencnf": Contract(("poscnf", "negcnf"), "gencnf", ("k'=k",)),
    "poscnf-logtwis": Contract(("poscnf",), "logtw-is", ("k'=ceil(width/ceil(log2 n))",),
                               (_size_target,)),
    "is-vc": Contract(("logtw-is",), "logtw-vc", ("k'=k",), (_is_vc_sizes,)),
    "vc-rbds": Contract(("logtw-vc",), "logtw-rbds",
                        ("width+<=1", "k'=ceil(width/ceil(log2 n))"), (_vc_rbds_sizes,)),
    "rbds-ds": Contract(("logtw-rbds",), "logtw-ds",
                        ("width+<=1", "k'=ceil(width/ceil(log2 n))"), (_rbds_ds_sizes,)),
    # the fault fixture (FIXTURES) breaks negcnf-poscnf
    "negcnf-poscnf!faulty": Contract(("negcnf",), "poscnf", ("k'=k",)),
}


# -------------------------------------------------------- counterexamples


def _source_format(name: str) -> str:
    """The format tag of the source of a reduction or "chain:a,b,c" name."""
    first = name.split(",")[0].removeprefix("chain:")
    _lookup_reduction(first)
    return FAMILIES[CONTRACTS[first].sources[0]].format


def serialize_counterexample(name: str, source) -> str:
    """Self-contained replayable record: the failing reduction (or chain)
    plus its serialized source instance."""
    return "\n".join(["xalpwb 1", f"counterexample {name}",
                      f"section instance {_source_format(name)}",
                      *serialize_instance(source).splitlines()[1:]]) + "\n"


def parse_counterexample(text: str):
    """Returns (name, source object) parsed from a serialized
    counterexample; name is a reduction name or "chain:a,b,c"."""
    lines = text.splitlines()
    header, head, section = (lines + ["", "", ""])[:3]
    if header.strip() != "xalpwb 1":
        raise InvariantViolation("counterexample must start with the header")
    head, section = head.split(), section.split()
    if len(head) != 2 or head[0] != "counterexample":
        raise InvariantViolation("missing 'counterexample <name>' record")
    tag = _source_format(head[1])
    if section != ["section", "instance", tag]:
        raise InvariantViolation(f"missing 'section instance {tag}' record")
    # blank lines in place of the two records read here keep line numbers
    return head[1], parse_instance(tag, "\n".join([header, "", "", *lines[3:]]))


def replay_counterexample(text: str, cap: int | None = None) -> bool:
    """Re-run a serialized counterexample; True when the disagreement (or
    resource violation) reproduces."""
    name, source = parse_counterexample(text)
    return run_chain_trial(name.removeprefix("chain:").split(","), source,
                           cap=cap).status == "disagree"


# ------------------------------------------------------------- the trials


@dataclass
class TrialOutcome:
    status: str  # agree | disagree | skip
    detail: str = ""
    notes: list[str] = field(default_factory=list)


def _lookup_reduction(name: str):
    if name not in CONTRACTS:
        raise InvariantViolation(f"unknown reduction {name!r}")
    return REDUCTIONS[name] if name in REDUCTIONS else FIXTURES[name]


def _booked(trial) -> TrialOutcome:
    """Run a trial.  A source outside a stage's domain and an oracle over
    its cap make it a skip; any other program error is a disagreement."""
    try:
        return trial()
    except (DomainError, CapExceeded) as exc:
        return TrialOutcome("skip", detail=str(exc))
    except XalpwbError as exc:
        return TrialOutcome("disagree", detail=f"{type(exc).__name__}: {exc}")


def run_trial(name: str, source, cap: int | None = None) -> TrialOutcome:
    """One reduction's trial on a given source: its chain of one."""
    return run_chain_trial([name], source, cap=cap)


def _resource_checks(contract: Contract, source, art: ReductionArtifact,
                     notes: list[str]) -> list[str]:
    """Note the witness's width, then check the contract's rules and further
    checks.  The witness is the target's own decomposition, which the
    target validated when it was built."""
    if art.witness is not None:
        notes.append(f"witness-width {art.target.width}")
    k, k_out = contract.parameters(source, art)
    width_in = getattr(source, "width", None)
    found = [_RULES[rule](k, k_out, width_in, art, notes) for rule in contract.rules]
    found += [check(source, art) for check in contract.checks]
    return [problem for problem in found if problem]


def _run_trials(name: str, chain: list[str], trials: int, seed: int, cap: int | None,
                profile: dict | None) -> VerificationReport:
    """The seeded trial loop of every report: generate trial t's source at
    seed * 100003 + t, run the chain's trial on it, and book an agreement,
    a skip or a disagreement, each skip and disagreement with its detail as
    a note."""
    src_family, _ = check_chain(chain)
    report = VerificationReport(name=name, seed=seed, trials=trials)
    for t in range(trials):
        source = generate_instance(src_family, profile, seed=seed * 100003 + t)
        outcome = run_chain_trial(chain, source, cap=cap)
        if outcome.status == "agree":
            report.agreements += 1
        elif outcome.status == "skip":
            report.skips.append(t)
            report.resource_notes.append(f"trial {t} skip: {outcome.detail}")
        else:
            report.disagreements.append((t, serialize_counterexample(name, source)))
            report.resource_notes.append(f"trial {t} disagree: {outcome.detail}")
        report.resource_notes.extend(f"trial {t} {n}" for n in outcome.notes)
    return report.finish()


def verify_reduction(name: str, trials: int, seed: int,
                     cap: int | None = None,
                     profile: dict | None = None) -> VerificationReport:
    """Seeded trials of one registered reduction (or fault fixture), each
    its chain of one."""
    return _run_trials(name, [name], trials, seed, cap, profile)


def check_chain(chain: list[str]) -> tuple[str, str]:
    """Validate adjacent type compatibility; returns the endpoint families."""
    if not chain:
        raise InvariantViolation("empty chain")
    for nm in chain:
        _lookup_reduction(nm)
    for left, right in zip(chain, chain[1:]):
        out_family, takes = CONTRACTS[left].target, CONTRACTS[right].sources
        if out_family not in takes:
            raise InvariantViolation(f"chain breaks between {left} ({out_family}) "
                                     f"and {right} ({'/'.join(takes)})")
    return CONTRACTS[chain[0]].sources[0], CONTRACTS[chain[-1]].target


def run_chain_trial(chain: list[str], source, cap: int | None = None) -> TrialOutcome:
    """One trial of a chain of reductions on a given source; a reduction's
    trial is its chain of one.  Every stage reduces its input and checks
    its contract's rules on it.  The source's oracle decides the source;
    the end's decides the end when the source is unsolvable or the chain
    has one stage, and the verdicts must agree.  A solvable source's
    solution is carried through the stages' forward lifts and checked on
    each stage's target.  The end's solution (the end oracle's when it
    decided, else the carried one) is then lifted back through the stages
    in reverse, checked on each stage's source and, lifted forward again,
    on that stage's target.  In a chain of two or more stages, a failed
    check and a note of a stage start with "stage <name>: "."""
    families = [FAMILIES[check_chain(chain)[0]]] + [FAMILIES[CONTRACTS[nm].target]
                                                    for nm in chain]
    one = len(chain) == 1

    def trial():
        stages, given = [], source
        for nm, src, tgt in zip(chain, families, families[1:]):
            art = _lookup_reduction(nm)(given)
            stages.append(("" if one else f"stage {nm}: ", CONTRACTS[nm], given, art, src, tgt))
            given = art.target
        src_ok, solution = families[0].decide(source, cap)
        if one or not src_ok:
            end_ok, end_solution = families[-1].decide(given, cap)
            if src_ok != end_ok:
                side = "target" if one else "end"
                return TrialOutcome("disagree", detail=f"source {src_ok} {side} {end_ok}")
        notes, problems = [], []
        for at, contract, given, art, _, _ in stages:
            found: list[str] = []
            problems += [at + p for p in _resource_checks(contract, given, art, found)]
            notes += [at + note for note in found]
        if src_ok and not problems:
            for at, _, _, art, _, tgt in stages:
                solution = art.lift.forward(solution)
                if not tgt.check(art.target, solution):
                    carried = "forward-lifted" if one else "carried"
                    problems.append(f"{at}{carried} solution invalid on target")
                    break
            if one:
                solution = end_solution
            # a carry a stage rejected has no end solution to lift back
            for at, _, given, art, src, tgt in reversed(stages if one or not problems else []):
                solution = art.lift.backward(solution)
                if not src.check(given, solution):
                    problems.append(f"{at}backward-lifted solution invalid on source")
                    break
                if not tgt.check(art.target, art.lift.forward(solution)):
                    problems.append(f"{at}round-tripped solution invalid on target")
        if problems:
            return TrialOutcome("disagree", detail="; ".join(problems), notes=notes)
        return TrialOutcome("agree", notes=notes)

    return _booked(trial)


def verify_chain(chain: list[str], trials: int, seed: int,
                 cap: int | None = None,
                 profile: dict | None = None) -> VerificationReport:
    """Seeded trials of a composed chain, every stage checked both ways."""
    return _run_trials("chain:" + ",".join(chain), chain, trials, seed, cap, profile)


def verify_machine_equivalences(corpus: dict[str, MachineSpec],
                                budget, max_len: int = MAX_INPUT_LEN) -> VerificationReport:
    """Acceptance agreement of all applicable evaluators per corpus machine
    and input, plus the tree-size ratio and co-nondeterministic depth
    assertions."""
    report = VerificationReport(name="machine-equivalences", seed=0, trials=0)
    co_bound = 2 * math.log2(budget.tree_size) + 4
    for name in sorted(corpus):
        m = corpus[name]
        for x in corpus_inputs(m, max_len):
            report.trials += 1
            stats = {}
            for sem, evaluate in EVALUATORS.items():
                try:
                    stats[sem] = evaluate(m, x, budget)
                except SemanticsMismatch:
                    continue  # the evaluator's guard: not a machine it decides
            problems = []
            st, via = stats.get("stack"), stats.get("stackalt")
            if st is not None and st.accepted and via.tree_nodes > RATIO_C * (st.steps_used + 1):
                problems.append(f"tree size {via.tree_nodes} > {RATIO_C}*steps+{RATIO_C}")
            bal = stats.get("balanced")
            if bal is not None and bal.accepted and bal.max_co_nondet_on_path > co_bound:
                problems.append(f"co-nondet {bal.max_co_nondet_on_path} > {co_bound:.2f}")
            verdicts = {sem: got.accepted for sem, got in stats.items()}
            if len(set(verdicts.values())) > 1:
                problems.append(f"evaluators disagree: {verdicts}")
            if problems:
                report.disagreements.append(
                    (report.trials - 1, f"# machine {name} input {x!r}\n" + "\n".join(problems)))
            else:
                report.agreements += 1
    return report.finish()


# ------------------------------------------------------- fault injection


def _faulty_negcnf_poscnf(instance: TreeChainedCnf) -> ReductionArtifact:
    """Deliberately broken variant of negcnf-poscnf for harness validation:
    the replacement disjunction wrongly keeps the replaced variable, so
    every transformed clause becomes satisfiable under exactly-one."""
    art = reduce_negcnf_to_poscnf(instance)
    cell = instance.partition
    clauses = tuple(tuple(u for lit in clause for u in sorted(cell[instance.cell_of_var(-lit)]))
                    for clause in instance.clauses)
    art.target = dataclasses.replace(art.target, clauses=clauses)
    return art


FIXTURES = {
    "negcnf-poscnf!faulty": _faulty_negcnf_poscnf,
}

assert set(CONTRACTS) == set(REDUCTION_NAMES) | set(FIXTURES)
