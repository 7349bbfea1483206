"""Resource-annotated machine descriptions and the four acceptance semantics.

A machine reads a fixed input tape (positions 0..len+1, with the boundary
marker '#' at both ends, head starting at position 1) and a bounded work
tape (cells 1..work_cells, initially blank, head starting at cell 1).
Stack-free machines may alternate (existential and universal states);
machines that use the stack are nondeterministic only, and acceptance for
them means reaching an accepting state with an empty stack, which halts the
run.  For stack-free machines reaching an accepting state halts the branch.

The five EVALUATORS decide acceptance of the same machines through the four
equivalent resource-bounded views: direct stack search (stack), minimal
computation tree (alt), advice-rebalanced computation tree (balanced), and
depth-first stack replay (altstack); stackalt decides the stack semantics a
second way, through alternation.  Shaped runs, which fix the shape of the
computation tree in advance, are separate from them.  All evaluators are
pure and deterministic: guessing is realized by exhaustive enumeration in a
fixed order.

One step rule, _step, says what a stack-free configuration does next: it is
a leaf, a dead end, an existential step or a universal step.  _reach walks
the parts reachable from the initial one; over _step it gives the table that
alt and balanced cost and altstack replays, and the shaped runs read _step
node by node.

A machine remembers the work done on the last input it was asked about
(_Explored): that _step table with its costs, the smallest accepting tree,
and the outcome of the stack search per step budget and stack-height cap.
Evaluators asked about the same input in a row share them; asking about
another input replaces the record, so a machine holds the tables of one
input at most.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

from .instances import (
    CapExceeded,
    InvariantViolation,
    OrderedTree,
    ResourceBudget,
    XalpwbError,
    first_workable,
)

BOUNDARY = "#"

MODES = ("det", "exist", "univ")

# hard guard on exhaustive exploration of a machine's configuration space
MAX_CONFIGS = 1 << 17
_TOO_MANY_CONFIGS = "machine configuration space too large"


class SemanticsMismatch(XalpwbError):
    """The requested evaluator does not apply to this machine."""


class Action(NamedTuple):
    state: str
    write: str
    dw: int
    di: int
    stack_op: tuple[str, str] | None  # ("push"|"pop", symbol) or None


# bare machine part used as search key: (state, input_head, work_tape, work_head)
Part = tuple[str, int, tuple[str, ...], int]


@dataclass(frozen=True)
class MachineSpec:
    """States, modes, work tape and guarded transition table of a machine."""

    states: tuple[str, ...]
    initial: str
    accepting: frozenset[str]
    mode: dict[str, str]
    work_cells: int
    work_alphabet: tuple[str, ...]  # first symbol is the blank
    transitions: dict[tuple[str, str, str], tuple[Action, ...]]

    def __post_init__(self):
        if len(set(self.states)) != len(self.states) or not self.states:
            raise InvariantViolation("states must be nonempty and distinct")
        known = set(self.states)
        if self.initial not in known:
            raise InvariantViolation(f"unknown initial state {self.initial!r}")
        if not frozenset(self.accepting) <= known:
            raise InvariantViolation("accepting set contains unknown states")
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        for q in self.states:
            if q.split() != [q]:
                raise InvariantViolation(f"state name {q!r} must be one token")
            if self.mode.get(q) not in MODES:
                raise InvariantViolation(f"state {q!r} needs a mode in {MODES}")
        if self.work_cells < 1:
            raise InvariantViolation("work tape needs at least one cell")
        if not self.work_alphabet or len(set(self.work_alphabet)) != len(self.work_alphabet):
            raise InvariantViolation("work alphabet must be nonempty and distinct")
        work = set(self.work_alphabet)
        for w in work:
            if len(w) != 1 or w.isspace():
                raise InvariantViolation(f"work symbol {w!r} must be one non-whitespace character")
        any_stack = False
        for key, acts in self.transitions.items():
            q, a, w = key
            if q not in known:
                raise InvariantViolation(f"transition from unknown state {q!r}")
            if w not in work:
                raise InvariantViolation(f"transition reads unknown work symbol {w!r}")
            if len(a) != 1 or a.isspace():
                raise InvariantViolation(f"input symbol {a!r} must be one non-whitespace character")
            if not acts:
                raise InvariantViolation(f"empty action set for {key}")
            if self.mode[q] == "det" and len(acts) != 1:
                raise InvariantViolation(
                    f"deterministic state {q!r} has {len(acts)} actions for {key}")
            if self.mode[q] == "univ" and len(acts) != 2:
                raise InvariantViolation(
                    f"universal state {q!r} must branch binarily, has {len(acts)} for {key}")
            for act in acts:
                if act.state not in known:
                    raise InvariantViolation(f"transition to unknown state {act.state!r}")
                if act.write not in work:
                    raise InvariantViolation(f"transition writes unknown symbol {act.write!r}")
                if act.dw not in (-1, 0, 1) or act.di not in (-1, 0, 1):
                    raise InvariantViolation("head moves must be in {-1,0,+1}")
                if act.stack_op is not None:
                    any_stack = True
                    kind, sym = act.stack_op
                    if kind not in ("push", "pop"):
                        raise InvariantViolation(f"unknown stack op {kind!r}")
                    if len(sym) != 1 or sym.isspace():
                        raise InvariantViolation(
                            f"stack symbol {sym!r} must be one non-whitespace character")
                    if kind == "pop" and self.mode[q] != "det":
                        raise InvariantViolation(
                            f"pop in non-deterministic state {q!r}: pops must be deterministic steps")
        if any_stack:
            for q in self.states:
                if self.mode[q] == "univ":
                    raise InvariantViolation(
                        "stack machines are nondeterministic: no universal states allowed")
        object.__setattr__(self, "_uses_stack", any_stack)
        object.__setattr__(self, "_explored", None)

    @property
    def uses_stack(self) -> bool:
        return self._uses_stack  # type: ignore[attr-defined]

    @property
    def blank(self) -> str:
        return self.work_alphabet[0]

    def input_alphabet(self) -> list[str]:
        return sorted({key[1] for key in self.transitions} - {BOUNDARY})


@dataclass(frozen=True)
class RunStats:
    """Outcome and exact resource meters of one evaluation."""

    accepted: bool
    tree_nodes: int = 0
    max_co_nondet_on_path: int = 0
    peak_stack_height: int = 0
    steps_used: int = 0
    exhausted: bool = False

    def __post_init__(self):
        for name in ("tree_nodes", "max_co_nondet_on_path",
                     "peak_stack_height", "steps_used"):
            if getattr(self, name) < 0:
                raise InvariantViolation(f"negative meter {name}")


def input_symbol(x: str, pos: int) -> str:
    if pos == 0 or pos == len(x) + 1:
        return BOUNDARY
    return x[pos - 1]


def initial_part(m: MachineSpec, x: str) -> Part:
    return (m.initial, 1, (m.blank,) * m.work_cells, 1)


def _applicable(m: MachineSpec, part: Part, x: str) -> tuple[Action, ...]:
    """Actions whose head moves stay on both tapes, in table order."""
    q, ip, tape, wp = part
    key = (q, input_symbol(x, ip), tape[wp - 1])
    acts = m.transitions.get(key, ())
    out = []
    for act in acts:
        nip = ip + act.di
        nwp = wp + act.dw
        if 0 <= nip <= len(x) + 1 and 1 <= nwp <= m.work_cells:
            out.append(act)
    return tuple(out)


def _apply(part: Part, act: Action) -> Part:
    q, ip, tape, wp = part
    new_tape = tape[:wp - 1] + (act.write,) + tape[wp:]
    return (act.state, ip + act.di, new_tape, wp + act.dw)


def _require_budget(budget: ResourceBudget, name: str):
    if getattr(budget, name) is None:
        raise InvariantViolation(f"budget field {name} must be finite here")


def _require_stack_free(m: MachineSpec, what: str):
    if m.uses_stack:
        raise SemanticsMismatch(f"{what} requires a stack-free machine")


def _require_no_universal(m: MachineSpec, what: str):
    if any(m.mode[q] == "univ" for q in m.states):
        raise SemanticsMismatch(f"{what} requires a machine without universal states")


# ---------------------------------------------------------- remembered work


class _Explored:
    """What a machine has worked out about one input x: the _step table of
    the reachable parts (succ) with its _min_tree_costs (cost), the
    smallest accepting tree as _smallest_tree returns it, listed once a
    budget admits it (smallest), and the stack semantics' RunStats from
    _stack_search per (time_steps, stack_height_cap) (searches)."""

    def __init__(self, x: str):
        self.x = x
        self.succ: dict[Part, tuple] | None = None
        self.cost: dict[Part, int] | None = None
        self.smallest: tuple[RunStats, tuple] | None = None
        self.searches: dict[tuple[int, int | None], RunStats] = {}


def _record(m: MachineSpec, x: str) -> _Explored:
    """The machine's record of input x; a record of another input is
    replaced."""
    rec = m._explored  # type: ignore[attr-defined]
    if rec is None or rec.x != x:
        rec = _Explored(x)
        object.__setattr__(m, "_explored", rec)
    return rec


# ------------------------------------------------------------------ stack


def _stack_search(m: MachineSpec, x: str, budget: ResourceBudget) -> RunStats:
    """Layered search over (part, stack) states for the minimal-step run
    that reaches an accepting state with an empty stack.  Each state keeps
    the peak stack height along the first path that reached it."""
    _require_budget(budget, "time_steps")
    limit = budget.time_steps
    cap = budget.stack_height_cap
    start = (initial_part(m, x), ())

    def halted_accepting(state) -> bool:
        part, stk = state
        return part[0] in m.accepting and not stk

    if halted_accepting(start):
        return RunStats(accepted=True, tree_nodes=1, peak_stack_height=0, steps_used=0)
    peak = {start: 0}
    frontier = [start]
    for steps in range(1, limit + 1):
        nxt = []
        for state in frontier:
            part, stk = state
            for act in _applicable(m, part, x):
                if act.stack_op is None:
                    new = (_apply(part, act), stk)
                elif act.stack_op[0] == "push":
                    if cap is not None and len(stk) >= cap:
                        continue
                    new = (_apply(part, act), stk + (act.stack_op[1],))
                else:  # pop, guarded on the popped symbol
                    if not stk or stk[-1] != act.stack_op[1]:
                        continue
                    new = (_apply(part, act), stk[:-1])
                if new in peak:
                    continue
                peak[new] = max(peak[state], len(new[1]))
                if halted_accepting(new):
                    return RunStats(accepted=True, tree_nodes=steps + 1,
                                    peak_stack_height=peak[new], steps_used=steps)
                nxt.append(new)
        if not nxt:
            return RunStats(accepted=False)
        frontier = nxt
    return RunStats(accepted=False, exhausted=True)


def _searched(m: MachineSpec, x: str, budget: ResourceBudget) -> RunStats:
    """The stack semantics' RunStats, from one _stack_search per input,
    step budget and stack-height cap."""
    searches = _record(m, x).searches
    key = (budget.time_steps, budget.stack_height_cap)
    if key not in searches:
        searches[key] = _stack_search(m, x, budget)
    return searches[key]


def eval_stack(m: MachineSpec, x: str, budget: ResourceBudget) -> RunStats:
    """Nondeterministic stack semantics: accepted iff some run within the
    step budget reaches an accepting state with an empty stack."""
    _require_no_universal(m, "eval_stack")
    return _searched(m, x, budget)


# ------------------------------------------------------- alternating core


def _step(m: MachineSpec, x: str, part: Part) -> tuple[str, tuple[Part, ...]]:
    """What a configuration does next: ("leaf", ()) in an accepting state,
    ("and", (c1, c2)) in a universal state with exactly two applicable
    actions, ("or", children in table order) in any other non-universal
    state with applicable actions, and ("dead", ()) otherwise."""
    if part[0] in m.accepting:
        return "leaf", ()
    acts = _applicable(m, part, x)
    if m.mode[part[0]] == "univ":
        if len(acts) == 2:
            return "and", (_apply(part, acts[0]), _apply(part, acts[1]))
    elif acts:
        return "or", tuple(_apply(part, act) for act in acts)
    return "dead", ()


def _reach(m: MachineSpec, x: str, expand) -> dict[Part, tuple]:
    """Map every part reachable from the initial part to expand(part), whose
    second field lists the part's successors; depth-first, and
    CapExceeded once more than MAX_CONFIGS parts are reached."""
    table: dict[Part, tuple] = {}
    todo = [initial_part(m, x)]
    while todo:
        part = todo.pop()
        if part in table:
            continue
        table[part] = entry = expand(part)
        todo.extend(entry[1])  # parts already reached are skipped when popped
        if len(table) > MAX_CONFIGS:
            raise CapExceeded(_TOO_MANY_CONFIGS)
    return table


def _exploration(m: MachineSpec, x: str) -> _Explored:
    """The machine's record of input x with its _step table built.  A table
    remembered under a higher MAX_CONFIGS raises CapExceeded as _reach
    would, once it has more parts than the cap."""
    rec = _record(m, x)
    if rec.succ is None:
        rec.succ = _reach(m, x, partial(_step, m, x))
    elif len(rec.succ) > MAX_CONFIGS:
        raise CapExceeded(_TOO_MANY_CONFIGS)
    return rec


def _min_tree_costs(succ) -> dict[Part, int]:
    """Minimal accepting computation-tree size per configuration of a _step
    table, by Dijkstra-style finalization (min over 1+child; 1+sum for
    universal)."""
    parents: dict[Part, list[Part]] = {}
    for part, (_, kids) in succ.items():
        for kid in kids:
            parents.setdefault(kid, []).append(part)
    cost: dict[Part, int] = {}
    heap: list[tuple[int, Part]] = []
    for part, (kind, _) in succ.items():
        if kind == "leaf":
            heapq.heappush(heap, (1, part))
    while heap:
        c, part = heapq.heappop(heap)
        if part in cost:
            continue
        cost[part] = c
        for par in parents.get(part, ()):
            if par in cost:
                continue
            kind, kids = succ[par]
            if kind == "or":
                heapq.heappush(heap, (c + 1, par))
            elif kind == "and":
                a, b = kids
                if a in cost and b in cost:
                    heapq.heappush(heap, (1 + cost[a] + cost[b], par))
    return cost


def _pick_child(succ, cost, part) -> Part:
    """Deterministic choice at an existential node of the minimal tree."""
    for kid in succ[part][1]:
        if kid in cost and cost[kid] == cost[part] - 1:
            return kid
    raise AssertionError("cost table inconsistent")


def _smallest_run(succ, cost, root) -> tuple[list[Part], list[tuple[int, ...]], list[int | None]]:
    """The recovered minimal tree below root, listed breadth-first from the
    root at 0: each node's part, its children's indices in table order (the
    _pick_child choice at an existential node) and its parent's index."""
    parts: list[Part] = [root]
    kids: list[tuple[int, ...]] = []
    parent: list[int | None] = [None]
    for i, part in enumerate(parts):  # parts grows as the loop runs
        kind, step = succ[part]
        if kind == "or":
            step = (_pick_child(succ, cost, part),)
        kids.append(tuple(range(len(parts), len(parts) + len(step))))
        parts.extend(step)
        parent.extend([i] * len(step))
    return parts, kids, parent


def _smallest_tree(m: MachineSpec, x: str, budget: ResourceBudget, what: str):
    """Shared front of eval_alternating, eval_balanced and
    smallest_tree_shape: the alternating RunStats of the smallest accepting
    tree, and that tree as _smallest_run lists it, as child lists, parent
    indices and subtree sizes (None when it is rejected).  steps_used is the
    tree's height, the depth of its last node listed, and
    max_co_nondet_on_path the most universal nodes above any node.  The
    costs and the listed tree do not depend on the budget, so the machine
    keeps them for the input."""
    _require_stack_free(m, what)
    _require_budget(budget, "tree_size")
    rec = _exploration(m, x)
    if rec.cost is None:
        rec.cost = _min_tree_costs(rec.succ)
    cost = rec.cost
    init = initial_part(m, x)
    best = cost.get(init)
    if best is None or best > budget.tree_size:
        return RunStats(accepted=False, exhausted=best is not None), None
    if rec.smallest is None:
        parts, kids, parent = _smallest_run(rec.succ, cost, init)
        depth, co = [0], [0]
        for up in parent[1:]:
            depth.append(depth[up] + 1)
            co.append(co[up] + (len(kids[up]) == 2))
        stats = RunStats(accepted=True, tree_nodes=best, max_co_nondet_on_path=max(co),
                         steps_used=depth[-1])
        rec.smallest = stats, (kids, parent, [cost[part] for part in parts])
    return rec.smallest


def eval_alternating(m: MachineSpec, x: str, budget: ResourceBudget) -> RunStats:
    """Alternating semantics: accepted iff an accepting computation tree with
    at most budget.tree_size nodes exists; reports the smallest such tree."""
    return _smallest_tree(m, x, budget, "eval_alternating")[0]


def smallest_tree_shape(m: MachineSpec, x: str, max_nodes: int) -> OrderedTree | None:
    """Shape of the smallest accepting computation tree, numbered
    breadth-first from 1, or None when it has more than max_nodes nodes,
    none exists, or the configuration space is too large to explore."""
    try:
        _, tree = _smallest_tree(m, x, ResourceBudget(tree_size=max_nodes),
                                 "smallest_tree_shape")
    except CapExceeded:
        return None
    if tree is None:
        return None
    kids = tree[0]
    return OrderedTree(n=len(kids), children={i + 1: tuple(k + 1 for k in ks)
                                              for i, ks in enumerate(kids) if ks})


# ------------------------------------------------------------ shaped runs


class AtmInstance(NamedTuple):
    """Source of atm-tcmc: a stack-free machine, its input, the shape its
    accepting run must take, and the layout of its work tape as blocks
    blocks of beta cells each."""

    machine: MachineSpec
    x: str
    shape: OrderedTree
    blocks: int
    beta: int


def _shaped_steps(m: MachineSpec, x: str, part: Part, arity: int) -> tuple[tuple[Part, ...], ...]:
    """The tuples of child parts a shaped run may give a node holding part
    with arity shape children, in table order.

    Accepting states sit exactly at leaves, a 1-child node takes one
    deterministic or existential step, and a 2-child node takes the first
    and second universal transition toward its first and second child:
    _step's "leaf", "or" and "and" read at arity 0, 1 and 2.
    """
    kind, kids = _step(m, x, part)
    if kind == "or" and arity == 1:
        return tuple((kid,) for kid in kids)
    return (kids,) if (kind, arity) in (("and", 2), ("leaf", 0)) else ()


def shaped_run(m: MachineSpec, x: str, shape: OrderedTree) -> dict[int, Part] | None:
    """An accepting run whose computation tree is exactly the shape tree,
    as a map from shape node to configuration, or None.

    Each node takes the first step of _shaped_steps, in table order, whose
    child parts all have accepting runs of their subtrees (first_workable,
    handed each node's part by its parent's step).
    """
    _require_stack_free(m, "shaped_run")
    shape.validate_binary()
    found = first_workable(
        shape, initial_part(m, x),
        lambda node, part: _shaped_steps(m, x, part, len(shape.child_list(node))),
        lambda step, pos: step[pos])
    return None if found is None else {node: part for node, (part, _) in found.items()}


def check_shaped_run(instance: AtmInstance, run) -> bool:
    """Whether run maps the shape's nodes to configurations that form an
    accepting run of exactly that shape: the initial configuration at the
    root, and at each node's children a step _shaped_steps allows."""
    m, x, shape = instance.machine, instance.x, instance.shape
    _require_stack_free(m, "check_shaped_run")
    shape.validate_binary()
    if not isinstance(run, dict) or set(run) != set(shape.nodes()):
        return False
    if run[shape.root] != initial_part(m, x):
        return False
    # in preorder, each part checked was produced by its parent's step
    for node in shape.preorder():
        kids = shape.child_list(node)
        if tuple(run[kid] for kid in kids) not in _shaped_steps(m, x, run[node], len(kids)):
            return False
    return True


# ------------------------------------------------- stack via alternation


def _overapprox_parts(m: MachineSpec, x: str) -> dict[Part, tuple[tuple, tuple]]:
    """Machine parts reachable when stack guards are ignored, a superset of
    the parts reachable in any stack-respecting run, each with its
    applicable actions and their results, as two tuples."""
    def moves(part: Part):
        acts = _applicable(m, part, x)
        return acts, tuple(_apply(part, act) for act in acts)

    return _reach(m, x, moves)


class _Segments:
    """Reachability tables of stack-respecting segments over interned parts.

    Part k is bit k of a mask, parts in sorted order (self.parts).  The
    table of key (i, level) lists R(i, d, level) for d = 0, 1, ...: the mask
    of the parts c2 such that a segment of exactly d steps leads from part i
    to c2 without dropping below its own stack level.  A segment at level 0
    halts on an accepting part.  Without a stack-height cap, level 1 stands
    for every nested level (they behave alike); with a cap, the level is
    exact and a push from level h needs h + 1 <= cap.

    A segment's last level-preserving move is a plain step, or a push whose
    matching pop comes back to the level, so R(i, d) is the step image of
    R(i, d - 1) plus, for every push of sym from R(i, s) into part j, the
    parts reached by popping sym from R(j, d - 2 - s, level + 1).
    """

    def __init__(self, m: MachineSpec, x: str, cap: int | None):
        part_moves = _overapprox_parts(m, x)
        self.parts = parts = sorted(part_moves)
        index = {part: k for k, part in enumerate(parts)}
        n = len(parts)
        moves = []  # per part: (sym or None, j) in _applicable order, pops left out
        steps = []  # per part: mask of the plain-step successors
        after = [0] * n  # per pop part: the part the pop leads to
        pop_mask: dict[str, int] = {}  # sym -> mask of the parts that pop sym
        preds: list[list[int]] = [[] for _ in range(n)]
        pushers = accepting = 0
        for k, part in enumerate(parts):
            if part[0] in m.accepting:
                accepting |= 1 << k
            own, step = [], 0
            for act, nxt in zip(*part_moves[part]):
                j = index[nxt]
                preds[j].append(k)
                op = act.stack_op
                if op is None:
                    own.append((None, j))
                    step |= 1 << j
                elif op[0] == "push":
                    own.append((op[1], j))
                    pushers |= 1 << k
                else:  # a pop is a deterministic part's only move
                    pop_mask[op[1]] = pop_mask.get(op[1], 0) | 1 << k
                    after[k] = j
            moves.append(own)
            steps.append(step)
        # parts that reach an accepting part when stack guards are ignored;
        # every part of a derivation does, so the tables keep only these
        useful, todo = accepting, [k for k in range(n) if accepting >> k & 1]
        while todo:
            for k in preds[todo.pop()]:
                if not useful >> k & 1:
                    useful |= 1 << k
                    todo.append(k)
        self.cap, self.moves, self.steps = cap, moves, steps
        self.after, self.pop_mask = after, pop_mask
        self.pushers, self.accepting, self.useful = pushers, accepting, useful
        # key -> (entries, calls, pop images); calls maps (target, sym) to
        # the target's pop image of sym and the d at which the key's
        # segments push sym into the target; a pop image lists, per entry,
        # the parts reached by popping sym from it
        self.tables: dict[tuple[int, int], tuple[list, dict, dict]] = {}
        self.fresh: list[tuple[int, int]] = []

    def nested(self, level: int) -> int | None:
        """The level a push from this level enters, or None if the cap forbids it."""
        if self.cap is None:
            return 1
        return level + 1 if level < self.cap else None

    def _pop_image(self, mask: int, sym: str) -> int:
        mask &= self.pop_mask.get(sym, 0)
        out = 0
        while mask:
            low = mask & -mask
            mask ^= low
            out |= 1 << self.after[low.bit_length() - 1]
        return out

    def open(self, key: tuple[int, int]):
        if key not in self.tables:
            self.tables[key] = ([], {}, {})
            self.fresh.append(key)

    def settle(self):
        """Give every newly opened table its d = 0 entry."""
        while self.fresh:
            key = self.fresh.pop()
            self._append(key, 1 << key[0])

    def _append(self, key: tuple[int, int], mask: int):
        entries, calls, images = self.tables[key]
        d = len(entries)
        entries.append(mask)
        for sym, image in images.items():
            image.append(self._pop_image(mask, sym))
        level = key[1]
        nested = self.nested(level)
        if nested is None:
            return
        live = mask & self.pushers
        if level == 0:
            live &= ~self.accepting
        while live:
            low = live & -live
            live ^= low
            for sym, j in self.moves[low.bit_length() - 1]:
                if sym is None:
                    continue
                target = (j, nested)
                self.open(target)
                target_entries, _, target_images = self.tables[target]
                if sym not in target_images:
                    target_images[sym] = [self._pop_image(e, sym) for e in target_entries]
                _, starts = calls.setdefault((target, sym), (target_images[sym], []))
                if not starts or starts[-1] != d:
                    starts.append(d)

    def extend(self, key: tuple[int, int]):
        """Append the next entry of a table.  The pop images it reads, at
        d - 2 - s, are already there: a table opened when its part is first
        pushed into, and kept one entry per step, is never behind the
        segments that call it."""
        entries, calls, _ = self.tables[key]
        d = len(entries)
        live = entries[-1]
        if key[1] == 0:
            live &= ~self.accepting
        mask = 0
        steps = self.steps
        while live:
            low = live & -live
            live ^= low
            mask |= steps[low.bit_length() - 1]
        for image, starts in calls.values():
            for s in starts:
                k = d - 2 - s
                if k < 0:
                    break
                mask |= image[k]
        self._append(key, mask & self.useful)

    def quiet(self) -> bool:
        """True when no table can get another nonzero entry: every last
        entry is empty, and so is every pop image a call has yet to read."""
        for entries, calls, _ in self.tables.values():
            if entries[-1]:
                return False
            for image, starts in calls.values():
                for s in starts:
                    if any(image[max(0, len(entries) - 2 - s):]):
                        return False
        return True

    def at(self, key: tuple[int, int], d: int) -> int:
        """R(key, d), extending the table as far as needed."""
        self.open(key)
        self.settle()
        entries = self.tables[key][0]
        while len(entries) <= d:
            self.extend(key)
            self.settle()
        return entries[d]

    def first_move(self, i: int, d: int, goal: int, level: int):
        """The first move of the first derivation of a d-step segment from
        part i to part goal (d > 0, the segment exists): plain steps and
        pushes in _applicable order, a push's inner length d_in ascending,
        then its pop part in part order.  Returns (next part, steps left,
        inner segment as (part, steps, goal, level) or None)."""
        bit = 1 << goal
        moves = self.moves[i]
        last = len(moves) - 1
        for n, (sym, j) in enumerate(moves):
            if sym is None:
                # the last candidate needs no test: the segment exists
                if n == last or self.at((j, level), d - 1) & bit:
                    return j, d - 1, None
                continue
            nested = self.nested(level)
            if nested is None:
                continue
            for d_in in range(d - 1):
                pops = self.at((j, nested), d_in) & self.pop_mask.get(sym, 0)
                while pops:
                    low = pops & -pops
                    pops ^= low
                    cp = low.bit_length() - 1
                    after = self.after[cp]
                    if self.at((after, level), d - 2 - d_in) & bit:
                        return after, d - 2 - d_in, (j, d_in, cp, nested)
        raise InvariantViolation("segment derivation vanished")

    def derivation_meters(self, start: int, d: int, goal: int) -> tuple[int, int]:
        """(pushes, max co-nondeterministic steps on a path) of the first
        derivation of the top-level segment, walked with an explicit list of
        pending inner segments.  A push splits a segment into the inner one
        and the continuation after the pop, both one split deeper."""
        pushes = co = 0
        todo = [(start, d, goal, 0, 0)]
        while todo:
            i, d, goal, level, depth = todo.pop()
            co = max(co, depth)
            while d:
                i, d, inner = self.first_move(i, d, goal, level)
                if inner is not None:
                    pushes += 1
                    depth += 1
                    co = max(co, depth)
                    todo.append(inner + (depth,))
        return pushes, co


def eval_stack_via_alternation(m: MachineSpec, x: str, budget: ResourceBudget) -> RunStats:
    """Stack acceptance decided by the alternation construction: guess the
    accepting end configuration, then check segments that never pop below
    their entry level; every push guesses its matching pop configuration
    and splits co-nondeterministically into the enclosed segment and the
    continuation after the pop.

    The guesses are decided by the realizable-pairs dynamic program (Cook
    1971; Ruzzo 1980) over the parts of _overapprox_parts, interned as bits
    (see _Segments): the top segment from the initial part and every
    segment a push enters get a table of reachable-part bitmasks, one entry
    per step length, all grown together one step at a time.  The smallest
    step count whose top-level entry holds an accepting part wins, with the
    first such part in part order.

    tree_nodes meters the simulating alternating machine's accepting tree
    for the first derivation in the guessing order (a plain or push move in
    table order, the earliest matching pop first, pop parts in part order,
    as in _Segments.first_move): one node
    per simulated step, three per push split, one per segment end, plus the
    initial guess, so used steps with p pushes make used + 2p + 2 nodes.
    max_co_nondet_on_path counts the push splits on the deepest path.
    A stack-height cap bounds the levels a push may reach.  On rejection
    the direct stack search reports whether the step budget ran out.
    """
    _require_no_universal(m, "eval_stack_via_alternation")
    _require_budget(budget, "time_steps")
    seg = _Segments(m, x, budget.stack_height_cap)
    top = (seg.parts.index(initial_part(m, x)), 0)
    seg.open(top)
    seg.settle()
    for used in range(budget.time_steps + 1):
        if used:
            for key in list(seg.tables):  # tables opened now start at d = 0
                seg.extend(key)
            seg.settle()
        hit = seg.tables[top][0][used] & seg.accepting
        if hit:
            goal = (hit & -hit).bit_length() - 1
            pushes, co = seg.derivation_meters(top[0], used, goal)
            return RunStats(accepted=True, tree_nodes=used + 2 * pushes + 2,
                            max_co_nondet_on_path=co, steps_used=used)
        if seg.quiet():  # a dead run: no later step count can accept
            break
    return RunStats(accepted=False, exhausted=_searched(m, x, budget).exhausted)


# ------------------------------------------------- alternation as stack


def eval_alternating_as_stack(m: MachineSpec, x: str, budget: ResourceBudget) -> RunStats:
    """Depth-first replay of an alternating machine with an explicit stack of
    pending universal branches: at a universal step the second branch is
    pushed, at an accepting leaf a pending branch is popped and resumed.

    The replay reads each part's step from the _step table that alt and
    balanced share, but keeps its own memoised search over (part, pending
    branches, nodes left), so its agreement with alt checks the stack replay
    apart from the cost table.  Like them it raises CapExceeded past
    MAX_CONFIGS reachable parts."""
    _require_stack_free(m, "eval_alternating_as_stack")
    _require_budget(budget, "tree_size")
    succ = _exploration(m, x).succ
    exhausted = False
    memo: dict = {}

    def search(part: Part, pending: tuple[Part, ...], left: int):
        nonlocal exhausted
        key = (part, pending, left)
        if key in memo:
            return memo[key]
        res = None
        kind, kids = succ[part]
        if left <= 0:
            exhausted = True
        elif kind == "leaf":
            if not pending:
                res = (1, 0)
            else:
                sub = search(pending[-1], pending[:-1], left - 1)
                if sub is not None:
                    res = (1 + sub[0], max(len(pending), sub[1]))
        elif kind == "and":
            grown = pending + (kids[1],)
            sub = search(kids[0], grown, left - 1)
            if sub is not None:
                res = (1 + sub[0], max(len(grown), sub[1]))
        elif kind == "or":
            for kid in kids:
                sub = search(kid, pending, left - 1)
                if sub is not None:
                    res = (1 + sub[0], max(len(pending), sub[1]))
                    break
        memo[key] = res
        return res

    too_deep = False
    try:
        got = search(initial_part(m, x), (), budget.tree_size)
    except RecursionError:
        too_deep = True
    finally:
        # search reaches itself through its closure; breaking that cycle
        # frees the memo on return, not in a later cyclic collection
        del search
    if too_deep:
        # raised outside the handler, the error carries neither the caught
        # one nor its search frames; this frame stays in its traceback, so
        # the memo is emptied before it leaves
        memo.clear()
        raise RecursionError(f"altstack search deeper than the recursion limit "
                             f"at tree size {budget.tree_size}")
    if got is None:
        return RunStats(accepted=False, exhausted=exhausted)
    nodes, peak = got
    return RunStats(accepted=True, tree_nodes=nodes, peak_stack_height=peak,
                    steps_used=nodes - 1)


# ------------------------------------------------ advice-rebalanced runs


def _balanced_co_meter(kids: list[tuple[int, ...]], parent: list[int | None],
                       size: list[int]) -> int:
    """Max co-nondeterministic steps per path of the advice-rebalanced
    verification of an accepting tree given as child lists, parent indices
    and subtree sizes, rooted at node 0.

    Regions are (top, hole): the subtree at top with the subtree at the
    stored advice configuration (hole) removed; a branch reaching the advice
    ends there and the advice's own subtree is discharged by a sibling
    branch.  Large regions are cut either on the top-to-advice path (the
    ancestor case) or, when no balanced path cut exists, at the universal
    node whose off-path subtree absorbs the weight (the least-common-ancestor
    case, realized as two binary splits around that node's universal step).
    A hole, when given, lies in the subtree of the region's top.
    """

    def route(node: int, hole: int | None) -> list[int | None]:
        """Pass the advice to whichever child subtree contains it."""
        above = hole
        while above is not None and parent[above] != node:
            above = parent[above]
        return [hole if kid == above else None for kid in kids[node]]

    def hole_path(top: int, hole: int) -> list[int]:
        out = []
        node = parent[hole]
        while node != top:
            out.append(node)
            node = parent[node]
        out.append(top)
        return list(reversed(out))  # top first, parent of the hole last

    def step_through(node: int, hole: int | None) -> int:
        """Meter node's own step; its universal split separates the advice
        side from the fully checked side."""
        if node == hole or not kids[node]:
            return 0
        if len(kids[node]) == 1:
            return meter(kids[node][0], hole)
        return 1 + max(meter(k, s) for k, s in zip(kids[node], route(node, hole)))

    def meter(top: int, hole: int | None) -> int:
        region = size[top] - (size[hole] if hole is not None else 0)
        if region <= 3:
            return step_through(top, hole)
        if hole is None:
            # fresh advice: guess a separator configuration, descending into
            # the first largest child until it weighs at most 2/3 of the
            # region; one branch checks the region up to the advice, the
            # other continues at the advice
            cur = top
            while kids[cur]:
                pick = max(kids[cur], key=size.__getitem__)
                if size[pick] <= (2 * region) // 3:
                    break
                cur = pick
            return 1 + max(meter(top, pick), meter(pick, None))
        path = hole_path(top, hole)
        # ancestor case: a balanced cut on the path to the stored advice
        best = None
        for w in path[1:]:
            score = max(size[top] - size[w], size[w] - size[hole])
            if best is None or score < best[0]:
                best = (score, w)
        if best is not None and best[0] <= (2 * region) // 3 + 1:
            w = best[1]
            return 1 + max(meter(top, w), meter(w, hole))
        # LCA case: the weight sits in an off-path subtree of a node J on the
        # path (necessarily universal); cut at J, then J's own universal step
        # separates the full off-path subtree from the advice side
        j = top
        for w in path[1:]:
            if size[top] - size[w] <= region // 2:
                j = w
            else:
                break
        co_at_j = step_through(j, hole)
        if j == top:
            return co_at_j
        return 1 + max(meter(top, j), co_at_j)

    try:
        return meter(0, None)
    finally:
        del meter, step_through  # they reach each other through their closures


def eval_balanced(m: MachineSpec, x: str, budget: ResourceBudget) -> RunStats:
    """Alternating semantics re-derived through the advice-rebalancing
    construction: the smallest accepting tree is verified by recursively
    splitting budgeted regions around stored advice configurations, so the
    number of co-nondeterministic steps per path stays logarithmic in the
    tree-size budget.

    tree_nodes reports the underlying minimal accepting tree;
    max_co_nondet_on_path meters the rebalanced verification.
    """
    stats, tree = _smallest_tree(m, x, budget, "eval_balanced")
    if tree is None:
        return stats
    return replace(stats, max_co_nondet_on_path=_balanced_co_meter(*tree))


EVALUATORS = {
    "stack": eval_stack,
    "alt": eval_alternating,
    "balanced": eval_balanced,
    "altstack": eval_alternating_as_stack,
    "stackalt": eval_stack_via_alternation,
}
