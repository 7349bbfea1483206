"""The four acceptance semantics: spec'd toy traces, corpus agreement,
budget monotonicity, and metering determinism."""

import dataclasses
import hashlib
from collections import Counter

import pytest

from conftest import make_machine
from xalpwb import machines
from xalpwb.corpus import CORPUS_BUDGET, corpus_inputs
from xalpwb.formats import parse_instance, serialize_instance
from xalpwb.instances import (
    CapExceeded,
    InvariantViolation,
    OrderedTree,
    ResourceBudget,
    XalpwbError,
)
from xalpwb.machines import (
    AtmInstance,
    SemanticsMismatch,
    _shaped_steps,
    check_shaped_run,
    eval_alternating,
    eval_alternating_as_stack,
    eval_balanced,
    eval_stack,
    eval_stack_via_alternation,
    initial_part,
    shaped_run,
    smallest_tree_shape,
)

B = ResourceBudget(time_steps=24, tree_size=64)


@pytest.fixture(scope="module")
def toys():
    acc = make_machine(["a"], "a", ["a"], {"a": "det"}, 1, "_", {})
    push_pop = make_machine(
        ["q0", "q1", "q2"], "q0", ["q2"],
        {"q0": "det", "q1": "det", "q2": "det"}, 1, "_",
        {("q0", "#", "_"): [("q1", "_", 0, 0, ("push", "a"))],
         ("q1", "#", "_"): [("q2", "_", 0, 0, ("pop", "a"))]})
    push_pop_bad = make_machine(
        ["q0", "q1", "q2"], "q0", ["q2"],
        {"q0": "det", "q1": "det", "q2": "det"}, 1, "_",
        {("q0", "#", "_"): [("q1", "_", 0, 0, ("push", "a"))],
         ("q1", "#", "_"): [("q2", "_", 0, 0, ("pop", "b"))]})
    univ = make_machine(
        ["u", "a1", "a2"], "u", ["a1", "a2"],
        {"u": "univ", "a1": "det", "a2": "det"}, 1, "_",
        {("u", "#", "_"): [("a1", "_", 0, 0, None), ("a2", "_", 0, 0, None)]})
    one_step = make_machine(
        ["s", "t"], "s", ["t"], {"s": "det", "t": "det"}, 1, "_",
        {("s", "#", "_"): [("t", "_", 0, 0, None)]})
    return {"acc": acc, "push_pop": push_pop, "push_pop_bad": push_pop_bad,
            "univ": univ, "one_step": one_step}


# ------------------------------------------------------------- eval_stack

def test_stack_immediate_accept(toys):
    st = eval_stack(toys["acc"], "", B)
    assert st.accepted and st.steps_used == 0 and st.peak_stack_height == 0


def test_stack_push_pop_trace(toys):
    st = eval_stack(toys["push_pop"], "", B)
    assert st.accepted
    assert st.peak_stack_height == 1
    assert st.steps_used == 2
    assert st.tree_nodes == 3


def test_stack_pop_mismatch_rejects(toys):
    st = eval_stack(toys["push_pop_bad"], "", B)
    assert not st.accepted and not st.exhausted


def test_stack_budget_exhaustion(toys):
    st = eval_stack(toys["push_pop"], "", ResourceBudget(time_steps=1))
    assert not st.accepted and st.exhausted


def test_stack_rejects_universal_machines(toys):
    with pytest.raises(SemanticsMismatch):
        eval_stack(toys["univ"], "", B)


# ------------------------------------------------------- eval_alternating

def test_alternating_immediate_accept(toys):
    st = eval_alternating(toys["acc"], "", B)
    assert st.accepted and st.tree_nodes == 1 and st.steps_used == 0


def test_alternating_universal_pair(toys):
    st = eval_alternating(toys["univ"], "", B)
    assert st.accepted and st.tree_nodes == 3
    assert st.max_co_nondet_on_path == 1


def test_alternating_tree_budget(toys):
    st = eval_alternating(toys["univ"], "", ResourceBudget(tree_size=2))
    assert not st.accepted and st.exhausted


def test_alternating_rejects_stack_machine(toys):
    with pytest.raises(SemanticsMismatch):
        eval_alternating(toys["push_pop"], "", B)


# -------------------------------------------- eval_stack_via_alternation

def test_via_alternation_immediate_accept(toys):
    # tree is the initial guess step plus one verification node
    st = eval_stack_via_alternation(toys["acc"], "", B)
    assert st.accepted and st.tree_nodes == 2 and st.steps_used == 0


def test_via_alternation_push_pop(toys):
    direct = eval_stack(toys["push_pop"], "", B)
    via = eval_stack_via_alternation(toys["push_pop"], "", B)
    assert via.accepted
    assert via.steps_used == direct.steps_used
    assert via.tree_nodes <= 8 * direct.steps_used + 8


def test_via_alternation_rejects_like_stack(toys):
    assert not eval_stack_via_alternation(toys["push_pop_bad"], "", B).accepted


# ---------------------------------------------- eval_alternating_as_stack

def test_altstack_immediate(toys):
    st = eval_alternating_as_stack(toys["acc"], "", B)
    assert st.accepted and st.peak_stack_height == 0


def test_altstack_one_pending_branch(toys):
    st = eval_alternating_as_stack(toys["univ"], "", B)
    assert st.accepted and st.peak_stack_height == 1
    assert st.tree_nodes == 3


# ------------------------------------------------------------ eval_balanced

def test_balanced_immediate(toys):
    st = eval_balanced(toys["acc"], "", B)
    assert st.accepted and st.tree_nodes == 1 and st.max_co_nondet_on_path == 0


def test_balanced_matches_alternating(toys):
    for name in ("acc", "univ", "one_step"):
        a = eval_alternating(toys[name], "", B)
        b = eval_balanced(toys[name], "", B)
        assert a.accepted == b.accepted
        assert a.tree_nodes == b.tree_nodes


@pytest.mark.parametrize("evaluate", [eval_alternating, eval_balanced])
def test_deep_minimal_tree_accepts(corpus, evaluate):
    budget = ResourceBudget(time_steps=5000, tree_size=5000)
    stats = evaluate(corpus["find_one"], "0" * 2500 + "1", budget)
    assert stats.accepted and stats.tree_nodes == 2502 and stats.steps_used == 2501


# alt's meters (accepted, tree_nodes, max_co_nondet_on_path, steps_used,
# exhausted) on every stack-free corpus input, recorded before alt read them
# off the listed smallest tree: per machine, the inputs giving each meter
# tuple, and a digest of the meters input by input.  The budget binds on none
# of them, so they are the same at CORPUS_BUDGET and at tree size 2000.
ALT_COUNTS = {
    "accept_now": {(True, 1, 0, 0, False): 1},
    "all_zeros_nonempty": {(False, 0, 0, 0, False): 121, (True, 6, 1, 3, False): 1,
                           (True, 7, 1, 4, False): 1, (True, 8, 1, 5, False): 1,
                           (True, 9, 1, 6, False): 1, (True, 10, 1, 7, False): 1,
                           (True, 11, 1, 8, False): 1},
    "alt_depth2": {(True, 6, 1, 3, False): 1},
    "copy_check": {(False, 0, 0, 0, False): 65, (True, 3, 0, 2, False): 62},
    "even_ones": {(False, 0, 0, 0, False): 63, (True, 2, 0, 1, False): 1,
                  (True, 3, 0, 2, False): 1, (True, 4, 0, 3, False): 2,
                  (True, 5, 0, 4, False): 4, (True, 6, 0, 5, False): 8,
                  (True, 7, 0, 6, False): 16, (True, 8, 0, 7, False): 32},
    "find_one": {(False, 0, 0, 0, False): 7, (True, 2, 0, 1, False): 63,
                 (True, 3, 0, 2, False): 31, (True, 4, 0, 3, False): 15,
                 (True, 5, 0, 4, False): 7, (True, 6, 0, 5, False): 3,
                 (True, 7, 0, 6, False): 1},
    "reject_now": {(False, 0, 0, 0, False): 1},
    "spin": {(False, 0, 0, 0, False): 127},
    "universal_pair": {(True, 3, 1, 1, False): 127},
}
ALT_DIGEST = "9e85276ee779025d"


@pytest.mark.parametrize("budget", [CORPUS_BUDGET, ResourceBudget(tree_size=2000)])
def test_alternating_meters_pinned_on_the_corpus(corpus, budget):
    rows = []
    for name, m in corpus.items():
        if not m.uses_stack:
            for x in corpus_inputs(m):
                st = eval_alternating(m, x, budget)
                rows.append((name, x, (st.accepted, st.tree_nodes, st.max_co_nondet_on_path,
                                       st.steps_used, st.exhausted)))
    counts: dict[str, Counter] = {}
    for name, _, meters in rows:
        counts.setdefault(name, Counter())[meters] += 1
    assert {name: dict(c) for name, c in counts.items()} == ALT_COUNTS
    listed = "\n".join(f"{name} {x!r} {meters}" for name, x, meters in rows)
    assert hashlib.sha256(listed.encode()).hexdigest()[:16] == ALT_DIGEST


# altstack's and balanced's RunStats (every field, in declaration order) on
# every stack-free corpus input, recorded before altstack read the _step
# table: per machine, the inputs giving each tuple, and a digest of the rows
# input by input.  Both are the same at CORPUS_BUDGET and at tree size 500.
ALTSTACK_COUNTS = {
    "accept_now": {(True, 1, 0, 0, 0, False): 1},
    "all_zeros_nonempty": {(False, 0, 0, 0, 0, False): 121, (True, 6, 0, 1, 5, False): 1,
                           (True, 7, 0, 1, 6, False): 1, (True, 8, 0, 1, 7, False): 1,
                           (True, 9, 0, 1, 8, False): 1, (True, 10, 0, 1, 9, False): 1,
                           (True, 11, 0, 1, 10, False): 1},
    "alt_depth2": {(True, 6, 0, 1, 5, False): 1},
    "copy_check": {(False, 0, 0, 0, 0, False): 65, (True, 3, 0, 0, 2, False): 62},
    "even_ones": {(False, 0, 0, 0, 0, False): 63, (True, 2, 0, 0, 1, False): 1,
                  (True, 3, 0, 0, 2, False): 1, (True, 4, 0, 0, 3, False): 2,
                  (True, 5, 0, 0, 4, False): 4, (True, 6, 0, 0, 5, False): 8,
                  (True, 7, 0, 0, 6, False): 16, (True, 8, 0, 0, 7, False): 32},
    "find_one": {(False, 0, 0, 0, 0, False): 7, (True, 2, 0, 0, 1, False): 63,
                 (True, 3, 0, 0, 2, False): 31, (True, 4, 0, 0, 3, False): 15,
                 (True, 5, 0, 0, 4, False): 7, (True, 6, 0, 0, 5, False): 3,
                 (True, 7, 0, 0, 6, False): 1},
    "reject_now": {(False, 0, 0, 0, 0, False): 1},
    "spin": {(False, 0, 0, 0, 0, True): 127},
    "universal_pair": {(True, 3, 0, 1, 2, False): 127},
}
BALANCED_COUNTS = {
    "accept_now": {(True, 1, 0, 0, 0, False): 1},
    "all_zeros_nonempty": {(False, 0, 0, 0, 0, False): 121, (True, 6, 2, 0, 3, False): 1,
                           (True, 7, 2, 0, 4, False): 1, (True, 8, 2, 0, 5, False): 1,
                           (True, 9, 3, 0, 6, False): 1, (True, 10, 3, 0, 7, False): 1,
                           (True, 11, 3, 0, 8, False): 1},
    "alt_depth2": {(True, 6, 2, 0, 3, False): 1},
    "copy_check": {(False, 0, 0, 0, 0, False): 65, (True, 3, 0, 0, 2, False): 62},
    "even_ones": {(False, 0, 0, 0, 0, False): 63, (True, 2, 0, 0, 1, False): 1,
                  (True, 3, 0, 0, 2, False): 1, (True, 4, 1, 0, 3, False): 2,
                  (True, 5, 1, 0, 4, False): 4, (True, 6, 2, 0, 5, False): 8,
                  (True, 7, 2, 0, 6, False): 16, (True, 8, 2, 0, 7, False): 32},
    "find_one": {(False, 0, 0, 0, 0, False): 7, (True, 2, 0, 0, 1, False): 63,
                 (True, 3, 0, 0, 2, False): 31, (True, 4, 1, 0, 3, False): 15,
                 (True, 5, 1, 0, 4, False): 7, (True, 6, 2, 0, 5, False): 3,
                 (True, 7, 2, 0, 6, False): 1},
    "reject_now": {(False, 0, 0, 0, 0, False): 1},
    "spin": {(False, 0, 0, 0, 0, False): 127},
    "universal_pair": {(True, 3, 1, 0, 1, False): 127},
}
PINNED = {eval_alternating_as_stack: (ALTSTACK_COUNTS, "5826e87dd13854d4"),
          eval_balanced: (BALANCED_COUNTS, "7e935c11128ce4a9")}


@pytest.mark.parametrize("budget", [CORPUS_BUDGET, ResourceBudget(tree_size=500)])
@pytest.mark.parametrize("evaluate", list(PINNED), ids=["altstack", "balanced"])
def test_altstack_and_balanced_meters_pinned_on_the_corpus(corpus, evaluate, budget):
    rows = [(name, x, dataclasses.astuple(evaluate(m, x, budget)))
            for name, m in corpus.items() if not m.uses_stack for x in corpus_inputs(m)]
    counts: dict[str, Counter] = {}
    for name, _, meters in rows:
        counts.setdefault(name, Counter())[meters] += 1
    want_counts, want_digest = PINNED[evaluate]
    assert {name: dict(c) for name, c in counts.items()} == want_counts
    listed = "\n".join(f"{name} {x!r} {meters}" for name, x, meters in rows)
    assert hashlib.sha256(listed.encode()).hexdigest()[:16] == want_digest


@pytest.mark.parametrize("evaluate", [eval_alternating, eval_balanced,
                                      eval_alternating_as_stack])
def test_every_reached_part_counts_toward_the_configuration_cap(corpus, monkeypatch,
                                                                evaluate):
    # find_one on 000000 reaches 7 parts: the head at input positions 1..7,
    # the last one a dead end
    m, x = corpus["find_one"], "000000"
    monkeypatch.setattr(machines, "MAX_CONFIGS", 7)
    assert not evaluate(m, x, CORPUS_BUDGET).accepted
    monkeypatch.setattr(machines, "MAX_CONFIGS", 6)
    with pytest.raises(CapExceeded):
        evaluate(m, x, CORPUS_BUDGET)


def _every_outcome(machine, x, budget) -> dict:
    """Each evaluator's RunStats, and the smallest tree's shape within the
    tree-size budget, or the type and text of what they raise; each call
    runs on the machine that machine() returns."""
    calls = {**machines.EVALUATORS,
             "shape": lambda m, x, b: smallest_tree_shape(m, x, b.tree_size)}
    out = {}
    for name, call in calls.items():
        try:
            out[name] = call(machine(), x, budget)
        except XalpwbError as exc:
            out[name] = (type(exc).__name__, str(exc))
    return out


def test_remembered_work_matches_a_fresh_machine(corpus):
    """A machine remembers its work on the last input it was asked about;
    over interleaved inputs and budgets every result equals the one a fresh
    copy of the machine gives."""
    budgets = [CORPUS_BUDGET, ResourceBudget(time_steps=32, tree_size=500),
               ResourceBudget(time_steps=32, tree_size=64, stack_height_cap=1)]
    for name, m in sorted(corpus.items()):
        m = dataclasses.replace(m)  # one machine object per corpus machine
        inputs = corpus_inputs(m)
        x1, x2 = inputs[-1], inputs[len(inputs) // 2]
        for turn, x in enumerate((x1, x2, x1)):
            for budget in budgets[turn:] + budgets[:turn]:
                got = _every_outcome(lambda: m, x, budget)
                fresh = _every_outcome(lambda: dataclasses.replace(m), x, budget)
                assert got == fresh, (name, x, budget)


# a repeated tr record is a second, equal action; in a universal state the
# two make a binary branch into one configuration
TWIN_TR = ("xalpwb 1\nm states q acc\ninit q\naccept acc\nmode q univ\nmode acc det\n"
           "work 1 0\ntr q # 0 -> {0}\ntr q # 0 -> {0}\n")


@pytest.mark.parametrize("step, accepts", [("q 0 0 1 none", False),
                                           ("acc 0 0 0 none", True)])
def test_twin_universal_actions_branch_into_one_configuration(step, accepts):
    m = parse_instance("machine", TWIN_TR.format(step))
    assert parse_instance("machine", serialize_instance(m)) == m
    assert len(m.transitions[("q", "#", "0")]) == 2
    got = [evaluate(m, "", B) for evaluate in
           (eval_alternating, eval_balanced, eval_alternating_as_stack)]
    assert {st.accepted for st in got} == {accepts}
    if accepts:
        alt, _, altstack = got
        assert (alt.tree_nodes, alt.max_co_nondet_on_path) == (3, 1)
        assert (altstack.tree_nodes, altstack.peak_stack_height) == (3, 1)


# --------------------------------------------------------- shaped runs

def test_shaped_single_node(toys):
    shape = OrderedTree(n=1)
    assert shaped_run(toys["acc"], "", shape) is not None
    # a machine needing one step cannot fit a single-node shape
    assert shaped_run(toys["one_step"], "", shape) is None


def test_shaped_universal_toy(toys):
    shape = OrderedTree(n=3, children={1: (2, 3)})
    run = shaped_run(toys["univ"], "", shape)
    assert run is not None
    assert run[1][0] == "u" and {run[2][0], run[3][0]} == {"a1", "a2"}


def test_shaped_respects_child_order():
    # universal machine whose first transition writes a marker the left
    # branch needs; swapping the children must fail
    m = make_machine(
        ["u", "l", "r", "acc"], "u", ["acc"],
        {"u": "univ", "l": "exist", "r": "exist", "acc": "det"}, 1, "_01",
        {("u", "#", "_"): [("l", "0", 0, 0, None), ("r", "1", 0, 0, None)],
         ("l", "#", "0"): [("acc", "0", 0, 0, None)],
         ("r", "#", "1"): [("acc", "1", 0, 0, None)]})
    shape = OrderedTree(n=5, children={1: (2, 3), 2: (4,), 3: (5,)})
    run = shaped_run(m, "", shape)
    assert run is not None
    assert run[2][0] == "l" and run[3][0] == "r"


def test_check_shaped_run_rejects_what_is_not_the_run(toys):
    shape = OrderedTree(n=3, children={1: (2, 3)})
    source = AtmInstance(toys["univ"], "", shape, 1, 1)
    run = shaped_run(source.machine, source.x, shape)
    assert check_shaped_run(source, run)
    assert not check_shaped_run(source, {**run, 2: run[3], 3: run[2]})  # children swapped
    assert not check_shaped_run(source, {1: run[1], 2: run[2]})  # a node missing
    assert not check_shaped_run(source, {**run, 1: run[2]})  # not the initial part
    assert not check_shaped_run(source, None)
    # an accepting configuration sits at a leaf only
    init = initial_part(toys["acc"], "")
    assert check_shaped_run(AtmInstance(toys["acc"], "", OrderedTree(n=1), 1, 1), {1: init})
    assert not check_shaped_run(AtmInstance(toys["acc"], "", shape, 1, 1),
                                {1: init, 2: init, 3: init})


def _shaped_reference(m, x, shape):
    """The run whose every node takes the first _shaped_steps step whose
    children all accept, found by plain recursion."""
    def run_from(node, part):
        kids = shape.child_list(node)
        for step in _shaped_steps(m, x, part, len(kids)):
            below = [run_from(kid, child) for kid, child in zip(kids, step)]
            if None not in below:
                return {node: part, **{k: v for run in below for k, v in run.items()}}
        return None

    return run_from(shape.root, initial_part(m, x))


def test_shaped_run_matches_the_recursive_reference():
    from xalpwb.verify import generate_instance

    chain_profile = {"states": 1, "shape_nodes": 2, "min_shape_nodes": 2, "input_len": 0,
                     "blocks": 1, "beta": 1}
    accepted = 0
    for profile in (None, chain_profile):
        for seed in range(150):
            src = generate_instance("atm", profile, seed=seed)
            run = shaped_run(src.machine, src.x, src.shape)
            assert run == _shaped_reference(src.machine, src.x, src.shape), (profile, seed)
            accepted += run is not None
    assert 0 < accepted < 300


def test_smallest_tree_is_a_shaped_run_of_its_own_shape(corpus):
    from xalpwb.verify import generate_instance

    cases = [(m, x) for _, m in sorted(corpus.items()) if not m.uses_stack
             for x in corpus_inputs(m)]
    cases += [(inst.machine, inst.x) for inst in
              (generate_instance("atm", None, seed=s) for s in range(300))]
    shaped = 0
    for m, x in cases:
        stats = eval_alternating(m, x, CORPUS_BUDGET)
        shape = smallest_tree_shape(m, x, CORPUS_BUDGET.tree_size)
        assert (shape is not None) == stats.accepted, (m, x)
        if shape is None:
            continue
        assert shape.n == stats.tree_nodes
        run = shaped_run(m, x, shape)
        assert run is not None, (m, x)
        assert check_shaped_run(AtmInstance(m, x, shape, 1, 1), run)
        shaped += 1
    assert shaped >= 400  # 488 of the 1065 cases accept


# ------------------------------------------------- corpus-wide properties

def test_corpus_four_way_agreement(corpus):
    for name, m in sorted(corpus.items()):
        has_univ = any(m.mode[q] == "univ" for q in m.states)
        for x in corpus_inputs(m, 4):
            verdicts = set()
            if not has_univ:
                verdicts.add(eval_stack(m, x, CORPUS_BUDGET).accepted)
                verdicts.add(eval_stack_via_alternation(m, x, CORPUS_BUDGET).accepted)
            if not m.uses_stack:
                verdicts.add(eval_alternating(m, x, CORPUS_BUDGET).accepted)
                verdicts.add(eval_balanced(m, x, CORPUS_BUDGET).accepted)
                verdicts.add(eval_alternating_as_stack(m, x, CORPUS_BUDGET).accepted)
            assert len(verdicts) == 1, (name, x)


def test_corpus_budget_monotonicity(corpus):
    budgets = [ResourceBudget(time_steps=s, tree_size=t)
               for s, t in ((4, 8), (8, 16), (16, 32), (24, 64))]
    for name, m in sorted(corpus.items()):
        has_univ = any(m.mode[q] == "univ" for q in m.states)
        for x in corpus_inputs(m, 3):
            evals = []
            if not has_univ:
                evals += [eval_stack, eval_stack_via_alternation]
            if not m.uses_stack:
                evals += [eval_alternating, eval_balanced,
                          eval_alternating_as_stack]
            for ev in evals:
                seq = [ev(m, x, b).accepted for b in budgets]
                # once accepted, larger budgets never flip back
                assert seq == sorted(seq), (name, ev.__name__, x, seq)


def test_balanced_co_nondet_vs_actual_tree_size(corpus):
    import math

    for name, m in sorted(corpus.items()):
        if m.uses_stack:
            continue
        for x in corpus_inputs(m, 4):
            st = eval_balanced(m, x, CORPUS_BUDGET)
            if st.accepted:
                bound = 2 * math.log2(max(st.tree_nodes, 2)) + 4
                assert st.max_co_nondet_on_path <= bound, (name, x, st)


def test_runstats_tree_nodes_cover_steps(corpus):
    for name, m in sorted(corpus.items()):
        for x in corpus_inputs(m, 3):
            if m.uses_stack:
                st = eval_stack(m, x, CORPUS_BUDGET)
            else:
                st = eval_alternating(m, x, CORPUS_BUDGET)
            if st.accepted:
                assert st.tree_nodes >= st.steps_used


def test_determinism_identical_stats(corpus):
    for name, m in sorted(corpus.items()):
        for x in corpus_inputs(m, 3):
            if m.uses_stack:
                pair = (eval_stack(m, x, CORPUS_BUDGET),
                        eval_stack(m, x, CORPUS_BUDGET))
            else:
                pair = (eval_balanced(m, x, CORPUS_BUDGET),
                        eval_balanced(m, x, CORPUS_BUDGET))
            assert pair[0] == pair[1]


def test_palindrome_machine_is_correct(corpus):
    m = corpus["palindrome"]
    for x in corpus_inputs(m, 6):
        expected = x == x[::-1]
        assert eval_stack(m, x, CORPUS_BUDGET).accepted == expected, x


def test_machine_invariant_validation():
    with pytest.raises(InvariantViolation, match="binarily"):
        make_machine(["u", "a"], "u", ["a"], {"u": "univ", "a": "det"}, 1, "_",
                     {("u", "#", "_"): [("a", "_", 0, 0, None)]})
    with pytest.raises(InvariantViolation, match="deterministic steps"):
        make_machine(["s", "a"], "s", ["a"], {"s": "exist", "a": "det"}, 1, "_",
                     {("s", "#", "_"): [("a", "_", 0, 0, ("pop", "a"))]})
    with pytest.raises(InvariantViolation, match="no universal states"):
        make_machine(["u", "a", "b"], "u", ["a"],
                     {"u": "univ", "a": "det", "b": "det"}, 1, "_",
                     {("u", "#", "_"): [("a", "_", 0, 0, None), ("b", "_", 0, 0, None)],
                      ("a", "#", "_"): [("b", "_", 0, 0, ("push", "z"))]})
