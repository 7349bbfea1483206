"""eval_stack_via_alternation: meters pinned to the values of the earlier
memoised segment search, deep runs without recursion, and the stack-height
cap."""

import random
import time

import pytest

from conftest import make_machine
from test_semantics_soak import random_stack_machine
from xalpwb.cli import main
from xalpwb.corpus import corpus_dir
from xalpwb.instances import ResourceBudget
from xalpwb.machines import eval_stack, eval_stack_via_alternation


def _meters(st):
    return (st.accepted, st.tree_nodes, st.max_co_nondet_on_path,
            st.steps_used, st.exhausted)


# (machine, input, meters at 16 steps, meters at 32 steps); the meters are
# (accepted, tree_nodes, max_co_nondet_on_path, steps_used, exhausted)
CORPUS_PINS = [
    ("palindrome", "", (True, 4, 0, 2, False), (True, 4, 0, 2, False)),
    ("palindrome", "0", (True, 4, 0, 2, False), (True, 4, 0, 2, False)),
    ("palindrome", "0110", (True, 12, 2, 6, False), (True, 12, 2, 6, False)),
    ("palindrome", "01010", (True, 12, 2, 6, False), (True, 12, 2, 6, False)),
    ("palindrome", "011110", (True, 16, 3, 8, False), (True, 16, 3, 8, False)),
    ("palindrome", "01", (False, 0, 0, 0, False), (False, 0, 0, 0, False)),
    ("palindrome", "0111", (False, 0, 0, 0, False), (False, 0, 0, 0, False)),
    ("palindrome", "001011", (False, 0, 0, 0, False), (False, 0, 0, 0, False)),
    ("palindrome", "110100", (False, 0, 0, 0, False), (False, 0, 0, 0, False)),
    ("push_pop", "", (True, 6, 1, 2, False), (True, 6, 1, 2, False)),
    ("push_pop_mismatch", "", (False, 0, 0, 0, False), (False, 0, 0, 0, False)),
    ("copy_check", "0101", (False, 0, 0, 0, False), (False, 0, 0, 0, False)),
    ("copy_check", "00", (True, 4, 0, 2, False), (True, 4, 0, 2, False)),
    ("even_ones", "1101", (False, 0, 0, 0, False), (False, 0, 0, 0, False)),
    ("even_ones", "11", (True, 5, 0, 3, False), (True, 5, 0, 3, False)),
    ("find_one", "0001", (True, 6, 0, 4, False), (True, 6, 0, 4, False)),
    ("spin", "01", (False, 0, 0, 0, False), (False, 0, 0, 0, False)),
    ("accept_now", "", (True, 2, 0, 0, False), (True, 2, 0, 0, False)),
    ("reject_now", "", (False, 0, 0, 0, False), (False, 0, 0, 0, False)),
]

# (index among random_stack_machine(Random(777)) draws, input, steps, meters)
SOAK_PINS = [
    (4, "1011", 10, (True, 6, 1, 2, False)),
    (150, "110", 10, (True, 7, 1, 3, False)),
    (178, "01", 10, (True, 8, 1, 4, False)),
    (219, "01", 10, (True, 8, 1, 4, False)),
    (321, "0", 10, (True, 7, 1, 3, False)),
    (7, "", 10, (False, 0, 0, 0, True)),
    (24, "110", 10, (False, 0, 0, 0, True)),
    (41, "110", 10, (False, 0, 0, 0, True)),
    (0, "0", 10, (False, 0, 0, 0, False)),
    (1, "0", 10, (False, 0, 0, 0, False)),
    (2, "", 10, (False, 0, 0, 0, False)),
]

# a '0' is crossed by push-then-pop (listed first) or by two plain steps, a
# '1' by two plain steps (listed first) or push-then-pop, so the first
# derivation decides how many pushes the meters count
SEQUENTIAL_PINS = [
    ("", 6, (True, 3, 0, 1, False)),
    ("0", 6, (True, 7, 1, 3, False)),
    ("00", 16, (True, 11, 2, 5, False)),
    ("010", 6, (False, 0, 0, 0, True)),
    ("010", 16, (True, 13, 2, 7, False)),
    ("0110", 16, (True, 15, 2, 9, False)),
    ("1111", 16, (True, 11, 0, 9, False)),
]


@pytest.mark.parametrize("name, x, at16, at32", CORPUS_PINS)
def test_corpus_meters_pinned(corpus, name, x, at16, at32):
    for steps, expected in ((16, at16), (32, at32)):
        st = eval_stack_via_alternation(corpus[name], x, ResourceBudget(time_steps=steps))
        assert _meters(st) == expected, (name, x, steps)


def test_soak_meters_pinned():
    rng = random.Random(777)
    machines = [random_stack_machine(rng) for _ in range(max(p[0] for p in SOAK_PINS) + 1)]
    for index, x, steps, expected in SOAK_PINS:
        st = eval_stack_via_alternation(machines[index], x, ResourceBudget(time_steps=steps))
        assert _meters(st) == expected, (index, x, steps)


def test_first_derivation_order_pinned():
    m = make_machine(
        ["s", "t", "p", "acc"], "s", ["acc"],
        {"s": "exist", "t": "det", "p": "det", "acc": "det"}, 1, "_",
        {("s", "0", "_"): [("p", "_", 0, 0, ("push", "a")), ("t", "_", 0, 0, None)],
         ("s", "1", "_"): [("t", "_", 0, 0, None), ("p", "_", 0, 0, ("push", "b"))],
         ("t", "0", "_"): [("s", "_", 0, 1, None)],
         ("t", "1", "_"): [("s", "_", 0, 1, None)],
         ("p", "0", "_"): [("s", "_", 0, 1, ("pop", "a"))],
         ("p", "1", "_"): [("s", "_", 0, 1, ("pop", "b"))],
         ("s", "#", "_"): [("acc", "_", 0, 0, None)]})
    for x, steps, expected in SEQUENTIAL_PINS:
        st = eval_stack_via_alternation(m, x, ResourceBudget(time_steps=steps))
        assert _meters(st) == expected, (x, steps)


def test_deep_run_needs_no_recursion(corpus):
    m, x = corpus["even_ones"], "1" * 1000
    budget = ResourceBudget(time_steps=1100)
    start = time.perf_counter()
    via = eval_stack_via_alternation(m, x, budget)
    elapsed = time.perf_counter() - start
    direct = eval_stack(m, x, budget)
    assert via.accepted and direct.accepted
    assert via.steps_used == direct.steps_used == 1001
    assert elapsed < 2.0


def test_stack_height_cap_cli(capsys):
    machine = str(corpus_dir() / "push_pop.mach")
    for semantics in ("stack", "stackalt"):
        assert main(["machine", "eval", "--semantics", semantics, "-m", machine,
                     "--budget-steps", "8", "--budget-stack", "0"]) == 0
        assert capsys.readouterr().out.startswith("REJECT"), semantics
        assert main(["machine", "eval", "--semantics", semantics, "-m", machine,
                     "--budget-steps", "8", "--budget-stack", "1"]) == 0
        assert capsys.readouterr().out.startswith("ACCEPT"), semantics


def test_stack_height_cap_soak():
    rng = random.Random(4242)
    decided = {cap: set() for cap in (0, 1, 2)}
    for _ in range(150):
        m = random_stack_machine(rng)
        for cap in decided:
            budget = ResourceBudget(time_steps=10, stack_height_cap=cap)
            for x in ("", "0", "01", "110"):
                direct = eval_stack(m, x, budget)
                via = eval_stack_via_alternation(m, x, budget)
                assert via.accepted == direct.accepted, (cap, x)
                assert via.steps_used == direct.steps_used, (cap, x)
                decided[cap].add(direct.accepted)
    assert all(seen == {True, False} for seen in decided.values())


def test_nested_cap_levels_are_exact():
    # pushing twice needs a cap of 2: cap 1 must reject, as eval_stack does
    m = make_machine(
        ["q0", "q1", "q2", "q3", "acc"], "q0", ["acc"],
        {q: "det" for q in ("q0", "q1", "q2", "q3", "acc")}, 1, "_",
        {("q0", "#", "_"): [("q1", "_", 0, 0, ("push", "a"))],
         ("q1", "#", "_"): [("q2", "_", 0, 0, ("push", "a"))],
         ("q2", "#", "_"): [("q3", "_", 0, 0, ("pop", "a"))],
         ("q3", "#", "_"): [("acc", "_", 0, 0, ("pop", "a"))]})
    for cap, accepted in ((None, True), (0, False), (1, False), (2, True), (3, True)):
        budget = ResourceBudget(time_steps=8, stack_height_cap=cap)
        via = eval_stack_via_alternation(m, "", budget)
        assert via.accepted == eval_stack(m, "", budget).accepted == accepted, cap
        if accepted:
            assert _meters(via) == (True, 10, 2, 4, False)
