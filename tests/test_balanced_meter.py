"""Stress the advice-rebalanced evaluator on shapes the corpus does not
produce: deep caterpillars (maximally unbalanced universal chains), full
binary universal trees, and long deterministic corridors."""

import math

import pytest

from conftest import make_machine
from xalpwb.instances import ResourceBudget
from xalpwb.machines import eval_alternating, eval_balanced


def caterpillar(depth):
    """Universal chain u1..u_depth; each step branches into an accepting
    leaf and the next chain state.  Minimal tree size is 2*depth + 1."""
    states = [f"u{i}" for i in range(1, depth + 1)] + ["acc"]
    mode = {f"u{i}": "univ" for i in range(1, depth + 1)}
    mode["acc"] = "det"
    transitions = {}
    for i in range(1, depth + 1):
        nxt = f"u{i + 1}" if i < depth else "acc"
        transitions[(f"u{i}", "#", "_")] = [
            ("acc", "_", 0, 0, None), (nxt, "_", 0, 0, None)]
    return make_machine(states, "u1", ["acc"], mode, 1, "_", transitions)


def full_universal_tree(depth):
    """Universal states u1..u_depth with both branches descending one level:
    a complete binary accepting tree of size 2^(depth+1) - 1."""
    states = [f"u{i}" for i in range(1, depth + 1)] + ["acc"]
    mode = {f"u{i}": "univ" for i in range(1, depth + 1)}
    mode["acc"] = "det"
    transitions = {}
    for i in range(1, depth + 1):
        nxt = f"u{i + 1}" if i < depth else "acc"
        transitions[(f"u{i}", "#", "_")] = [
            (nxt, "_", 0, 0, None), (nxt, "_", 0, 0, None)]
    return make_machine(states, "u1", ["acc"], mode, 1, "_", transitions)


def corridor_then_split(steps):
    """A deterministic corridor of the given length ending in one universal
    split with two accepting leaves."""
    states = [f"d{i}" for i in range(steps)] + ["u", "acc"]
    mode = {f"d{i}": "det" for i in range(steps)}
    mode.update({"u": "univ", "acc": "det"})
    transitions = {}
    for i in range(steps):
        nxt = f"d{i + 1}" if i + 1 < steps else "u"
        transitions[(f"d{i}", "#", "_")] = [(nxt, "_", 0, 0, None)]
    transitions[("u", "#", "_")] = [("acc", "_", 0, 0, None),
                                    ("acc", "_", 0, 0, None)]
    return make_machine(states, "d0", ["acc"], mode, 1, "_", transitions)


@pytest.mark.parametrize("depth", [1, 4, 9, 16, 24])
def test_caterpillar_stays_logarithmic(depth):
    budget = ResourceBudget(tree_size=2 * depth + 1)
    m = caterpillar(depth)
    st = eval_balanced(m, "", budget)
    assert st.accepted
    assert st.tree_nodes == 2 * depth + 1
    bound = 2 * math.log2(budget.tree_size) + 4
    assert st.max_co_nondet_on_path <= bound, (depth, st)
    # the naive traversal would pay one split per level
    if depth >= 16:
        assert st.max_co_nondet_on_path < depth


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_full_binary_tree_meter(depth):
    size = (1 << (depth + 1)) - 1
    m = full_universal_tree(depth)
    st = eval_balanced(m, "", ResourceBudget(tree_size=size))
    assert st.accepted and st.tree_nodes == size
    assert st.max_co_nondet_on_path <= 2 * math.log2(size) + 4


@pytest.mark.parametrize("steps", [1, 7, 23])
def test_corridor_meter(steps):
    m = corridor_then_split(steps)
    st = eval_balanced(m, "", ResourceBudget(tree_size=steps + 3))
    assert st.accepted and st.tree_nodes == steps + 3
    assert st.max_co_nondet_on_path <= 2 * math.log2(steps + 3) + 4


@pytest.mark.parametrize("factory,arg", [(caterpillar, 10),
                                         (full_universal_tree, 3),
                                         (corridor_then_split, 9)])
def test_balanced_agrees_with_alternating_on_stress_shapes(factory, arg):
    m = factory(arg)
    for budget in (ResourceBudget(tree_size=4), ResourceBudget(tree_size=64)):
        a = eval_alternating(m, "", budget)
        b = eval_balanced(m, "", budget)
        assert a.accepted == b.accepted
        assert a.tree_nodes == b.tree_nodes


@pytest.mark.parametrize("factory, arg, meters", [
    (caterpillar, 1, (3, 1, 1)),
    (caterpillar, 900, (1801, 900, 900)),
    (full_universal_tree, 4, (31, 4, 4)),
    (full_universal_tree, 10, (2047, 10, 10)),
    (corridor_then_split, 23, (26, 24, 1)),
    (corridor_then_split, 1990, (1993, 1991, 1)),
])
def test_alternating_meters_on_stress_shapes(factory, arg, meters):
    """alt reports the smallest tree's size, its height and the most
    universal nodes on one path, here at up to 2047 nodes or 1991 deep."""
    st = eval_alternating(factory(arg), "", ResourceBudget(tree_size=5000))
    assert (st.tree_nodes, st.steps_used, st.max_co_nondet_on_path) == meters


def _meter(kids):
    """The balanced meter of a tree given as child lists rooted at 0, each
    child numbered after its parent."""
    from xalpwb.machines import _balanced_co_meter

    parent = [None] * len(kids)
    for node, ks in enumerate(kids):
        for kid in ks:
            parent[kid] = node
    size = [1] * len(kids)
    for node in reversed(range(len(kids))):
        size[node] += sum(size[kid] for kid in kids[node])
    return _balanced_co_meter(kids, parent, size), size[0]


def test_meter_on_random_synthetic_trees():
    """Drive the region calculus directly over random binary trees: the
    metered co-nondeterministic depth must stay within 2*log2(size) + 4
    regardless of shape."""
    import random

    rng = random.Random(99)

    def random_tree(size):
        kids = [[]]
        leaves = [0]
        while len(kids) < size and leaves:
            node = leaves.pop(rng.randrange(len(leaves)))
            fanout = 2 if rng.random() < 0.5 else 1
            fanout = min(fanout, size - len(kids))
            for _ in range(fanout):
                kids[node].append(len(kids))
                leaves.append(len(kids))
                kids.append([])
        return kids

    for trial in range(150):
        size = rng.randint(1, 180)
        co, nodes = _meter(random_tree(size))
        bound = 2 * math.log2(max(nodes, 2)) + 4
        assert co <= bound, (trial, nodes, co, bound)


def test_meter_on_pathological_combs():
    """Combs whose teeth grow geometrically force the off-path-weight case
    at several scales."""
    kids = [[]]

    def add_kid(node):
        kids[node].append(len(kids))
        kids.append([])
        return len(kids) - 1

    spine = 0
    for tooth in (1, 2, 4, 8, 16, 32, 64):
        # universal spine node: one big tooth, spine continues
        cur = add_kid(spine)
        for _ in range(tooth):
            cur = add_kid(cur)
        spine = add_kid(spine)

    co, size = _meter(kids)
    assert co <= 2 * math.log2(size) + 4, (size, co)
