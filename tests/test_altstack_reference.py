"""An iterative reference for altstack: the memoised stack-replay search of
eval_alternating_as_stack, run on an explicit stack of search nodes instead
of the Python call stack.  It keeps the search's memo key (part, pending
branches, nodes left), its table order, its first-found run and its
exhausted rule, and reads only the _step table, never the cost table, so it
checks altstack apart from alt and balanced."""

import dataclasses
from functools import partial

import pytest

from xalpwb import machines
from xalpwb.corpus import corpus_inputs
from xalpwb.instances import ResourceBudget
from xalpwb.machines import RunStats, eval_alternating_as_stack, initial_part
from xalpwb.verify import generate_instance

TREE_SIZES = (0, 1, 2, 5, 16, 64, 300)


def altstack_reference(m, x, tree_size: int) -> RunStats:
    """altstack's RunStats for a stack-free machine m on input x."""
    succ = machines._reach(m, x, partial(machines._step, m, x))
    memo: dict = {}
    exhausted = False

    def enter(key):
        """A search node's result when it makes no call, else None, the
        calls it makes in order (the first that succeeds decides it) and the
        stack height it holds while they run."""
        nonlocal exhausted
        part, pending, left = key
        kind, kids = succ[part]
        if left <= 0:
            exhausted = True
            return None, (), 0
        if kind == "leaf":
            if not pending:
                return (1, 0), (), 0
            return None, [(pending[-1], pending[:-1], left - 1)], len(pending)
        if kind == "and":
            grown = pending + (kids[1],)
            return None, [(kids[0], grown, left - 1)], len(grown)
        # "or" tries its children in table order; "dead" has none
        return None, [(kid, pending, left - 1) for kid in kids], len(pending)

    frames = []  # [key, calls, height, index of the call running]
    call = (initial_part(m, x), (), tree_size)
    while True:
        if call in memo:
            res = memo[call]
        else:
            res, calls, height = enter(call)
            if calls:
                frames.append([call, calls, height, 0])
                call = calls[0]
                continue
            memo[call] = res
        # hand res back up until a frame has another call to try
        while frames:
            frame = frames[-1]
            key, calls, height, i = frame
            if res is not None:
                res = (1 + res[0], max(height, res[1]))
            elif i + 1 < len(calls):
                frame[3] = i + 1
                call = calls[i + 1]
                break
            frames.pop()
            memo[key] = res
        else:
            break
    if res is None:
        return RunStats(accepted=False, exhausted=exhausted)
    nodes, peak = res
    return RunStats(accepted=True, tree_nodes=nodes, peak_stack_height=peak,
                    steps_used=nodes - 1)


def _cases(corpus):
    for name, m in sorted(corpus.items()):
        if not m.uses_stack:
            for x in corpus_inputs(m):
                yield name, m, x
    for seed in range(200):
        src = generate_instance("atm", None, seed=seed)
        yield f"atm seed {seed}", src.machine, src.x


@pytest.mark.parametrize("tree_size", TREE_SIZES)
def test_altstack_matches_the_iterative_reference(corpus, tree_size):
    budget = ResourceBudget(tree_size=tree_size)
    accepted = 0
    for name, m, x in _cases(corpus):
        want = altstack_reference(m, x, tree_size)
        got = eval_alternating_as_stack(m, x, budget)
        assert dataclasses.astuple(got) == dataclasses.astuple(want), (name, x)
        accepted += want.accepted
    assert accepted or tree_size == 0
