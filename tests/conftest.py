import pytest

from xalpwb.instances import Graph, OrderedTree, TcmcInstance
from xalpwb.machines import Action, MachineSpec


def make_machine(states, initial, accepting, mode, cells, alpha, transitions):
    """Compact machine builder: transitions maps (q, in, work) to a list of
    (state, write, dw, di, stack_op) tuples."""
    table = {}
    for key, acts in transitions.items():
        table[key] = tuple(Action(*act) for act in acts)
    return MachineSpec(
        states=tuple(states),
        initial=initial,
        accepting=frozenset(accepting),
        mode=dict(mode),
        work_cells=cells,
        work_alphabet=tuple(alpha),
        transitions=table,
    )


def deep_path_tcmc(n: int) -> TcmcInstance:
    """A path of n tree nodes, k=1, one singleton class per node, and an
    edge between each node's vertex and the next one's."""
    return TcmcInstance(
        tree=OrderedTree(n=n, children={i: (i + 1,) for i in range(1, n)}), k=1,
        classes={(i, 1): frozenset({i}) for i in range(1, n + 1)},
        graph=Graph(n=n, edges=frozenset((i, i + 1) for i in range(1, n))))


@pytest.fixture(scope="session")
def corpus():
    from xalpwb.corpus import load_corpus

    return load_corpus()
