import pathlib
import resource
import subprocess
import sys

# set before xalpwb is imported: the suite leaves no bytecode cache in src/
sys.dont_write_bytecode = True

import pytest

from xalpwb.instances import Graph, ListColoringInstance, OrderedTree, TcmcInstance
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


def path_coloring(n: int, clash: bool = False) -> ListColoringInstance:
    """A path on n vertices whose lists hold one colour each, 1 and 2 in
    turn; with clash the last vertex takes its predecessor's colour."""
    colour = {v: 2 - v % 2 for v in range(1, n + 1)}
    if clash:
        colour[n] = colour[n - 1]
    return ListColoringInstance(
        graph=Graph(n=n, edges=frozenset((v, v + 1) for v in range(1, n))),
        palette=frozenset({1, 2}), lists={v: frozenset({c}) for v, c in colour.items()})


DS_CHAIN = ["tcmis-negcnf", "negcnf-poscnf", "poscnf-logtwis", "is-vc", "vc-rbds", "rbds-ds"]
DS_PROFILE = {"tree_nodes": 2, "max_class": 1, "max_edges": 4}  # the benchmark's ds-chain


def ds_chain_target(seed: int):
    """The dominating-set end of the tcmis-to-DS chain, from a source drawn
    at the benchmark's ds-chain profile."""
    from xalpwb.reductions import REDUCTIONS
    from xalpwb.verify import generate_instance

    target = generate_instance("tcmis", DS_PROFILE, seed=seed)
    for name in DS_CHAIN:
        target = REDUCTIONS[name](target).target
    return target


CLI_MEMORY_LIMIT = 2 << 30  # bytes of address space for a run_cli child


def _limit_memory():
    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = CLI_MEMORY_LIMIT if hard == resource.RLIM_INFINITY else min(CLI_MEMORY_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run_cli(*args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run `python -m xalpwb` with args in a child process whose address
    space is limited to CLI_MEMORY_LIMIT, set in the child alone: an input
    that makes the program allocate without bound ends in a MemoryError
    there and leaves the test process and the host alone.  The child
    writes no bytecode cache into the source tree."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "xalpwb", *args], capture_output=True, text=True,
        timeout=timeout, env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        preexec_fn=_limit_memory)


@pytest.fixture(scope="session")
def corpus():
    from xalpwb.corpus import load_corpus

    return load_corpus()
