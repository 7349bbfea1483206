"""Line-oriented text formats for every instance type.

All files are UTF-8, one record per line, lines whose first token starts
with '#' are comments, and the first record is the versioned header
"xalpwb 1".  parse_instance(tag, text) and serialize_instance(x) round-trip:
parse(serialize(x)) is structurally equal to x.  Both read only FORMATS,
the table at the end of this module.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .instances import (
    FormatError,
    Graph,
    ListColoringInstance,
    LogTwGraphInstance,
    OrderedTree,
    TcmcInstance,
    TreeChainedCnf,
    TreeDecomposition,
    normalize_edge,
)
from .machines import Action, AtmInstance, MachineSpec

HEADER = "xalpwb 1"

_GRAPH_TOKENS = ("p", "e", "label")
_TREE_TOKENS = ("t", "a")
_DECOMPOSITION_TOKENS = (*_TREE_TOKENS, "bag")
_MACHINE_TOKENS = ("m", "init", "accept", "mode", "work", "tr")


class Format(NamedTuple):
    """One entry of FORMATS: the instance type a tag reads and writes, its
    writer (the lines after the header) and its reader (the records after
    the header)."""

    type: type
    lines: Callable
    parse: Callable


def _records(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line.split()))
    return out


def _check_header(recs: list[tuple[int, list[str]]]) -> list[tuple[int, list[str]]]:
    if not recs:
        raise FormatError("empty instance text")
    lineno, toks = recs[0]
    if toks != HEADER.split():
        raise FormatError(f"expected header {HEADER!r}", lineno)
    return recs[1:]


def _int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"{what}: expected integer, got {tok!r}", lineno)


def _route(recs, fmt: str, own: tuple[str, ...], *groups):
    """Yield the records of a composite format whose first token is in own,
    in line order, and append each record of an embedded part to the list
    of the (tokens, list) group whose tokens hold its first token.  Any
    other record raises at its line, in order with the yielded ones."""
    for lineno, toks in recs:
        if toks[0] in own:
            yield lineno, toks
            continue
        for tokens, out in groups:
            if toks[0] in tokens:
                out.append((lineno, toks))
                break
        else:
            raise FormatError(f"unexpected record {toks[0]!r} in {fmt}", lineno)


def parse_instance(format_tag: str, text: str):
    """Parse text in the tagged format into a validated instance."""
    if format_tag not in FORMATS:
        raise FormatError(f"unknown format tag {format_tag!r}")
    return FORMATS[format_tag].parse(_check_header(_records(text)))


def serialize_instance(instance) -> str:
    """Serialize a validated instance; inverse of parse_instance."""
    fmt = _FORMAT_OF_TYPE.get(type(instance))
    if fmt is None:
        raise FormatError(f"cannot serialize {type(instance).__name__}")
    return "\n".join([HEADER, *fmt.lines(instance)]) + "\n"


# ---------------------------------------------------------------- graph

def _graph_lines(g: Graph) -> list[str]:
    lines = [f"p graph {g.n} {len(g.edges)}"]
    for u, v in sorted(g.edges):
        lines.append(f"e {u} {v}")
    for v in sorted(g.labels):
        lines.append(f"label {v} {g.labels[v]}")
    return lines


def _parse_graph_records(recs) -> Graph:
    n = m = None
    edges = set()
    labels = {}
    for lineno, toks in recs:
        if toks[0] == "p":
            if len(toks) != 4 or toks[1] != "graph":
                raise FormatError("expected 'p graph <n> <m>'", lineno)
            if n is not None:
                raise FormatError("duplicate 'p graph' record", lineno)
            n = _int(toks[2], lineno, "vertex count")
            m = _int(toks[3], lineno, "edge count")
        elif toks[0] == "e":
            if len(toks) != 3:
                raise FormatError("expected 'e <u> <v>'", lineno)
            u = _int(toks[1], lineno, "edge endpoint")
            v = _int(toks[2], lineno, "edge endpoint")
            if u == v:
                raise FormatError(f"self-loop at vertex {u}", lineno)
            edges.add(normalize_edge(u, v))
        elif toks[0] == "label":
            if len(toks) < 3:
                raise FormatError("expected 'label <v> <text>'", lineno)
            labels[_int(toks[1], lineno, "label vertex")] = " ".join(toks[2:])
        else:
            raise FormatError(f"unexpected record {toks[0]!r} in graph", lineno)
    if n is None:
        raise FormatError("missing 'p graph' record")
    if len(edges) != m:
        raise FormatError(f"header declares {m} edges, found {len(edges)}")
    return Graph(n=n, edges=frozenset(edges), labels=labels)


# ---------------------------------------------------------------- tree

def _tree_lines(t: OrderedTree) -> list[str]:
    lines = [f"t {t.n}"]
    for p in sorted(t.children):
        for order, c in enumerate(t.children[p], start=1):
            lines.append(f"a {p} {c} {order}")
    return lines


def _parse_tree_records(recs) -> OrderedTree:
    n = None
    arcs: dict[int, dict[int, int]] = {}
    for lineno, toks in recs:
        if toks[0] == "t":
            if len(toks) != 2:
                raise FormatError("expected 't <nodes>'", lineno)
            if n is not None:
                raise FormatError("duplicate 't' record", lineno)
            n = _int(toks[1], lineno, "node count")
        elif toks[0] == "a":
            if len(toks) != 4:
                raise FormatError("expected 'a <parent> <child> <order>'", lineno)
            p = _int(toks[1], lineno, "parent")
            c = _int(toks[2], lineno, "child")
            order = _int(toks[3], lineno, "child order")
            if order < 1:
                raise FormatError("child order must be >= 1", lineno)
            if order in arcs.setdefault(p, {}):
                raise FormatError(f"duplicate child order {order} at node {p}", lineno)
            arcs[p][order] = c
        else:
            raise FormatError(f"unexpected record {toks[0]!r} in tree", lineno)
    if n is None:
        raise FormatError("missing 't' record")
    children = {}
    for p, by_order in arcs.items():
        orders = sorted(by_order)
        if orders != list(range(1, len(orders) + 1)):
            raise FormatError(f"child orders of node {p} are not 1..{len(orders)}")
        children[p] = tuple(by_order[o] for o in orders)
    return OrderedTree(n=n, children=children)


# ------------------------------------------------------- decomposition

def _decomposition_lines(dec: TreeDecomposition) -> list[str]:
    lines = _tree_lines(dec.tree)
    for i in sorted(dec.bags):
        vs = " ".join(str(v) for v in sorted(dec.bags[i]))
        lines.append(f"bag {i} {vs}".rstrip())
    return lines


def _parse_decomposition_records(recs) -> TreeDecomposition:
    bag_recs = []
    tree_recs = []
    for lineno, toks in _route(recs, "decomposition", ("bag",), (_TREE_TOKENS, tree_recs)):
        if len(toks) < 2:
            raise FormatError("expected 'bag <node> <v...>'", lineno)
        i = _int(toks[1], lineno, "bag node")
        bag_recs.append((lineno, i, [_int(v, lineno, "bag vertex") for v in toks[2:]]))
    tree = _parse_tree_records(tree_recs)
    bags: dict[int, frozenset[int]] = {}
    for lineno, i, vs in bag_recs:
        if i in bags:
            raise FormatError(f"duplicate bag for node {i}", lineno)
        bags[i] = frozenset(vs)
    for i in tree.nodes():
        bags.setdefault(i, frozenset())
    return TreeDecomposition(tree=tree, bags=bags)


# ---------------------------------------------------------------- tcmc

def _tcmc_lines(inst: TcmcInstance) -> list[str]:
    lines = [f"tcmc {inst.k}", *_graph_lines(inst.graph), *_tree_lines(inst.tree)]
    for (i, j) in sorted(inst.classes):
        vs = " ".join(str(v) for v in sorted(inst.classes[(i, j)]))
        lines.append(f"class {i} {j} {vs}".rstrip())
    return lines


def _parse_tcmc(recs) -> TcmcInstance:
    k = None
    class_recs = []
    graph_recs = []
    tree_recs = []
    for lineno, toks in _route(recs, "tcmc", ("tcmc", "class"),
                               (_GRAPH_TOKENS, graph_recs), (_TREE_TOKENS, tree_recs)):
        if toks[0] == "tcmc":
            if len(toks) != 2:
                raise FormatError("expected 'tcmc <k>'", lineno)
            k = _int(toks[1], lineno, "color count")
        elif toks[0] == "class":
            if len(toks) < 3:
                raise FormatError("expected 'class <node> <color> <v...>'", lineno)
            i = _int(toks[1], lineno, "class node")
            j = _int(toks[2], lineno, "class color")
            vs = [_int(v, lineno, "class vertex") for v in toks[3:]]
            class_recs.append((lineno, i, j, vs))
    if k is None:
        raise FormatError("missing 'tcmc <k>' record")
    graph = _parse_graph_records(graph_recs)
    tree = _parse_tree_records(tree_recs)
    classes: dict[tuple[int, int], frozenset[int]] = {}
    for lineno, i, j, vs in class_recs:
        if (i, j) in classes:
            raise FormatError(f"duplicate class ({i},{j})", lineno)
        classes[(i, j)] = frozenset(vs)
    for i in tree.nodes():
        for j in range(1, k + 1):
            classes.setdefault((i, j), frozenset())
    return TcmcInstance(tree=tree, k=k, classes=classes, graph=graph)


# ----------------------------------------------------------------- cnf

def _cnf_lines(inst: TreeChainedCnf) -> list[str]:
    lines = [f"cnf {inst.variant} {inst.k}", *_tree_lines(inst.tree)]
    slot = {}
    if inst.partition is not None:
        for (i, j), cell in inst.partition.items():
            for x in cell:
                slot[x] = j
    for x in inst.all_variables():
        i = inst.node_of_var(x)
        name = inst.var_names[x]
        if x in slot:
            lines.append(f"var {i} {name} {slot[x]}")
        else:
            lines.append(f"var {i} {name}")
    for clause in inst.clauses:
        lits = " ".join(
            inst.var_names[lit] if lit > 0 else "-" + inst.var_names[-lit]
            for lit in clause)
        lines.append(f"c {lits}".rstrip())
    return lines


def _parse_cnf(recs) -> TreeChainedCnf:
    variant = None
    k = None
    var_recs = []
    clause_recs = []
    tree_recs = []
    for lineno, toks in _route(recs, "cnf", ("cnf", "var", "c"), (_TREE_TOKENS, tree_recs)):
        if toks[0] == "cnf":
            if len(toks) != 3:
                raise FormatError("expected 'cnf <variant> <k>'", lineno)
            variant = toks[1]
            k = _int(toks[2], lineno, "parameter k")
        elif toks[0] == "var":
            if len(toks) not in (3, 4):
                raise FormatError("expected 'var <node> <name> [<slot>]'", lineno)
            node = _int(toks[1], lineno, "variable node")
            slot = _int(toks[3], lineno, "variable slot") if len(toks) == 4 else None
            var_recs.append((lineno, node, toks[2], slot))
        elif toks[0] == "c":
            clause_recs.append((lineno, toks[1:]))
    if variant is None:
        raise FormatError("missing 'cnf <variant> <k>' record")
    tree = _parse_tree_records(tree_recs)
    variable_sets: dict[int, set[int]] = {i: set() for i in tree.nodes()}
    var_names: dict[int, str] = {}
    id_of: dict[str, int] = {}
    partition: dict[tuple[int, int], set[int]] = {}
    for idx, (lineno, node, name, slot) in enumerate(var_recs, start=1):
        if name in id_of:
            raise FormatError(f"duplicate variable name {name!r}", lineno)
        if name.startswith("-"):
            raise FormatError(f"variable name {name!r} may not start with '-'", lineno)
        id_of[name] = idx
        var_names[idx] = name
        if node not in variable_sets:
            raise FormatError(f"variable {name!r} on unknown tree node {node}", lineno)
        variable_sets[node].add(idx)
        if slot is not None:
            partition.setdefault((node, slot), set()).add(idx)
    clauses = []
    for lineno, lits in clause_recs:
        clause = []
        for tok in lits:
            neg = tok.startswith("-")
            name = tok[1:] if neg else tok
            if name not in id_of:
                raise FormatError(f"clause uses unknown variable {name!r}", lineno)
            clause.append(-id_of[name] if neg else id_of[name])
        clauses.append(tuple(clause))
    part = None
    if variant != "general" or partition:
        # a cell without a var record is empty
        part = {key: frozenset(vs) for key, vs in partition.items()}
        for i in tree.nodes():
            for j in range(1, k + 1):
                part.setdefault((i, j), frozenset())
    return TreeChainedCnf(
        tree=tree,
        variable_sets={i: frozenset(vs) for i, vs in variable_sets.items()},
        clauses=tuple(clauses),
        variant=variant,
        k=k,
        partition=part,
        var_names=var_names,
    )


# ------------------------------------------------------------- listcol

def _listcol_lines(inst: ListColoringInstance) -> list[str]:
    lines = ["listcol", *_graph_lines(inst.graph)]
    lines.append("palette " + " ".join(str(c) for c in sorted(inst.palette)))
    for v in sorted(inst.lists):
        cs = " ".join(str(c) for c in sorted(inst.lists[v]))
        lines.append(f"list {v} {cs}".rstrip())
    for v in sorted(inst.precolored):
        lines.append(f"pre {v} {inst.precolored[v]}")
    if inst.decomposition is not None:
        lines += _decomposition_lines(inst.decomposition)
    return lines


def _parse_listcol(recs) -> ListColoringInstance:
    palette = None
    lists: dict[int, frozenset[int]] = {}
    precolored: dict[int, int] = {}
    graph_recs = []
    dec_recs = []
    for lineno, toks in _route(recs, "listcol", ("listcol", "palette", "list", "pre"),
                               (_GRAPH_TOKENS, graph_recs), (_DECOMPOSITION_TOKENS, dec_recs)):
        if toks[0] == "palette":
            palette = frozenset(_int(c, lineno, "palette color") for c in toks[1:])
        elif toks[0] == "list":
            if len(toks) < 2:
                raise FormatError("expected 'list <v> [<c>...]'", lineno)
            v = _int(toks[1], lineno, "list vertex")
            if v in lists:
                raise FormatError(f"duplicate list for vertex {v}", lineno)
            lists[v] = frozenset(_int(c, lineno, "list color") for c in toks[2:])
        elif toks[0] == "pre":
            if len(toks) != 3:
                raise FormatError("expected 'pre <v> <c>'", lineno)
            v = _int(toks[1], lineno, "precolored vertex")
            if v in precolored:
                raise FormatError(f"duplicate precoloring of vertex {v}", lineno)
            precolored[v] = _int(toks[2], lineno, "precolor")
    if palette is None:
        raise FormatError("missing 'palette' record")
    graph = _parse_graph_records(graph_recs)
    dec = _parse_decomposition_records(dec_recs) if dec_recs else None
    return ListColoringInstance(graph=graph, palette=palette, lists=lists,
                                precolored=precolored, decomposition=dec)


# --------------------------------------------------------------- logtw

def _logtw_lines(inst: LogTwGraphInstance) -> list[str]:
    return [f"logtw {inst.k} {inst.target_weight}", f"problem {inst.problem}",
            *_graph_lines(inst.graph), *_decomposition_lines(inst.decomposition)]


def _parse_logtw(recs) -> LogTwGraphInstance:
    k = weight = None
    problem = "is"
    graph_recs = []
    dec_recs = []
    for lineno, toks in _route(recs, "logtw", ("logtw", "problem"),
                               (_GRAPH_TOKENS, graph_recs), (_DECOMPOSITION_TOKENS, dec_recs)):
        if toks[0] == "logtw":
            if len(toks) != 3:
                raise FormatError("expected 'logtw <k> <W>'", lineno)
            k = _int(toks[1], lineno, "parameter k")
            weight = _int(toks[2], lineno, "target weight")
        elif toks[0] == "problem":
            if len(toks) != 2:
                raise FormatError("expected 'problem <tag>'", lineno)
            problem = toks[1]
    if k is None or weight is None:
        raise FormatError("missing 'logtw <k> <W>' record")
    graph = _parse_graph_records(graph_recs)
    dec = _parse_decomposition_records(dec_recs)
    return LogTwGraphInstance(graph=graph, decomposition=dec,
                              target_weight=weight, k=k, problem=problem)


# ------------------------------------------------------------- machine

def _stackop_text(op) -> str:
    if op is None:
        return "none"
    kind, sym = op
    return f"{kind}:{sym}"


def _machine_lines(m: MachineSpec) -> list[str]:
    lines = ["m states " + " ".join(m.states)]
    lines.append(f"init {m.initial}")
    lines.append("accept " + " ".join(sorted(m.accepting)))
    for q in m.states:
        lines.append(f"mode {q} {m.mode[q]}")
    lines.append(f"work {m.work_cells} {''.join(m.work_alphabet)}")
    for key in sorted(m.transitions):
        q, a, w = key
        for act in m.transitions[key]:
            lines.append(
                f"tr {q} {a} {w} -> {act.state} {act.write} "
                f"{act.dw} {act.di} {_stackop_text(act.stack_op)}")
    return lines


def _parse_stackop(tok: str, lineno: int):
    if tok == "none":
        return None
    if ":" not in tok:
        raise FormatError(f"bad stack op {tok!r}", lineno)
    kind, sym = tok.split(":", 1)
    if kind not in ("push", "pop") or len(sym) != 1:
        raise FormatError(f"bad stack op {tok!r}", lineno)
    return (kind, sym)


def _parse_machine(recs) -> MachineSpec:
    states = None
    initial = None
    accepting = None
    mode: dict[str, str] = {}
    work_cells = None
    work_alphabet = None
    transitions: dict[tuple[str, str, str], list[Action]] = {}
    for lineno, toks in recs:
        if toks[0] == "m":
            if len(toks) < 3 or toks[1] != "states":
                raise FormatError("expected 'm states <q...>'", lineno)
            states = tuple(toks[2:])
        elif toks[0] == "init":
            if len(toks) != 2:
                raise FormatError("expected 'init <q>'", lineno)
            initial = toks[1]
        elif toks[0] == "accept":
            accepting = frozenset(toks[1:])
        elif toks[0] == "mode":
            if len(toks) != 3:
                raise FormatError("expected 'mode <q> <det|exist|univ>'", lineno)
            mode[toks[1]] = toks[2]
        elif toks[0] == "work":
            if len(toks) != 3:
                raise FormatError("expected 'work <cells> <alphabet>'", lineno)
            work_cells = _int(toks[1], lineno, "work cells")
            work_alphabet = tuple(toks[2])
        elif toks[0] == "tr":
            if len(toks) != 10 or toks[4] != "->":
                raise FormatError(
                    "expected 'tr <q> <in> <work> -> <q'> <write> <dw> <di> <op>'",
                    lineno)
            key = (toks[1], toks[2], toks[3])
            act = Action(
                state=toks[5],
                write=toks[6],
                dw=_int(toks[7], lineno, "work move"),
                di=_int(toks[8], lineno, "input move"),
                stack_op=_parse_stackop(toks[9], lineno),
            )
            transitions.setdefault(key, []).append(act)
        else:
            raise FormatError(f"unexpected record {toks[0]!r} in machine", lineno)
    if states is None or initial is None or accepting is None:
        raise FormatError("machine needs 'm states', 'init' and 'accept' records")
    if work_cells is None or work_alphabet is None:
        raise FormatError("machine needs a 'work <cells> <alphabet>' record")
    return MachineSpec(
        states=states,
        initial=initial,
        accepting=accepting,
        mode=mode,
        work_cells=work_cells,
        work_alphabet=work_alphabet,
        transitions={k: tuple(v) for k, v in transitions.items()},
    )


# ----------------------------------------------------------------- atm

def _atm_lines(inst: AtmInstance) -> list[str]:
    if any(ch.isspace() for ch in inst.x):
        raise FormatError(f"input string {inst.x!r} holds whitespace")
    return [f"atm {inst.blocks} {inst.beta} {inst.x}".rstrip(),
            *_machine_lines(inst.machine), *_tree_lines(inst.shape)]


def _parse_atm(recs) -> AtmInstance:
    head = None
    machine_recs = []
    tree_recs = []
    for lineno, toks in _route(recs, "atm", ("atm",),
                               (_MACHINE_TOKENS, machine_recs), (_TREE_TOKENS, tree_recs)):
        if len(toks) not in (3, 4):
            raise FormatError("expected 'atm <blocks> <beta> [<x>]'", lineno)
        head = (_int(toks[1], lineno, "blocks"), _int(toks[2], lineno, "beta"),
                toks[3] if len(toks) == 4 else "")
    if head is None:
        raise FormatError("missing 'atm <blocks> <beta> [<x>]' record")
    blocks, beta, x = head
    return AtmInstance(machine=_parse_machine(machine_recs), x=x,
                       shape=_parse_tree_records(tree_recs), blocks=blocks, beta=beta)


# --------------------------------------------------------------- table

FORMATS = {
    "graph": Format(Graph, _graph_lines, _parse_graph_records),
    "tree": Format(OrderedTree, _tree_lines, _parse_tree_records),
    "decomposition": Format(TreeDecomposition, _decomposition_lines,
                            _parse_decomposition_records),
    "tcmc": Format(TcmcInstance, _tcmc_lines, _parse_tcmc),
    "cnf": Format(TreeChainedCnf, _cnf_lines, _parse_cnf),
    "listcol": Format(ListColoringInstance, _listcol_lines, _parse_listcol),
    "logtw": Format(LogTwGraphInstance, _logtw_lines, _parse_logtw),
    "machine": Format(MachineSpec, _machine_lines, _parse_machine),
    "atm": Format(AtmInstance, _atm_lines, _parse_atm),
}

_FORMAT_OF_TYPE = {fmt.type: fmt for fmt in FORMATS.values()}
