"""Line-oriented text formats for every instance type.

All files are UTF-8, one record per line, lines whose first token starts
with '#' are comments, and the first record is the versioned header
"xalpwb 1".  One grammar reads and writes every format: _SYNTAX gives
each record's syntax, which _compile turns into the record's one reader
and one writer.  _collect checks a text's records with the readers and
groups them by token, a format's reader only assembles its instance from
the groups, and a format's writer only hands each record's fields to the
record's writer.
parse_instance(tag, text) and serialize_instance(x) round-trip:
parse(serialize(x)) is structurally equal to x.  Both read only FORMATS,
the table at the end of this module.
"""

from __future__ import annotations

import sys
from itertools import starmap
from operator import itemgetter
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

# Each record's syntax, as error messages quote it and as its reader and
# writer are compiled from it: its token, literal words, <field>s, and
# last an optional [<field>], or a rest field that takes one or more
# (<field...>) or any number ([<field>...]) of tokens.
_SYNTAX = {
    "p": "p graph <n> <m>",
    "e": "e <u> <v>",
    "label": "label <v> <text...>",
    "t": "t <nodes>",
    "a": "a <parent> <child> <order>",
    "bag": "bag <node> [<v>...]",
    "tcmc": "tcmc <k>",
    "class": "class <node> <color> [<v>...]",
    "cnf": "cnf <variant> <k>",
    "var": "var <node> <name> [<slot>]",
    "c": "c [<lit>...]",
    "listcol": "listcol",
    "palette": "palette [<c>...]",
    "list": "list <v> [<c>...]",
    "pre": "pre <v> <c>",
    "logtw": "logtw <k> <W>",
    "problem": "problem <tag>",
    "m": "m states <q...>",
    "init": "init <q>",
    "accept": "accept [<q>...]",
    "mode": "mode <q> <det|exist|univ>",
    "work": "work <cells> <alphabet>",
    "tr": "tr <q> <in> <work> -> <q'> <write> <dw> <di> <op>",
    "atm": "atm <blocks> <beta> [<x>]",
}
# the fields read as integers, by name
_INT_FIELDS = {"n", "m", "u", "v", "nodes", "parent", "child", "order", "node", "color",
               "k", "slot", "c", "W", "cells", "dw", "di", "blocks", "beta"}
# the records a text holds at most once
_SINGLE = {"p", "t", "tcmc", "cnf", "listcol", "palette", "logtw", "problem",
           "m", "init", "accept", "work", "atm"}


def _compile(syntax: str) -> tuple[Callable, Callable]:
    """The field reader and the record writer of one syntax.  The reader
    checks a record's literal words and arity and returns its fields in
    order, integers read by name, an absent optional field as None and a
    rest field as a list.  The writer takes fields in that order and
    writes the record: literal words in place, an absent (None) optional
    field left out and a rest field's items spread out."""
    words = syntax.split()
    rest = words[-1].endswith(("...>", "...]"))
    optional = words[-1].startswith("[") and not rest
    open_end = rest or optional
    lo = len(words) - words[-1].startswith("[")
    hi = sys.maxsize if rest else len(words)
    literals = [pos for pos, w in enumerate(words) if pos and w[0] not in "<["]
    # one itemgetter call compares every literal word at once
    literal = itemgetter(*literals) if literals else None
    want = literal(words) if literals else None
    dropped = [pos - 1 for pos in reversed(literals)]  # in the tokens after the first
    # the field name at each position; a rest field's names every later one
    names = [w.strip("[<.>]") if pos and w[0] in "<[" else None for pos, w in enumerate(words)]
    fields = [name for name in names if name]
    last = len(fields) - 1
    ints = [i for i, name in enumerate(fields)
            if name in _INT_FIELDS and not (open_end and i == last)]
    tail_int = open_end and fields[last] in _INT_FIELDS

    def bad_integer(toks: list[str], lineno: int) -> FormatError:
        for pos, tok in enumerate(toks):
            name = names[min(pos, len(names) - 1)]
            if name in _INT_FIELDS:
                try:
                    int(tok)
                except ValueError:
                    return FormatError(
                        f"expected integer for <{name}> in '{syntax}', got {tok!r}", lineno)

    def read(toks: list[str], lineno: int) -> list:
        if not lo <= len(toks) <= hi or literal and literal(toks) != want:
            raise FormatError(f"expected '{syntax}'", lineno)
        try:
            out = toks[1:]
            for i in dropped:
                del out[i]
            for i in ints:
                out[i] = int(out[i])
            if rest:
                out[last:] = [[*map(int, out[last:])] if tail_int else out[last:]]
            elif len(out) == last:
                out.append(None)
            elif tail_int:
                out[last] = int(out[last])
            return out
        except ValueError:
            raise bad_integer(toks, lineno) from None

    # the writer is one f-string of the same words, compiled once: a
    # str.format template takes twice an f-string's time on a tr record
    args = [f"f{i}" for i in range(len(fields))]
    it = iter(args)
    parts = [f"{{{next(it)}}}" if name else w for w, name in zip(words, names)]
    body = "f" + repr(" ".join(parts[:len(parts) - open_end]))
    if rest:
        body = f"' '.join([{body}, *map(str, {args[-1]})])"
    elif optional:
        body = f"{body} if {args[-1]} is None else f{' '.join(parts)!r}"
    write = eval(f"lambda {', '.join(args)}: {body}", {})
    return read, write


_READ, _WRITE = {}, {}
for _tok, _syntax in _SYNTAX.items():
    _READ[_tok], _WRITE[_tok] = _compile(_syntax)


class Format(NamedTuple):
    """One entry of FORMATS: the instance type a tag reads and writes, the
    tokens of the records it holds, its writer (the lines after the header)
    and its reader (the instance from the records grouped by token)."""

    type: type
    tokens: tuple[str, ...]
    lines: Callable
    parse: Callable


def _collect(text: str, fmt: str) -> dict[str, list[tuple[int, list]]]:
    """The records after text's header, as (line, fields) pairs in line
    order under their token; every token of the format has a list.  A
    record the format does not hold, a malformed record or a second copy
    of a single record raises at its line."""
    groups: dict[str, list] = {tok: [] for tok in FORMATS[fmt].tokens}
    header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks or toks[0].startswith("#"):
            continue
        if not header:
            if toks != HEADER.split():
                raise FormatError(f"expected header {HEADER!r}", lineno)
            header = True
            continue
        tok = toks[0]
        rows = groups.get(tok)
        if rows is None:
            raise FormatError(f"unexpected record {tok!r} in {fmt}", lineno)
        if rows and tok in _SINGLE:
            raise FormatError(f"duplicate {tok!r} record", lineno)
        rows.append((lineno, _READ[tok](toks, lineno)))
    if not header:
        raise FormatError("empty instance text")
    return groups


def _one(groups, tok: str, default: list | None = None) -> list:
    """The fields of the single tok record, or default when it is absent
    and a default is given."""
    if groups[tok]:
        return groups[tok][0][1]
    if default is None:
        raise FormatError(f"missing {tok!r} record")
    return default


def _keyed(rows, what: str) -> dict:
    """Records whose fields are a key and a value, as a dict; the key is
    the first field, or the tuple of all fields but the last."""
    out = {}
    for lineno, fields in rows:
        key = fields[0] if len(fields) == 2 else tuple(fields[:-1])
        if key in out:
            raise FormatError(f"duplicate {what} {key}", lineno)
        out[key] = fields[-1]
    return out


def parse_instance(format_tag: str, text: str):
    """Parse text in the tagged format into a validated instance."""
    if format_tag not in FORMATS:
        raise FormatError(f"unknown format tag {format_tag!r}")
    return FORMATS[format_tag].parse(_collect(text, format_tag))


def serialize_instance(instance) -> str:
    """Serialize a validated instance; inverse of parse_instance."""
    fmt = _FORMAT_OF_TYPE.get(type(instance))
    if fmt is None:
        raise FormatError(f"cannot serialize {type(instance).__name__}")
    return "\n".join([HEADER, *fmt.lines(instance)]) + "\n"


# ---------------------------------------------------------------- graph

def _graph_lines(g: Graph) -> list[str]:
    # a label's text is written as it is, one item of its rest field
    return [_WRITE["p"](g.n, len(g.edges)), *starmap(_WRITE["e"], sorted(g.edges)),
            *(_WRITE["label"](v, [g.labels[v]]) for v in sorted(g.labels))]


def _parse_graph(groups) -> Graph:
    n, m = _one(groups, "p")
    edges = set()
    for lineno, (u, v) in groups["e"]:
        if u == v:
            raise FormatError(f"self-loop at vertex {u}", lineno)
        edges.add(normalize_edge(u, v))
    if len(edges) != m:
        raise FormatError(f"header declares {m} edges, found {len(edges)}", groups["p"][0][0])
    labels = _keyed(groups["label"], "label for vertex")
    labels = {v: " ".join(text) for v, text in labels.items()}
    return Graph(n=n, edges=frozenset(edges), labels=labels)


# ---------------------------------------------------------------- tree

def _tree_lines(t: OrderedTree) -> list[str]:
    arc = _WRITE["a"]
    return [_WRITE["t"](t.n), *(arc(p, c, order) for p in sorted(t.children)
                                for order, c in enumerate(t.children[p], start=1))]


def _parse_tree(groups) -> OrderedTree:
    n, = _one(groups, "t")
    if n >= 1 and len(groups["a"]) != n - 1:
        # the declared size is witnessed by the records before it is trusted
        raise FormatError(f"a tree of {n} nodes needs {n - 1} 'a' records, "
                          f"found {len(groups['a'])}", groups["t"][0][0])
    arcs: dict[int, dict[int, int]] = {}
    for lineno, (p, c, order) in groups["a"]:
        if order < 1:
            raise FormatError("child order must be >= 1", lineno)
        if order in arcs.setdefault(p, {}):
            raise FormatError(f"duplicate child order {order} at node {p}", lineno)
        arcs[p][order] = c
    children = {}
    for p, by_order in arcs.items():
        orders = sorted(by_order)
        if orders != list(range(1, len(orders) + 1)):
            raise FormatError(f"child orders of node {p} are not 1..{len(orders)}")
        children[p] = tuple(by_order[o] for o in orders)
    return OrderedTree(n=n, children=children)


# ------------------------------------------------------- decomposition

def _decomposition_lines(dec: TreeDecomposition) -> list[str]:
    bag = _WRITE["bag"]
    return [*_tree_lines(dec.tree), *(bag(i, sorted(dec.bags[i])) for i in sorted(dec.bags))]


def _parse_decomposition(groups) -> TreeDecomposition:
    tree = _parse_tree(groups)
    bags = {i: frozenset(vs) for i, vs in _keyed(groups["bag"], "bag for node").items()}
    for i in tree.nodes():
        bags.setdefault(i, frozenset())
    return TreeDecomposition(tree=tree, bags=bags)


# ---------------------------------------------------------------- tcmc

def _tcmc_lines(inst: TcmcInstance) -> list[str]:
    cls = _WRITE["class"]
    return [_WRITE["tcmc"](inst.k), *_graph_lines(inst.graph), *_tree_lines(inst.tree),
            *(cls(i, j, sorted(inst.classes[(i, j)])) for i, j in sorted(inst.classes))]


def _parse_tcmc(groups) -> TcmcInstance:
    k, = _one(groups, "tcmc")
    graph = _parse_graph(groups)
    tree = _parse_tree(groups)
    classes = {key: frozenset(vs) for key, vs in _keyed(groups["class"], "class").items()}
    for i in tree.nodes():
        for j in range(1, k + 1):
            classes.setdefault((i, j), frozenset())
    return TcmcInstance(tree=tree, k=k, classes=classes, graph=graph)


# ----------------------------------------------------------------- cnf

def _cnf_lines(inst: TreeChainedCnf) -> list[str]:
    var, names = _WRITE["var"], inst.var_names
    lines = [_WRITE["cnf"](inst.variant, inst.k), *_tree_lines(inst.tree)]
    for x in inst.all_variables():
        # a partition, when given, holds every variable
        slot = None if inst.partition is None else inst.cell_of_var(x)[1]
        lines.append(var(inst.node_of_var(x), names[x], slot))
    lines += (_WRITE["c"]([names[lit] if lit > 0 else "-" + names[-lit] for lit in clause])
              for clause in inst.clauses)
    return lines


def _parse_cnf(groups) -> TreeChainedCnf:
    variant, k = _one(groups, "cnf")
    tree = _parse_tree(groups)
    variable_sets: dict[int, set[int]] = {i: set() for i in tree.nodes()}
    var_names: dict[int, str] = {}
    id_of: dict[str, int] = {}
    partition: dict[tuple[int, int], set[int]] = {}
    for idx, (lineno, (node, name, slot)) in enumerate(groups["var"], start=1):
        if name in id_of:
            raise FormatError(f"duplicate variable name {name!r}", lineno)
        id_of[name] = idx
        var_names[idx] = name
        if node not in variable_sets:
            raise FormatError(f"variable {name!r} on unknown tree node {node}", lineno)
        variable_sets[node].add(idx)
        if slot is not None:
            partition.setdefault((node, slot), set()).add(idx)
    clauses = []
    for lineno, (lits,) in groups["c"]:
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
    lst, pre = _WRITE["list"], _WRITE["pre"]
    lines = [_WRITE["listcol"](), *_graph_lines(inst.graph),
             _WRITE["palette"](sorted(inst.palette)),
             *(lst(v, sorted(inst.lists[v])) for v in sorted(inst.lists)),
             *(pre(v, inst.precolored[v]) for v in sorted(inst.precolored))]
    if inst.decomposition is not None:
        lines += _decomposition_lines(inst.decomposition)
    return lines


def _parse_listcol(groups) -> ListColoringInstance:
    palette, = _one(groups, "palette")
    lists = {v: frozenset(cs) for v, cs in _keyed(groups["list"], "list for vertex").items()}
    precolored = _keyed(groups["pre"], "precoloring of vertex")
    graph = _parse_graph(groups)
    has_dec = groups["t"] or groups["a"] or groups["bag"]
    return ListColoringInstance(graph=graph, palette=frozenset(palette), lists=lists,
                                precolored=precolored,
                                decomposition=_parse_decomposition(groups) if has_dec else None)


# --------------------------------------------------------------- logtw

def _logtw_lines(inst: LogTwGraphInstance) -> list[str]:
    return [_WRITE["logtw"](inst.k, inst.target_weight), _WRITE["problem"](inst.problem),
            *_graph_lines(inst.graph), *_decomposition_lines(inst.decomposition)]


def _parse_logtw(groups) -> LogTwGraphInstance:
    k, weight = _one(groups, "logtw")
    problem, = _one(groups, "problem", default=["is"])
    return LogTwGraphInstance(graph=_parse_graph(groups),
                              decomposition=_parse_decomposition(groups),
                              target_weight=weight, k=k, problem=problem)


# ------------------------------------------------------------- machine

def _stackop_text(op) -> str:
    if op is None:
        return "none"
    kind, sym = op
    return f"{kind}:{sym}"


def _machine_lines(m: MachineSpec) -> list[str]:
    mode, tr = _WRITE["mode"], _WRITE["tr"]
    return [_WRITE["m"](m.states), _WRITE["init"](m.initial),
            _WRITE["accept"](sorted(m.accepting)),
            *(mode(q, m.mode[q]) for q in m.states),
            _WRITE["work"](m.work_cells, "".join(m.work_alphabet)),
            *(tr(*key, act.state, act.write, act.dw, act.di, _stackop_text(act.stack_op))
              for key in sorted(m.transitions) for act in m.transitions[key])]


def _parse_stackop(tok: str, lineno: int):
    if tok == "none":
        return None
    kind, colon, sym = tok.partition(":")
    if not colon or kind not in ("push", "pop") or len(sym) != 1:
        raise FormatError(f"bad stack op {tok!r}", lineno)
    return (kind, sym)


def _parse_machine(groups) -> MachineSpec:
    states, = _one(groups, "m")
    initial, = _one(groups, "init")
    accepting, = _one(groups, "accept")
    work_cells, work_alphabet = _one(groups, "work")
    transitions: dict[tuple[str, str, str], list[Action]] = {}
    for lineno, (q, a, w, state, write, dw, di, op) in groups["tr"]:
        transitions.setdefault((q, a, w), []).append(
            Action(state=state, write=write, dw=dw, di=di,
                   stack_op=_parse_stackop(op, lineno)))
    return MachineSpec(
        states=tuple(states),
        initial=initial,
        accepting=frozenset(accepting),
        mode=_keyed(groups["mode"], "mode for state"),
        work_cells=work_cells,
        work_alphabet=tuple(work_alphabet),
        transitions={k: tuple(v) for k, v in transitions.items()},
    )


# ----------------------------------------------------------------- atm

def _atm_lines(inst: AtmInstance) -> list[str]:
    if any(ch.isspace() for ch in inst.x):
        raise FormatError(f"input string {inst.x!r} holds whitespace")
    return [_WRITE["atm"](inst.blocks, inst.beta, inst.x or None),
            *_machine_lines(inst.machine), *_tree_lines(inst.shape)]


def _parse_atm(groups) -> AtmInstance:
    blocks, beta, x = _one(groups, "atm")
    return AtmInstance(machine=_parse_machine(groups), x=x or "",
                       shape=_parse_tree(groups), blocks=blocks, beta=beta)


# --------------------------------------------------------------- table

FORMATS = {
    "graph": Format(Graph, ("p", "e", "label"), _graph_lines, _parse_graph),
    "tree": Format(OrderedTree, ("t", "a"), _tree_lines, _parse_tree),
    "decomposition": Format(TreeDecomposition, ("t", "a", "bag"),
                            _decomposition_lines, _parse_decomposition),
    "tcmc": Format(TcmcInstance, ("tcmc", "class", "p", "e", "label", "t", "a"),
                   _tcmc_lines, _parse_tcmc),
    "cnf": Format(TreeChainedCnf, ("cnf", "var", "c", "t", "a"), _cnf_lines, _parse_cnf),
    "listcol": Format(ListColoringInstance,
                      ("listcol", "palette", "list", "pre", "p", "e", "label", "t", "a", "bag"),
                      _listcol_lines, _parse_listcol),
    "logtw": Format(LogTwGraphInstance, ("logtw", "problem", "p", "e", "label", "t", "a", "bag"),
                    _logtw_lines, _parse_logtw),
    "machine": Format(MachineSpec, ("m", "init", "accept", "mode", "work", "tr"),
                      _machine_lines, _parse_machine),
    "atm": Format(AtmInstance, ("atm", "m", "init", "accept", "mode", "work", "tr", "t", "a"),
                  _atm_lines, _parse_atm),
}

_FORMAT_OF_TYPE = {fmt.type: fmt for fmt in FORMATS.values()}
