"""Instance types, validators, text formats, and their round-trip laws."""

import dataclasses
import random
import re
import time

import pytest

from conftest import make_machine
from xalpwb import formats
from xalpwb.formats import FORMATS, parse_instance, serialize_instance
from xalpwb.instances import (
    FormatError,
    Graph,
    InvariantViolation,
    ListColoringInstance,
    LogTwGraphInstance,
    OrderedTree,
    TreeChainedCnf,
    TreeDecomposition,
    ceil_log2,
    first_workable,
    log_width_parameter,
    validate_decomposition,
)
from xalpwb.oracles import solve_listcoloring
from xalpwb.reductions import reduce_listcoloring_to_precoloring
from xalpwb.verify import generate_instance


def random_graph(seed: int, n: int = 6, edge_prob: float = 0.35) -> Graph:
    """A seeded graph on 1..n vertices, each edge drawn with edge_prob."""
    rng = random.Random(f"graph|{seed}")
    n = rng.randint(1, n)
    edges = {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < edge_prob}
    return Graph(n=n, edges=frozenset(edges))


def test_parse_smallest_graph():
    g = parse_instance("graph", "xalpwb 1\np graph 2 1\ne 1 2\n")
    assert g == Graph(n=2, edges=frozenset({(1, 2)}))


def test_parse_single_class_tcmc():
    text = "xalpwb 1\ntcmc 1\np graph 1 0\nt 1\nclass 1 1 1\n"
    inst = parse_instance("tcmc", text)
    assert inst.k == 1
    assert inst.classes[(1, 1)] == frozenset({1})


def test_tcmc_rejects_edge_between_nonincident_classes():
    # three-node path tree; an edge between the two leaves is not allowed
    text = ("xalpwb 1\ntcmc 1\np graph 3 1\ne 2 3\n"
            "t 3\na 1 2 1\na 2 3 1\n"
            "class 1 1 1\nclass 2 1 2\nclass 3 1 3\n")
    inst = parse_instance("tcmc", text)  # leaf 3 is adjacent to node 2: fine
    assert inst.graph.has_edge(2, 3)
    bad = ("xalpwb 1\ntcmc 1\np graph 3 1\ne 1 3\n"
           "t 3\na 1 2 1\na 2 3 1\n"
           "class 1 1 1\nclass 2 1 2\nclass 3 1 3\n")
    with pytest.raises(InvariantViolation, match="non-incident"):
        parse_instance("tcmc", bad)


def test_tcmc_error_names_the_least_offending_edge():
    # four-node path tree; both edges skip a node, and the graph's edge set
    # lists (2,4) before (1,3)
    text = ("xalpwb 1\ntcmc 1\np graph 4 2\ne 2 4\ne 1 3\n"
            "t 4\na 1 2 1\na 2 3 1\na 3 4 1\n"
            "class 1 1 1\nclass 2 1 2\nclass 3 1 3\nclass 4 1 4\n")
    assert next(iter(frozenset({(1, 3), (2, 4)}))) == (2, 4)
    with pytest.raises(InvariantViolation, match=re.escape("(1,3) between nodes 1,3")):
        parse_instance("tcmc", text)


def test_graph_invariants():
    with pytest.raises(InvariantViolation):
        Graph(n=2, edges=frozenset({(1, 1)}))
    with pytest.raises(InvariantViolation):
        Graph(n=2, edges=frozenset({(1, 3)}))


def test_tree_invariants():
    with pytest.raises(InvariantViolation, match="root"):
        OrderedTree(n=2, children={1: (2,), 2: (1,)})
    with pytest.raises(InvariantViolation, match="two parents"):
        OrderedTree(n=3, children={1: (3,), 2: (3,)})
    tree = OrderedTree(n=3, children={1: (2, 3)})
    assert tree.root == 1
    assert tree.parent(3) == 1


@pytest.mark.parametrize("n, children, message", [
    (3, {1: (2,)}, "tree must have exactly one root, found [1, 3]"),
    (3, {1: (3,), 2: (3,)}, "node 3 has two parents"),
    (2, {1: (3,)}, "unknown tree node 3"),
    (2, {0: (1,)}, "unknown tree node 0"),
    # one root, and every other node has one parent, but 2 and 3 only
    # reach each other
    (3, {2: (3,), 3: (2,)}, "tree is not connected"),
    (5, {1: (2,), 3: (4,), 4: (5,), 5: (3,)}, "tree is not connected"),
])
def test_tree_rejections_name_the_violated_condition(n, children, message):
    with pytest.raises(InvariantViolation) as err:
        OrderedTree(n=n, children=children)
    assert str(err.value) == message


def test_first_workable_settles_each_node_and_given_once():
    # root 1 has children 2 and 3, and 3 has child 4.  Both root options
    # hand child 2 the same "x"; under "a", node 4 has no option, so 3 and
    # then "a" fail, and "b" finds 2 already settled with "x"
    tree = OrderedTree(n=4, children={1: (2, 3), 3: (4,)})
    table = {(1, None): "ab", (2, "x"): "p", (3, "a"): "q", (3, "b"): "r",
             (4, "q"): "", (4, "r"): "s"}
    hands = {"a": ("x", "a"), "b": ("x", "b"), "q": ("q",), "r": ("r",)}
    calls = []

    def options(node, given):
        calls.append((node, given))
        return table[node, given]

    found = first_workable(tree, None, options, lambda option, i: hands[option][i])
    assert found == {1: (None, "b"), 2: ("x", "p"), 3: ("b", "r"), 4: ("r", "s")}
    assert list(found) == tree.preorder()
    assert sorted(calls, key=str) == sorted(table, key=str)
    # a root with no workable option, and one with no option at all
    table[4, "r"] = ""
    assert first_workable(tree, None, options, lambda option, i: hands[option][i]) is None
    assert first_workable(OrderedTree(n=1), 0, lambda node, given: (), None) is None


def test_ceil_log2_convention():
    assert ceil_log2(1) == 1
    assert ceil_log2(2) == 1
    assert ceil_log2(3) == 2
    assert ceil_log2(8) == 3
    with pytest.raises(InvariantViolation):
        ceil_log2(0)


def test_log_width_parameter_is_the_least_k_that_bounds_the_width():
    for n in range(1, 40):
        for width in range(-1, 3 * n):
            k = log_width_parameter(width, n)
            assert k >= 1 and width <= k * ceil_log2(n)
            assert k == 1 or width > (k - 1) * ceil_log2(n)


def test_validate_decomposition_trivial_bag():
    for n in (1, 3, 5):
        g = Graph(n=n, edges=frozenset((u, u + 1) for u in range(1, n)))
        dec = TreeDecomposition(tree=OrderedTree(n=1),
                                bags={1: frozenset(range(1, n + 1))})
        assert validate_decomposition(g, dec) == n - 1


def test_validate_decomposition_path():
    g = Graph(n=3, edges=frozenset({(1, 2), (2, 3)}))
    dec = TreeDecomposition(tree=OrderedTree(n=2, children={1: (2,)}),
                            bags={1: frozenset({1, 2}), 2: frozenset({2, 3})})
    assert validate_decomposition(g, dec) == 1


def test_validate_decomposition_uncovered_edge():
    g = Graph(n=3, edges=frozenset({(1, 2), (2, 3), (1, 3)}))
    dec = TreeDecomposition(tree=OrderedTree(n=2, children={1: (2,)}),
                            bags={1: frozenset({1, 2}), 2: frozenset({2, 3})})
    with pytest.raises(InvariantViolation,
                       match=r"^invalid decomposition: edge uncovered: \{1,3\}$"):
        validate_decomposition(g, dec)


def test_validate_decomposition_disconnected_occurrence():
    g = Graph(n=2)
    dec = TreeDecomposition(
        tree=OrderedTree(n=3, children={1: (2, 3)}),
        bags={1: frozenset({2}), 2: frozenset({1}), 3: frozenset({1})})
    with pytest.raises(InvariantViolation,
                       match="^invalid decomposition: occurrences disconnected: 1$"):
        validate_decomposition(g, dec)


def _brute_decomposition_check(graph, dec):
    """Independent re-statement of the three conditions by enumeration."""
    nodes = list(dec.tree.nodes())
    # vertex coverage
    for v in graph.vertices():
        if not any(v in dec.bags[i] for i in nodes):
            return False
    # edge coverage
    for u, v in graph.edges:
        if not any(u in dec.bags[i] and v in dec.bags[i] for i in nodes):
            return False
    # connectivity: count connected components of the occurrence node set
    tree_edges = set()
    for p, c in dec.tree.edge_list():
        tree_edges.add((p, c))
        tree_edges.add((c, p))
    for v in graph.vertices():
        occ = [i for i in nodes if v in dec.bags[i]]
        comp = {occ[0]}
        changed = True
        while changed:
            changed = False
            for i in occ:
                if i in comp:
                    continue
                if any((i, j) in tree_edges for j in comp):
                    comp.add(i)
                    changed = True
        if set(occ) != comp:
            return False
    return True


def test_decomposition_checker_against_bruteforce():
    rng = random.Random(20)
    checked = 0
    for trial in range(120):
        n = rng.randint(1, 8)
        nodes = rng.randint(1, 4)
        children = {}
        for node in range(2, nodes + 1):
            parent = rng.randint(1, node - 1)
            children.setdefault(parent, []).append(node)
        tree = OrderedTree(n=nodes,
                           children={p: tuple(c) for p, c in children.items()})
        bags = {i: frozenset(v for v in range(1, n + 1) if rng.random() < 0.5)
                for i in tree.nodes()}
        dec = TreeDecomposition(tree=tree, bags=bags)
        edges = frozenset((u, v) for u in range(1, n + 1)
                          for v in range(u + 1, n + 1) if rng.random() < 0.3)
        g = Graph(n=n, edges=edges)
        got = _outcome(g, dec)
        assert isinstance(got, int) == _brute_decomposition_check(g, dec), (trial, got)
        checked += 1
    assert checked == 120


def _outcome(graph, dec):
    """validate_decomposition's width, or the violation its error names."""
    try:
        return validate_decomposition(graph, dec)
    except InvariantViolation as err:
        return str(err).removeprefix("invalid decomposition: ")


def _bfs_decomposition_check(graph, dec):
    """validate_decomposition as it was before connectivity became a count:
    the same checks in the same order, one search over the tree per vertex.
    Returns the width, or the text of the first violation."""
    occ = {v: set() for v in graph.vertices()}
    for i, bag in dec.bags.items():
        for v in bag:
            if v not in occ:
                return f"bag vertex out of range: {v}"
            occ[v].add(i)
    for v in graph.vertices():
        if not occ[v]:
            return f"vertex uncovered: {v}"
    for u, v in sorted(graph.edges):
        if not occ[u] & occ[v]:
            return f"edge uncovered: {{{u},{v}}}"
    for v in graph.vertices():
        nodes = occ[v]
        start = next(iter(nodes))
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            around = list(dec.tree.child_list(i))
            if dec.tree.parent(i) is not None:
                around.append(dec.tree.parent(i))
            for j in around:
                if j in nodes and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if seen != nodes:
            return f"occurrences disconnected: {v}"
    return dec.width()


def _corruptions(inst, rng):
    """(graph, decomposition) pairs derived from a valid instance: itself, a
    vertex dropped from a middle bag, an edge left uncovered, and a vertex
    out of range."""
    graph, dec = inst.graph, inst.decomposition
    yield graph, dec
    middle = [i for i in dec.tree.nodes()
              if dec.tree.parent(i) is not None and dec.tree.child_list(i) and dec.bags[i]]
    if middle:
        i = rng.choice(middle)
        bags = dict(dec.bags)
        bags[i] = bags[i] - {rng.choice(sorted(bags[i]))}
        yield graph, TreeDecomposition(tree=dec.tree, bags=bags)
    missing = [(u, v) for u in graph.vertices() for v in graph.vertices()
               if u < v and (u, v) not in graph.edges]
    if missing:
        edge = rng.choice(missing)
        yield Graph(n=graph.n, edges=graph.edges | {edge}), dec
    i = rng.choice(sorted(dec.bags))
    bags = dict(dec.bags)
    bags[i] = bags[i] | {graph.n + 1}
    yield graph, TreeDecomposition(tree=dec.tree, bags=bags)


def test_decomposition_checking_is_bounded_by_the_bags():
    # a declared vertex count past what the bags hold allocates nothing
    dec = TreeDecomposition(tree=OrderedTree(n=1), bags={1: frozenset({1})})
    with pytest.raises(InvariantViolation, match="^invalid decomposition: vertex uncovered: 2$"):
        validate_decomposition(Graph(n=10**9), dec)
    assert dec.occurrences == {1: {1}}


def test_a_long_thin_decomposition_validates_in_near_linear_time():
    # 200,000 bags of two on a path: checking must stay near-linear in the
    # number of tree nodes, which tree-node bit masks per vertex are not
    n = 200_000
    graph = Graph(n=n, edges=frozenset((v, v + 1) for v in range(1, n)))
    tree = OrderedTree(n=n - 1, children={i: (i + 1,) for i in range(1, n - 1)})
    dec = TreeDecomposition(tree=tree, bags={i: frozenset({i, i + 1}) for i in range(1, n)})
    start = time.process_time()
    assert validate_decomposition(graph, dec) == 1
    assert time.process_time() - start < 3.0


def test_decomposition_count_matches_the_search():
    rng = random.Random(8)
    seen = set()
    for seed in range(150):
        inst = generate_instance("logtw-is", {"tree_nodes": 8, "n": 12, "max_bag": 5},
                                 seed=seed)
        for graph, dec in _corruptions(inst, rng):
            got = _outcome(graph, dec)
            assert got == _bfs_decomposition_check(graph, dec), (seed, got)
            seen.add("ok" if isinstance(got, int) else got.split(":")[0])
    assert seen == {"ok", "bag vertex out of range", "vertex uncovered",
                    "edge uncovered", "occurrences disconnected"}


def test_a_checked_pair_is_remembered_and_a_new_graph_is_checked_again(monkeypatch):
    from xalpwb import instances

    checked = []
    real = instances._check_decomposition
    monkeypatch.setattr(instances, "_check_decomposition",
                        lambda graph, dec: checked.append(graph) or real(graph, dec))
    inst = generate_instance("logtw-is", {"tree_nodes": 8, "n": 12, "max_bag": 5}, seed=4)
    graph, dec = inst.graph, inst.decomposition
    assert checked == [graph]  # at construction
    assert validate_decomposition(graph, dec) == inst.width
    assert checked == [graph]
    # as in _corruptions: an edge no bag covers, added to a new Graph on the
    # same decomposition
    (u, v), *_ = [(u, v) for u in graph.vertices() for v in graph.vertices()
                  if u < v and not any({u, v} <= bag for bag in dec.bags.values())]
    wider = Graph(n=graph.n, edges=graph.edges | {(u, v)})
    violation = f"edge uncovered: {{{u},{v}}}"
    assert _outcome(wider, dec) == _bfs_decomposition_check(wider, dec) == violation
    assert checked == [graph, wider]
    # a failure is not remembered, and leaves the success in place
    assert _outcome(wider, dec) == violation
    assert validate_decomposition(graph, dec) == inst.width
    assert checked == [graph, wider, wider]
    # an equal graph is still another object, and is checked again
    again = Graph(n=graph.n, edges=graph.edges)
    assert validate_decomposition(again, dec) == inst.width
    assert checked == [graph, wider, wider, again]


def test_logtw_instance_keeps_its_validated_width():
    inst = generate_instance("logtw-vc", {"tree_nodes": 6, "n": 10}, seed=3)
    assert inst.width == validate_decomposition(inst.graph, inst.decomposition)
    assert inst.width == inst.decomposition.width()


def test_neighbour_masks_are_cached_per_graph():
    g = Graph(n=4, edges=frozenset({(1, 2), (2, 3)}))
    assert g.neighbour_masks == (0, 0b100, 0b1010, 0b100, 0)
    assert g.neighbour_masks is g.neighbour_masks


ROUND_TRIP_FAMILIES = ["graph", "tcmc", "tcmis", "listcol", "negcnf",
                       "poscnf", "logtw-is", "logtw-rbds"]


@pytest.mark.parametrize("family", ROUND_TRIP_FAMILIES)
def test_round_trip(family):
    for seed in range(8):
        inst = random_graph(seed) if family == "graph" else generate_instance(family, None, seed)
        tag = {"tcmis": "tcmc", "negcnf": "cnf", "poscnf": "cnf",
               "logtw-is": "logtw", "logtw-rbds": "logtw"}.get(family, family)
        text = serialize_instance(inst)
        assert parse_instance(tag, text) == inst


def test_listcol_round_trips_with_and_without_its_decomposition():
    for seed in range(8):
        inst = generate_instance("listcol", None, seed=seed)
        precol = reduce_listcoloring_to_precoloring(inst).target
        bare = dataclasses.replace(inst, decomposition=None)
        for case in (inst, precol, bare):
            text = serialize_instance(case)
            assert ("\nbag " in text) == (case.decomposition is not None)
            back = parse_instance("listcol", text)
            assert back == case and back.width == case.width
    assert bare.width is None and precol.precolored


def test_every_format_tag_round_trips(corpus):
    cases = [("machine", m) for m in corpus.values()]
    for seed in range(8):
        dec = generate_instance("logtw-is", None, seed=seed).decomposition
        cases += [("decomposition", dec), ("tree", dec.tree)]
    cases += [(tag, generate_instance(family, None, seed=0))
              for family, tag in (("tcmc", "tcmc"), ("negcnf", "cnf"),
                                  ("listcol", "listcol"), ("logtw-is", "logtw"))]
    cases.append(("graph", random_graph(0)))
    cases += [("atm", generate_instance("atm", None, seed=seed)) for seed in range(8)]
    assert any(inst.x for tag, inst in cases if tag == "atm")
    assert {tag for tag, _ in cases} == set(FORMATS)
    for tag, inst in cases:
        assert FORMATS[tag].type is type(inst)
        assert parse_instance(tag, serialize_instance(inst)) == inst


@pytest.mark.parametrize("tag", ["decomposition", "tcmc", "cnf", "listcol", "logtw", "atm"])
def test_composite_format_reports_foreign_record_at_its_line(tag):
    with pytest.raises(FormatError, match=f"line 2: unexpected record 'zzz' in {tag}"):
        parse_instance(tag, "xalpwb 1\nzzz 1\n")


def _one_text_of_each_tag() -> dict[str, str]:
    logtw = generate_instance("logtw-is", None, seed=0)
    atm = generate_instance("atm", None, seed=0)
    cases = {"graph": logtw.graph, "tree": logtw.decomposition.tree,
             "decomposition": logtw.decomposition, "logtw": logtw,
             "machine": atm.machine, "atm": atm}
    for family, tag in (("tcmc", "tcmc"), ("negcnf", "cnf"), ("listcol", "listcol")):
        cases[tag] = generate_instance(family, None, seed=0)
    assert set(cases) == set(FORMATS)
    return {tag: serialize_instance(inst) for tag, inst in cases.items()}


@pytest.mark.parametrize("tok", sorted(formats._SINGLE))
def test_a_second_copy_of_a_single_record_is_rejected_at_its_line(tok):
    checked = 0
    for tag, text in _one_text_of_each_tag().items():
        lines = text.splitlines()
        first = [line for line in lines if line.split()[0] == tok]
        if not first:
            continue
        lines.append(first[0])
        with pytest.raises(FormatError, match=f"^line {len(lines)}: duplicate '{tok}' record$"):
            parse_instance(tag, "\n".join(lines))
        checked += 1
    assert checked


@pytest.mark.parametrize("tok", sorted(formats._SINGLE - {"listcol", "problem"}))
def test_a_missing_single_record_is_named(tok):
    checked = 0
    for tag, text in _one_text_of_each_tag().items():
        lines = text.splitlines()
        kept = [line for line in lines if line.split()[0] != tok]
        if kept == lines:
            continue
        with pytest.raises(FormatError, match=f"^missing '{tok}' record$"):
            parse_instance(tag, "\n".join(kept))
        checked += 1
    assert checked


@pytest.mark.parametrize("tag,records,message", [
    ("graph", "p graph 2 0\nlabel 1 red\nlabel 1 blue", "line 4: duplicate label for vertex 1"),
    ("tree", "t 3\na 1 2 1\na 1 3 1", "line 4: duplicate child order 1 at node 1"),
    ("decomposition", "t 1\nbag 1 1\nbag 1 2", "line 4: duplicate bag for node 1"),
    ("tcmc", "tcmc 1\np graph 1 0\nt 1\nclass 1 1 1\nclass 1 1 1",
     "line 6: duplicate class (1, 1)"),
    ("listcol", "listcol\np graph 1 0\npalette 1\nlist 1 1\nlist 1",
     "line 6: duplicate list for vertex 1"),
    ("listcol", "listcol\np graph 1 0\npalette 1\npre 1 1\npre 1 1",
     "line 6: duplicate precoloring of vertex 1"),
    ("machine", "m states q\ninit q\naccept q\nmode q det\nmode q univ\nwork 1 0",
     "line 6: duplicate mode for state q"),
])
def test_a_second_record_of_one_key_is_rejected_at_its_line(tag, records, message):
    with pytest.raises(FormatError, match=re.escape(message)):
        parse_instance(tag, f"xalpwb 1\n{records}\n")


@pytest.mark.parametrize("records,found", [
    ("t 3\na 1 2 1", 1),
    ("t 2\na 1 2 1\na 2 1 1", 2),
    ("t 1000000000", 0),
])
def test_a_tree_size_needs_one_arc_per_node_but_the_root(records, found):
    # checked at the t line before the tree is built, so a declared size
    # allocates nothing the text does not witness
    n = int(records.split()[1])
    with pytest.raises(FormatError, match=re.escape(
            f"line 2: a tree of {n} nodes needs {n - 1} 'a' records, found {found}")):
        parse_instance("tree", f"xalpwb 1\n{records}\n")


def _syntax_record(syntax: str, length: int) -> str:
    """A record of the syntax's literal words, every field '1', cut or
    padded to length tokens."""
    words = [w if not w.startswith(("<", "[")) else "1" for w in syntax.split()]
    return " ".join((words + ["1"] * length)[:length])


def _arity_bounds(syntax: str) -> tuple[int, float]:
    words = syntax.split()
    if words[-1].endswith(("...>", "...]")):
        return len(words) - words[-1].startswith("["), float("inf")
    return len(words) - words[-1].startswith("["), len(words)


def test_only_any_number_records_have_no_wrong_arity():
    free = [tok for tok, syntax in formats._SYNTAX.items()
            if _arity_bounds(syntax) == (1, float("inf"))]
    assert sorted(free) == ["accept", "c", "palette"]


@pytest.mark.parametrize("tok", sorted(tok for tok, syntax in formats._SYNTAX.items()
                                       if _arity_bounds(syntax) != (1, float("inf"))))
def test_a_record_of_the_wrong_arity_quotes_its_syntax(tok):
    syntax = formats._SYNTAX[tok]
    tag = next(tag for tag, fmt in FORMATS.items() if tok in fmt.tokens)
    lo, hi = _arity_bounds(syntax)
    lengths = [n for n in (lo - 1, hi + 1) if 1 <= n < float("inf")]
    assert lengths
    for length in lengths:
        record = _syntax_record(syntax, length)
        with pytest.raises(FormatError, match=re.escape(f"line 2: expected '{syntax}'")):
            parse_instance(tag, f"xalpwb 1\n{record}\n")


def test_a_literal_word_out_of_place_quotes_its_syntax():
    for tag, record in (("graph", "p grph 1 0"), ("machine", "m state q"),
                        ("machine", "tr q 0 0 => q 0 0 0 none")):
        syntax = formats._SYNTAX[record.split()[0]]
        with pytest.raises(FormatError, match=re.escape(f"line 2: expected '{syntax}'")):
            parse_instance(tag, f"xalpwb 1\n{record}\n")


def test_a_non_integer_field_is_named_with_its_syntax():
    named = []
    for tok, syntax in formats._SYNTAX.items():
        tag = next(tag for tag, fmt in FORMATS.items() if tok in fmt.tokens)
        words = syntax.split()
        for pos, word in enumerate(words[1:], start=1):
            name = word.strip("[<.>]")
            record = _syntax_record(syntax, len(words)).split()
            record[pos] = "x"
            try:
                parse_instance(tag, "xalpwb 1\n" + " ".join(record) + "\n")
            except FormatError as exc:
                if "expected integer" in str(exc):
                    assert str(exc) == (f"line 2: expected integer for <{name}> "
                                        f"in '{syntax}', got 'x'")
                    named.append(f"{tok} {name}")
            except InvariantViolation:
                pass
    assert named == [
        "p n", "p m", "e u", "e v", "label v", "t nodes", "a parent", "a child", "a order",
        "bag node", "bag v", "tcmc k", "class node", "class color", "class v", "cnf k",
        "var node", "var slot", "palette c", "list v", "list c", "pre v", "pre c",
        "logtw k", "logtw W", "work cells", "tr dw", "tr di", "atm blocks", "atm beta"]


def _syntax_fields(syntax: str, rng: random.Random) -> list:
    """Seeded fields of one syntax, in the order its reader returns them:
    integers for integer fields, tokens for the others, a rest field as a
    list (empty when it takes any number) and an optional field as None
    or a value."""
    def value(name: str):
        if name in formats._INT_FIELDS:
            return rng.randint(-5, 10**6)
        return rng.choice(["q", "x12", "-y", "push:a", "none", "0", "det", "rbds"])

    fields = []
    for word in syntax.split()[1:]:
        if word[0] not in "<[":
            continue
        name = word.strip("[<.>]")
        if word.endswith("...>"):
            fields.append([value(name) for _ in range(rng.randint(1, 3))])
        elif word.endswith("...]"):
            fields.append([value(name) for _ in range(rng.randint(0, 3))])
        elif word[0] == "[":
            fields.append(rng.choice([None, value(name)]))
        else:
            fields.append(value(name))
    return fields


@pytest.mark.parametrize("tok", sorted(formats._SYNTAX))
def test_each_record_reads_back_what_its_writer_writes(tok):
    syntax = formats._SYNTAX[tok]
    rng = random.Random(tok)
    left_out = False
    for _ in range(50):
        fields = _syntax_fields(syntax, rng)
        record = formats._WRITE[tok](*fields)
        assert record == " ".join(record.split()) and record.split()[0] == tok
        assert formats._READ[tok](record.split(), 1) == fields, record
        left_out |= bool(fields) and fields[-1] in (None, [])
    # a last field that may be absent or empty was written without it
    assert left_out == syntax.endswith("]")


def test_round_trip_empty_edge_graph():
    g = Graph(n=3)
    text = serialize_instance(g)
    assert "p graph 3 0" in text
    assert parse_instance("graph", text) == g


def test_round_trip_single_clause_cnf():
    inst = TreeChainedCnf(
        tree=OrderedTree(n=1), variable_sets={1: frozenset({1, 2})},
        clauses=((1, -2),), variant="general", k=1)
    text = serialize_instance(inst)
    assert sum(line.startswith("c ") for line in text.splitlines()) == 1
    assert parse_instance("cnf", text) == inst


def test_empty_lists_and_cells_round_trip():
    # what an empty class becomes: a list with no colour, and a partitioned
    # CNF whose cells are all empty
    listcol = ListColoringInstance(graph=Graph(n=2, edges=frozenset({(1, 2)})),
                                   palette=frozenset({1}),
                                   lists={1: frozenset(), 2: frozenset({1})})
    assert "\nlist 1\n" in serialize_instance(listcol)
    tree = OrderedTree(n=2, children={1: (2,)})
    cases = [("listcol", listcol)]
    for variant, clauses in (("positive-partitioned", ((),)), ("negative-partitioned", ())):
        cases.append(("cnf", TreeChainedCnf(
            tree=tree, variable_sets={1: frozenset(), 2: frozenset()}, clauses=clauses,
            variant=variant, k=2, partition={(i, j): frozenset() for i in (1, 2)
                                             for j in (1, 2)})))
    for tag, inst in cases:
        assert parse_instance(tag, serialize_instance(inst)) == inst


def test_a_general_cnf_partition_is_checked_like_any_other():
    # a slot past k once parsed to a cell (1, 7) beside an empty (1, 1)
    with pytest.raises(InvariantViolation, match=re.escape("extra [(1, 7)]")):
        parse_instance("cnf", "xalpwb 1\ncnf general 1\nt 1\nvar 1 a 7\n")
    with pytest.raises(InvariantViolation, match="exactly their node's variables"):
        parse_instance("cnf", "xalpwb 1\ncnf general 1\nt 1\nvar 1 a 1\nvar 1 b\n")
    text = "xalpwb 1\ncnf general 2\nt 2\na 1 2 1\nvar 1 a 2\nvar 2 b 1\nc a b\n"
    inst = parse_instance("cnf", text)
    assert [inst.cell_of_var(x) for x in (1, 2)] == [(1, 2), (2, 1)]
    assert serialize_instance(inst) == text


def test_a_partition_member_in_two_cells_is_rejected():
    tree = OrderedTree(n=2, children={1: (2,)})
    with pytest.raises(InvariantViolation, match=re.escape("puts 1 in cells (1, 1) and (2, 1)")):
        TreeChainedCnf(tree=tree, variable_sets={1: frozenset({1}), 2: frozenset({2})},
                       clauses=(), variant="negative-partitioned", k=1,
                       partition={(1, 1): frozenset({1}), (2, 1): frozenset({1, 2})})


def _labelled(text: str) -> Graph:
    return Graph(n=2, edges=frozenset({(1, 2)}), labels={1: text, 2: "b"})


def _named(name: str) -> TreeChainedCnf:
    return TreeChainedCnf(tree=OrderedTree(n=1), variable_sets={1: frozenset({1, 2})},
                          clauses=((1, -2),), variant="general", k=1,
                          var_names={1: name, 2: "y"})


def _machine(state="q", blank="_", stack="a", symbol="1"):
    """A stack machine whose one step reads symbol and blank and pushes
    stack on its way to state."""
    return make_machine(["s", state], "s", [state], {"s": "exist", state: "det"}, 1, [blank],
                        {("s", symbol, blank): [(state, blank, 0, 1, ("push", stack))]})


# (format, builder, a value its writer cannot write back, a valid neighbour)
_UNWRITABLE = {
    "empty label": ("graph", _labelled, "", "a"),
    "label with two spaces": ("graph", _labelled, "a  b", "a b"),
    "label with a leading space": ("graph", _labelled, " a", "a"),
    "label with a tab": ("graph", _labelled, "a\tb", "a b c"),
    "var name with a space": ("cnf", _named, "a b", "a_b"),
    "var name starting with '-'": ("cnf", _named, "-a", "a-"),
    "empty var name": ("cnf", _named, "", "a"),
    "state name with a space": ("machine", _machine, "s t", "s_t"),
    "empty state name": ("machine", _machine, "", "t"),
    "work symbol of two characters": ("machine", lambda w: _machine(blank=w), "ab", "b"),
    "blank work symbol": ("machine", lambda w: _machine(blank=w), " ", "b"),
    "stack symbol of two characters": ("machine", lambda c: _machine(stack=c), "ab", "b"),
    "blank stack symbol": ("machine", lambda c: _machine(stack=c), " ", "#"),
    "blank input symbol": ("machine", lambda c: _machine(symbol=c), " ", "0"),
}


@pytest.mark.parametrize("case", list(_UNWRITABLE))
def test_a_name_its_format_cannot_write_back_is_rejected(case):
    tag, build, bad, good = _UNWRITABLE[case]
    with pytest.raises(InvariantViolation):
        build(bad)
    inst = build(good)
    assert parse_instance(tag, serialize_instance(inst)) == inst


def test_header_required():
    with pytest.raises(FormatError, match="header"):
        parse_instance("graph", "p graph 1 0\n")


def test_parse_error_carries_line_number():
    with pytest.raises(FormatError, match="line 3"):
        parse_instance("graph", "xalpwb 1\np graph 2 1\ne 1 x\n")


def test_listcol_invariants():
    g = Graph(n=1)
    # an empty list is accepted: no colouring meets it
    empty = ListColoringInstance(graph=g, palette=frozenset({1}), lists={1: frozenset()})
    assert solve_listcoloring(empty) == (False, None)
    with pytest.raises(InvariantViolation, match="outside its list"):
        ListColoringInstance(graph=g, palette=frozenset({1, 2}),
                             lists={1: frozenset({1})}, precolored={1: 2})


def test_logtw_width_bound_checked():
    g = Graph(n=2, edges=frozenset({(1, 2)}))
    dec = TreeDecomposition(tree=OrderedTree(n=1), bags={1: frozenset({1, 2})})
    LogTwGraphInstance(graph=g, decomposition=dec, target_weight=1, k=1)
    big = Graph(n=4, edges=frozenset())
    wide = TreeDecomposition(tree=OrderedTree(n=1),
                             bags={1: frozenset({1, 2, 3, 4})})
    with pytest.raises(InvariantViolation, match="exceeds"):
        LogTwGraphInstance(graph=big, decomposition=wide, target_weight=0, k=1)


def _mutate(rng, text):
    lines = text.splitlines()
    op = rng.randrange(4)
    if op == 0 and len(lines) > 1:
        del lines[rng.randrange(1, len(lines))]
    elif op == 1:
        lines.append(lines[rng.randrange(len(lines))])
    elif op == 2:
        i = rng.randrange(len(lines))
        toks = lines[i].split()
        if toks:
            j = rng.randrange(len(toks))
            if toks[j].lstrip("-").isdigit():
                toks[j] = str(int(toks[j]) + rng.choice((-1, 1, 7)))
            else:
                toks[j] = toks[j] + "z"
            lines[i] = " ".join(toks)
    else:
        i = rng.randrange(len(lines))
        toks = lines[i].split()
        if len(toks) > 1:
            del toks[rng.randrange(len(toks))]
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


# the part of a generated instance a format tag fuzzes, where it is not the whole
_FUZZED_PART = {"graph": lambda x: x.graph, "tree": lambda x: x.decomposition.tree,
                "decomposition": lambda x: x.decomposition, "machine": lambda x: x.machine}


@pytest.mark.parametrize("family,tag", [("tcmc", "tcmc"), ("poscnf", "cnf"),
                                        ("listcol", "listcol"),
                                        ("logtw-is", "logtw"), ("logtw-is", "graph"),
                                        ("logtw-is", "tree"), ("logtw-is", "decomposition"),
                                        ("atm", "machine"), ("atm", "atm")])
def test_fuzzed_mutations_never_misaccepted(family, tag):
    """Mutations either fail to parse or still satisfy every invariant; a
    parse success implies the constructors re-validated everything."""
    rng = random.Random(f"{family}|{tag}")
    inst = generate_instance(family, None, seed=1)
    base = serialize_instance(_FUZZED_PART.get(tag, lambda x: x)(inst))
    for _ in range(200):
        mutated = _mutate(rng, base)
        try:
            inst = parse_instance(tag, mutated)
        except (FormatError, InvariantViolation):
            continue
        assert serialize_instance(inst)  # well-formed enough to serialize
