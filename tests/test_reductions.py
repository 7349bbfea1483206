"""Per-reduction constructions: the spec'd small cases, counting laws,
witness bounds, lift round-trips, and end-to-end composition."""

import hashlib
import random

import pytest

from conftest import make_machine
from xalpwb.formats import serialize_instance
from xalpwb.instances import (
    CapExceeded,
    DomainError,
    Graph,
    InvariantViolation,
    ListColoringInstance,
    LogTwGraphInstance,
    OrderedTree,
    TcmcInstance,
    TreeChainedCnf,
    TreeDecomposition,
    validate_decomposition,
)
from xalpwb.oracles import (
    check_cnf_solution,
    check_coloring,
    check_subset_solution,
    check_tcmc_solution,
    independent_sets,
    optimum_subset,
    solve_cnf_bruteforce,
    solve_is_ds_vc,
    solve_is_treedp,
    solve_listcoloring,
    solve_tcmc_bruteforce,
)
from xalpwb.reductions import (
    REDUCTIONS,
    _block_view,
    _clause_completion,
    _intra_edge,
    complement_tcmc_to_tcmis,
    reduce_atm_to_tcmc,
    reduce_is_to_vc,
    reduce_listcoloring_to_precoloring,
    reduce_negcnf_to_poscnf,
    reduce_partitioned_to_general_cnf,
    reduce_poscnf_to_logtw_is,
    reduce_rbds_to_ds,
    reduce_tcmis_to_listcoloring,
    reduce_tcmis_to_negcnf,
    reduce_vc_to_rbds,
)
from xalpwb.machines import AtmInstance, shaped_run
from xalpwb.verify import CONTRACTS, FAMILIES, generate_instance, verify_reduction

BIGCAP = 1 << 44


def single_node_tcmc():
    return TcmcInstance(tree=OrderedTree(n=1), k=1,
                        classes={(1, 1): frozenset({1})}, graph=Graph(n=1))


def two_node_tcmc(edges=()):
    tree = OrderedTree(n=2, children={1: (2,)})
    classes = {(1, 1): frozenset({1}), (2, 1): frozenset({2})}
    return TcmcInstance(tree=tree, k=1, classes=classes,
                        graph=Graph(n=2, edges=frozenset(edges)))


# ------------------------------------------------------------------ atm-tcmc


def test_atm_tcmc_immediate_accept_single_node():
    m = make_machine(["a"], "a", ["a"], {"a": "det"}, 1, "01", {})
    shape = OrderedTree(n=1)
    art = reduce_atm_to_tcmc(AtmInstance(m, "", shape, 1, 1))
    # the only class holds the root-compatible accepting vertex
    assert all(len(vs) == 1 for vs in art.target.classes.values())
    ok, _ = solve_tcmc_bruteforce(art.target, "clique", cap=BIGCAP)
    assert ok


def test_atm_tcmc_two_step_existential_path():
    m = make_machine(["s", "t"], "s", ["t"], {"s": "exist", "t": "det"}, 2, "01",
                     {("s", "0", "0"): [("t", "0", 0, 0, None)]})
    shape = OrderedTree(n=2, children={1: (2,)})
    art = reduce_atm_to_tcmc(AtmInstance(m, "0", shape, 2, 1))
    ok, sol = solve_tcmc_bruteforce(art.target, "clique", cap=BIGCAP)
    assert ok == (shaped_run(m, "0", shape) is not None) == True
    run = art.lift.backward(sol)
    assert check_tcmc_solution(art.target, "clique", art.lift.forward(run))
    # same machine on a mismatching shape: both sides reject
    single = OrderedTree(n=1)
    art2 = reduce_atm_to_tcmc(AtmInstance(m, "0", single, 2, 1))
    ok2, _ = solve_tcmc_bruteforce(art2.target, "clique", cap=BIGCAP)
    assert ok2 == (shaped_run(m, "0", single) is not None) == False


def test_atm_tcmc_per_class_size_cap():
    x = "0"
    shape = OrderedTree(n=5, children={1: (2, 3), 2: (4,), 3: (5,)})
    for blocks, beta in [(2, 1), (1, 2), (2, 2), (3, 1), (3, 2)]:
        m = make_machine(
            ["u", "l", "r", "acc"], "u", ["acc"],
            {"u": "univ", "l": "exist", "r": "exist", "acc": "det"}, blocks * beta, "01",
            {("u", "#", "0"): [("l", "1", 0, 0, None), ("r", "0", 1, 0, None)],
             ("l", "#", "1"): [("acc", "1", 0, 0, None)],
             ("r", "#", "0"): [("acc", "1", 0, 0, None)]})
        art = reduce_atm_to_tcmc(AtmInstance(m, x, shape, blocks, beta))
        assert len(art.target.classes) == 5 * blocks
        cap = len(m.states) * (len(x) + 2) * (beta + 2) * (1 << beta)
        assert all(len(vs) <= cap for vs in art.target.classes.values()), (blocks, beta)


def _clip(offset, beta):
    return min(max(offset, 0), beta + 1)


@pytest.mark.parametrize("beta", [1, 2, 3])
def test_atm_tcmc_block_tags_are_clipped_head_offsets(beta):
    # _block_view: at every head cell of a 3-block tape, the head's block
    # tags the head's cell in it, blocks left of it beta + 1, right of it 0
    blocks = 3
    tape = tuple("01"[c % 2] for c in range(blocks * beta))
    for h in range(1, blocks * beta + 1):
        head_block = (h - 1) // beta + 1
        want = [(beta + 1 if j < head_block else 0 if j > head_block else h - (j - 1) * beta,
                 tape[(j - 1) * beta: j * beta]) for j in range(1, blocks + 1)]
        assert _block_view(beta, blocks, tape, h) == want, h
    # _intra_edge: labels of blocks j = 2 and 3 (of 4) are adjacent exactly
    # when some head cell gives them their two tags, given equal state and
    # input head
    j = 2
    for ta in range(beta + 2):
        for tb in range(beta + 2):
            one_head = any(_clip(h - (j - 1) * beta, beta) == ta and _clip(h - j * beta, beta) == tb
                           for h in range(1, 4 * beta + 1))
            assert _intra_edge(beta, ("q", 1, ta, "0"), ("q", 1, tb, "1")) == one_head, (ta, tb)
            assert not _intra_edge(beta, ("q", 1, ta, "0"), ("r", 1, tb, "0"))
            assert not _intra_edge(beta, ("q", 1, ta, "0"), ("q", 2, tb, "0"))


ATM_TCMC_LIFT = """\
lift s@1/1/0 v1
lift s@1/after/0 v2
lift t@0/before/0 v3
lift t@0/before/1 v4
lift t@0/after/0 v5
lift t@0/after/1 v6
lift t@0/1/0 v7
lift t@0/1/1 v8
lift t@1/before/0 v9
lift t@1/before/1 v10
lift t@1/after/0 v11
lift t@1/after/1 v12
lift t@1/1/0 v13
lift t@1/1/1 v14
lift t@0/before/0 v15
lift t@0/before/1 v16
lift t@0/after/0 v17
lift t@0/after/1 v18
lift t@0/1/0 v19
lift t@0/1/1 v20
lift t@1/before/0 v21
lift t@1/before/1 v22
lift t@1/after/0 v23
lift t@1/after/1 v24
lift t@1/1/0 v25
lift t@1/1/1 v26
"""


def test_atm_tcmc_lift_records_are_the_vertex_labels():
    # one record per target vertex: state@input head/block tag/block content
    m = make_machine(["s", "t"], "s", ["t"], {"s": "exist", "t": "det"}, 2, "01",
                     {("s", "#", "0"): [("t", "1", 0, 0, None)]})
    shape = OrderedTree(n=2, children={1: (2,)})
    art = reduce_atm_to_tcmc(AtmInstance(m, "", shape, 2, 1))
    assert art.lift.serialize() == ATM_TCMC_LIFT


def test_atm_tcmc_at_three_blocks_completes_the_blocks_apart():
    profile = {"blocks": 3, "beta": 1}
    report = verify_reduction("atm-tcmc", 20, 0, profile=profile)
    assert report.ok and report.agreements == 20
    pairs = 0
    for seed in range(10):
        target = reduce_atm_to_tcmc(generate_instance("atm", profile, seed=seed)).target
        # blocks 1 and 3 of a node do not touch, so every pair of them is an edge
        for i in target.tree.nodes():
            first, third = target.classes[(i, 1)], target.classes[(i, 3)]
            assert all(target.graph.has_edge(u, v) for u in first for v in third), (seed, i)
            pairs += len(first) * len(third)
    assert pairs > 1000


def test_atm_tcmc_rejects_bad_layout():
    m = make_machine(["a"], "a", ["a"], {"a": "det"}, 3, "01", {})
    with pytest.raises(InvariantViolation, match="blocks"):
        reduce_atm_to_tcmc(AtmInstance(m, "", OrderedTree(n=1), 2, 2))
    stacky = make_machine(["a", "b"], "a", ["b"], {"a": "det", "b": "det"}, 1, "01",
                          {("a", "#", "0"): [("b", "0", 0, 0, ("push", "z"))]})
    with pytest.raises(InvariantViolation, match="stack-free"):
        reduce_atm_to_tcmc(AtmInstance(stacky, "", OrderedTree(n=1), 1, 1))


# --------------------------------------------------------- tcmc complement


def test_complement_single_vertex_unchanged():
    inst = single_node_tcmc()
    art = complement_tcmc_to_tcmis(inst)
    assert art.target == inst
    assert solve_tcmc_bruteforce(art.target, "independent-set")[0]


def test_complement_swaps_solvability():
    # fully adjacent incident classes: clique solvable, complement has no
    # cross edges and stays solvable as an independent set
    inst = two_node_tcmc(edges={(1, 2)})
    art = complement_tcmc_to_tcmis(inst)
    assert not art.target.graph.edges
    assert solve_tcmc_bruteforce(inst, "clique")[0]
    assert solve_tcmc_bruteforce(art.target, "independent-set")[0]


def test_complement_is_involution():
    for seed in range(20):
        inst = generate_instance("tcmc", None, seed=seed)
        twice = complement_tcmc_to_tcmis(complement_tcmc_to_tcmis(inst).target)
        assert twice.target == inst


# ------------------------------------------------------------- list coloring


def test_listcol_edgeless_source_trivially_colorable():
    inst = two_node_tcmc()
    art = reduce_tcmis_to_listcoloring(inst)
    assert art.target.graph.n == 2  # no conflict vertices
    assert solve_listcoloring(art.target)[0]


def test_listcol_single_cross_edge_forces_uncolorable():
    inst = two_node_tcmc(edges={(1, 2)})
    assert not solve_tcmc_bruteforce(inst, "independent-set")[0]
    art = reduce_tcmis_to_listcoloring(inst)
    assert art.target.graph.n == 3
    assert not solve_listcoloring(art.target)[0]


def test_listcol_witness_width_bound_k2():
    hit_exact = False
    for seed in range(25):
        inst = generate_instance("tcmis", {"k": 2}, seed=seed)
        art = reduce_tcmis_to_listcoloring(inst)
        width = validate_decomposition(art.target.graph, art.witness)
        assert width <= 3
        if width == 3:
            hit_exact = True
    assert hit_exact


def test_precoloring_full_list_adds_no_pendants():
    g = Graph(n=1)
    inst = ListColoringInstance(graph=g, palette=frozenset({1, 2}),
                                lists={1: frozenset({1, 2})})
    art = reduce_listcoloring_to_precoloring(inst)
    assert art.target.graph.n == 1 and not art.target.precolored


def test_precoloring_pendant_count():
    for seed in range(20):
        inst = generate_instance("listcol", None, seed=seed)
        art = reduce_listcoloring_to_precoloring(inst)
        forbidden = sum(len(inst.palette - inst.effective_list(v))
                        for v in inst.graph.vertices())
        assert art.target.graph.n == inst.graph.n + forbidden
        assert len(art.target.precolored) == forbidden


def test_precoloring_solutions_restrict():
    for seed in range(20):
        inst = generate_instance("listcol", {"n": 3}, seed=seed)
        src_ok, src_col = solve_listcoloring(inst)
        art = reduce_listcoloring_to_precoloring(inst)
        tgt_ok, tgt_col = solve_listcoloring(art.target)
        assert src_ok == tgt_ok
        if src_ok:
            assert check_coloring(art.target, art.lift.forward(src_col))
            assert check_coloring(inst, art.lift.backward(tgt_col))


# ----------------------------------------------------------------- CNF chain


def test_negcnf_edgeless_source():
    inst = two_node_tcmc()
    art = reduce_tcmis_to_negcnf(inst)
    assert art.target.clauses == ()
    assert solve_cnf_bruteforce(art.target)[0]


def test_negcnf_clause_count_equals_edges():
    for seed in range(15):
        inst = generate_instance("tcmis", None, seed=seed)
        art = reduce_tcmis_to_negcnf(inst)
        assert len(art.target.clauses) == len(inst.graph.edges)


def test_negcnf_single_edge_forced_unsat():
    inst = two_node_tcmc(edges={(1, 2)})
    art = reduce_tcmis_to_negcnf(inst)
    assert not solve_cnf_bruteforce(art.target)[0]


def test_poscnf_cell_of_two_substitution():
    inst = TreeChainedCnf(tree=OrderedTree(n=1),
                          variable_sets={1: frozenset({1, 2})},
                          clauses=((-1,),), variant="negative-partitioned", k=1,
                          partition={(1, 1): frozenset({1, 2})})
    art = reduce_negcnf_to_poscnf(inst)
    assert art.target.clauses == ((2,),)


def test_poscnf_literal_count_law():
    for seed in range(15):
        inst = generate_instance("negcnf", None, seed=seed)
        art = reduce_negcnf_to_poscnf(inst)
        for before, after in zip(inst.clauses, art.target.clauses):
            cells = [cell for lit in before for cell in inst.partition.values()
                     if -lit in cell]
            expect = sum(len(cell) - 1 for cell in cells)
            assert len(after) == expect


def test_poscnf_singleton_cell_yields_empty_clause():
    inst = TreeChainedCnf(tree=OrderedTree(n=1),
                          variable_sets={1: frozenset({1})},
                          clauses=((-1,),), variant="negative-partitioned", k=1,
                          partition={(1, 1): frozenset({1})})
    art = reduce_negcnf_to_poscnf(inst)
    assert art.target.clauses == ((),)
    assert not solve_cnf_bruteforce(art.target)[0]
    assert not solve_cnf_bruteforce(inst)[0]


def test_poscnf_equisatisfiable():
    for seed in range(25):
        inst = generate_instance("negcnf", None, seed=seed)
        art = reduce_negcnf_to_poscnf(inst)
        assert solve_cnf_bruteforce(inst)[0] == solve_cnf_bruteforce(art.target)[0]


def test_gencnf_cell_clauses():
    inst = TreeChainedCnf(tree=OrderedTree(n=1),
                          variable_sets={1: frozenset({1, 2})},
                          clauses=(), variant="positive-partitioned", k=1,
                          partition={(1, 1): frozenset({1, 2})})
    art = reduce_partitioned_to_general_cnf(inst)
    assert art.target.clauses == ((1, 2), (-1, -2))


def test_gencnf_added_clause_count():
    for seed in range(15):
        inst = generate_instance("poscnf", None, seed=seed)
        art = reduce_partitioned_to_general_cnf(inst)
        expect = sum(1 + len(cell) * (len(cell) - 1) // 2
                     for cell in inst.partition.values())
        assert len(art.target.clauses) == len(inst.clauses) + expect


def test_gencnf_equisatisfiable():
    for seed in range(25):
        inst = generate_instance("poscnf", None, seed=seed)
        art = reduce_partitioned_to_general_cnf(inst)
        assert solve_cnf_bruteforce(inst)[0] == solve_cnf_bruteforce(art.target)[0]


# ---------------------------------------------------- logarithmic treewidth


def isolated_clause_gadget(ell):
    """One clause gadget of length ell with a literal vertex at every column
    and no variable-gadget edges: its graph and the vertex ids of ("p", t),
    ("pp", t) and ("v", t), numbered as the reduction numbers them."""
    ids = {}
    for kind, columns in (("p", range(0, ell + 2)), ("pp", range(1, ell + 1)),
                          ("v", range(1, ell + 1))):
        for t in columns:
            ids[kind, t] = len(ids) + 1
    pairs = [(("p", t), ("p", t + 1)) for t in range(0, ell + 1)]
    pairs += [(("pp", t), ("pp", t + 1)) for t in range(1, ell)]
    pairs += [(a, (b, t)) for t in range(1, ell + 1)
              for a, b in ((("p", t), "pp"), (("v", t), "p"), (("v", t), "pp"))]
    edges = frozenset(tuple(sorted((ids[a], ids[b]))) for a, b in pairs)
    return Graph(n=len(ids), edges=edges), ids


@pytest.mark.parametrize("ell", [2, 4, 6])
def test_clause_gadget_law(ell):
    graph, ids = isolated_clause_gadget(ell)
    lit_vertices = {ids["v", t] for t in range(1, ell + 1)}
    best_with = 0
    best_without = 0
    for mask in independent_sets(graph):
        s = frozenset(v for v in graph.vertices() if mask >> v & 1)
        if s & lit_vertices:
            best_with = max(best_with, len(s))
        else:
            best_without = max(best_without, len(s))
    assert best_with == ell + 2
    assert best_without <= ell + 1


@pytest.mark.parametrize("ell", [2, 4, 6, 8, 10])
def test_clause_completion_law(ell):
    graph, ids = isolated_clause_gadget(ell)
    for pos in range(1, ell + 1):
        chosen = {ids[tag] for tag in _clause_completion(ell, pos)} | {ids["v", pos]}
        assert len(chosen) == ell + 2, pos
        assert check_subset_solution(graph, "is", frozenset(chosen)), pos
    # no true literal: p_0 and the left pattern through column ell
    tags = _clause_completion(ell, None)
    assert tags == [("p", 0)] + [("p" if t % 2 == 0 else "pp", t) for t in range(1, ell + 1)]
    assert check_subset_solution(graph, "is", frozenset(ids[tag] for tag in tags))


def test_forward_of_an_unsatisfying_assignment_is_rejected():
    # variable 1 is the cell's pick, so clause (2,) has no true literal
    inst = TreeChainedCnf(tree=OrderedTree(n=1), variable_sets={1: frozenset({1, 2})},
                          clauses=((2,),), variant="positive-partitioned", k=1,
                          partition={(1, 1): frozenset({1, 2})})
    art = reduce_poscnf_to_logtw_is(inst)
    lifted = art.lift.forward(frozenset({1}))
    assert check_subset_solution(art.target.graph, "is", lifted)
    assert len(lifted) == art.target.target_weight - 1
    assert not FAMILIES["logtw-is"].check(art.target, lifted)
    assert FAMILIES["logtw-is"].check(art.target, art.lift.forward(frozenset({2})))


def test_logtw_smallest_end_to_end():
    # one cell of size 1: t=0, one normalization clause padded to length 2
    inst = TreeChainedCnf(tree=OrderedTree(n=1),
                          variable_sets={1: frozenset({1})},
                          clauses=(), variant="positive-partitioned", k=1,
                          partition={(1, 1): frozenset({1})})
    art = reduce_poscnf_to_logtw_is(inst)
    assert art.target.target_weight == 4  # 0 bits + (2 + 2)
    ok, best = solve_is_treedp(art.target)
    assert ok and best >= 4
    sub_best, _ = optimum_subset(art.target.graph, "is")
    assert sub_best == best


def test_logtw_cell_of_four_gadget_bits():
    inst = TreeChainedCnf(tree=OrderedTree(n=1),
                          variable_sets={1: frozenset({1, 2, 3, 4})},
                          clauses=(), variant="positive-partitioned", k=1,
                          partition={(1, 1): frozenset({1, 2, 3, 4})})
    art = reduce_poscnf_to_logtw_is(inst)
    # t = 2: two disjoint bit edges contribute exactly 2 to any optimum
    hats = list(art.lift.records())
    assert all(len(tgts) == 2 for _, tgts in hats)
    sat, sol = solve_cnf_bruteforce(inst)
    assert sat
    s = art.lift.forward(sol)
    assert check_subset_solution(art.target.graph, "is", s)
    assert len(s) >= art.target.target_weight


def test_logtw_weight_iff_satisfiable():
    for seed in range(20):
        inst = generate_instance("poscnf", None, seed=seed)
        art = reduce_poscnf_to_logtw_is(inst)
        sat, sol = solve_cnf_bruteforce(inst)
        met, best = solve_is_treedp(art.target)
        assert sat == met, seed
        validate_decomposition(art.target.graph, art.target.decomposition)
        if sat:
            back = art.lift.backward(art.lift.forward(sol))
            assert check_cnf_solution(inst, back)


# ------------------------------------------------------- corollary chain


def _logtw(graph, W, problem="is"):
    from xalpwb.instances import log_width_parameter

    dec = TreeDecomposition(tree=OrderedTree(n=1),
                            bags={1: frozenset(graph.vertices())})
    k = log_width_parameter(dec.width(), graph.n)
    return LogTwGraphInstance(graph=graph, decomposition=dec,
                              target_weight=W, k=k, problem=problem)


def test_is_vc_examples():
    p3 = _logtw(Graph(n=3, edges=frozenset({(1, 2), (2, 3)})), 2)
    art = reduce_is_to_vc(p3)
    assert art.target.target_weight == 1
    assert solve_is_ds_vc(p3.graph, "is", 2)[0]
    assert solve_is_ds_vc(art.target.graph, "vc", 1)[0]
    edgeless = _logtw(Graph(n=4), 4)
    assert reduce_is_to_vc(edgeless).target.target_weight == 0
    k3 = _logtw(Graph(n=3, edges=frozenset({(1, 2), (2, 3), (1, 3)})), 1)
    art = reduce_is_to_vc(k3)
    assert art.target.target_weight == 2
    assert solve_is_ds_vc(k3.graph, "vc", 2)[0]


def test_vc_rbds_examples():
    single = _logtw(Graph(n=2, edges=frozenset({(1, 2)})), 1, problem="vc")
    art = reduce_vc_to_rbds(single)
    assert art.target.graph.n == 3
    assert art.target.graph.labels[3] == "red"
    assert solve_is_ds_vc(art.target.graph, "rbds", 1)[0]
    p3 = _logtw(Graph(n=3, edges=frozenset({(1, 2), (2, 3)})), 1, problem="vc")
    art = reduce_vc_to_rbds(p3)
    ok, w = solve_is_ds_vc(art.target.graph, "rbds", 1)
    assert ok and w == frozenset({2})
    # subdivided vertex count: n + m
    assert art.target.graph.n == 3 + 2


def _scanned_vc_rbds_witness(instance):
    """vc-rbds's witness as it was built before the hosts came from the
    occurrence masks: each edge's host is the least tree node, scanned in
    sorted order, whose bag holds both ends."""
    from xalpwb.reductions import _grow_decomposition

    dec, nxt, extra = instance.decomposition, instance.graph.n + 1, []
    for u, v in sorted(instance.graph.edges):
        host = next(i for i in sorted(dec.bags)
                    if u in dec.bags[i] and v in dec.bags[i])
        extra.append((host, frozenset({u, v, nxt})))
        nxt += 1
    return _grow_decomposition(dec.tree, dec.bags, extra)


def test_vc_rbds_hosts_match_the_bag_scan():
    shared = later = 0
    for seed in range(150):
        vc = generate_instance("logtw-vc", {"tree_nodes": 8, "n": 12, "max_bag": 5},
                               seed=seed)
        assert reduce_vc_to_rbds(vc).witness == _scanned_vc_rbds_witness(vc), seed
        bags = vc.decomposition.bags
        for u, v in vc.graph.edges:
            hosts = [i for i in bags if u in bags[i] and v in bags[i]]
            shared += len(hosts) > 1
            later += min(hosts) > 1
    assert shared >= 50 and later >= 100


def test_rbds_ds_examples():
    single = _logtw(Graph(n=2, edges=frozenset({(1, 2)})), 1, problem="vc")
    rbds = reduce_vc_to_rbds(single).target
    art = reduce_rbds_to_ds(rbds)
    assert art.target.target_weight == 2
    assert art.target.graph.n == rbds.graph.n + 2
    best, _ = optimum_subset(art.target.graph, "ds")
    assert best == 2
    # x1 belongs to some minimum dominating set: lift drops it
    ok, wds = solve_is_ds_vc(art.target.graph, "ds", 2)
    assert ok
    back = art.lift.backward(wds)
    assert check_subset_solution(rbds.graph, "rbds", back)
    assert len(back) <= 1


def test_rbds_ds_min_difference_exactly_one():
    for seed in range(25):
        rbds = generate_instance("logtw-rbds", None, seed=seed)
        art = reduce_rbds_to_ds(rbds)
        best_rbds, _ = optimum_subset(rbds.graph, "rbds", cap=1 << 22)
        best_ds, _ = optimum_subset(art.target.graph, "ds", cap=1 << 22)
        assert best_ds == best_rbds + 1, seed


def _listed_rbds_ds_backward(rbds, s):
    """rbds-ds's backward lift as it was before it read the neighbour masks:
    the blue vertices of s, then for each red vertex of s, in increasing
    order, that none of those dominates, its least blue neighbour."""
    adj, blue = rbds.graph.adjacency(), set(rbds.blue_vertices())
    out = {v for v in s if v in blue}
    for r in (v for v in rbds.graph.vertices() if rbds.graph.labels.get(v) == "red"):
        ends = sorted(adj[r] & blue)
        if r in s and ends and not out & set(ends):
            out.add(ends[0])
    return frozenset(out)


def test_rbds_ds_backward_matches_the_listed_lift():
    rng, added = random.Random(11), 0
    for seed in range(100):
        rbds = generate_instance("logtw-rbds", None, seed=seed)
        art = reduce_rbds_to_ds(rbds)
        n = art.target.graph.n
        subsets = [frozenset(v for v in range(1, n + 1) if rng.random() < p)
                   for p in (0.1, 0.3, 0.6)]
        subsets.append(solve_is_ds_vc(art.target.graph, "ds", n)[1])
        for sub in subsets:
            back = art.lift.backward(sub)
            assert back == _listed_rbds_ds_backward(rbds, sub), (seed, sorted(sub))
            added += not back <= sub
    assert added  # some red vertices of s were left undominated


def test_full_chain_composition():
    for seed in range(12):
        inst = generate_instance("tcmis", {"tree_nodes": 2, "max_class": 1,
                                           "max_edges": 4}, seed=seed)
        src_ok = solve_tcmc_bruteforce(inst, "independent-set")[0]
        stage = reduce_tcmis_to_negcnf(inst).target
        stage = reduce_negcnf_to_poscnf(stage).target
        art = reduce_poscnf_to_logtw_is(stage)
        stage = art.target
        stage = reduce_is_to_vc(stage).target
        stage = reduce_vc_to_rbds(stage).target
        final = reduce_rbds_to_ds(stage)
        from xalpwb.oracles import solve_ds_treedp
        end_ok, _ = solve_ds_treedp(final.target, cap=1 << 22)
        assert src_ok == end_ok, seed


def test_gencnf_accepts_negative_partitioned_sources():
    for seed in range(15):
        inst = generate_instance("negcnf", None, seed=seed)
        art = reduce_partitioned_to_general_cnf(inst)
        assert art.target.variant == "general"
        assert solve_cnf_bruteforce(inst)[0] == solve_cnf_bruteforce(art.target)[0]


def test_logtw_empty_clause_source_unsat():
    inst = TreeChainedCnf(tree=OrderedTree(n=1),
                          variable_sets={1: frozenset({1})},
                          clauses=((),), variant="positive-partitioned", k=1,
                          partition={(1, 1): frozenset({1})})
    assert not solve_cnf_bruteforce(inst)[0]
    art = reduce_poscnf_to_logtw_is(inst)
    met, best = solve_is_treedp(art.target)
    assert not met and best == art.target.target_weight - 1


def _emptied(inst: TcmcInstance, key) -> TcmcInstance:
    """inst with class key emptied: its vertices and their edges go, and the
    other vertices keep their order under dense ids."""
    kept = [v for v in inst.graph.vertices() if v not in inst.classes[key]]
    new = {v: i for i, v in enumerate(kept, start=1)}
    return TcmcInstance(
        tree=inst.tree, k=inst.k,
        classes={c: frozenset(new[v] for v in vs if v in new)
                 for c, vs in inst.classes.items()},
        graph=Graph(n=len(kept), edges=frozenset(
            (new[u], new[v]) for u, v in inst.graph.edges if u in new and v in new)))


def test_empty_class_sources_agree_on_every_reduction():
    # an empty class is a no-instance: each construction maps it to a target
    # with an empty list, cell or clause, which its oracle refutes
    from xalpwb.verify import CONTRACTS, run_trial

    cases = []
    for seed in range(10):
        inst = generate_instance("tcmis", None, seed=seed)
        for key in sorted(inst.classes):
            tcmis = _emptied(inst, key)
            negcnf = reduce_tcmis_to_negcnf(tcmis).target
            poscnf = reduce_negcnf_to_poscnf(negcnf).target
            cases += [("tcmis-listcol", tcmis), ("tcmis-negcnf", tcmis),
                      ("listcol-precol", reduce_tcmis_to_listcoloring(tcmis).target),
                      ("negcnf-poscnf", negcnf), ("part-gencnf", negcnf),
                      ("part-gencnf", poscnf), ("poscnf-logtwis", poscnf)]
    for name, source in cases:
        assert FAMILIES[CONTRACTS[name].sources[0]].decide(source, None) == (False, None)
        outcome = run_trial(name, source)
        assert outcome.status == "agree", (name, outcome.detail)
    assert len(cases) >= 200


def test_lift_map_serialization_format():
    inst = two_node_tcmc(edges={(1, 2)})
    art = reduce_tcmis_to_listcoloring(inst)
    lines = art.lift.serialize().splitlines()
    assert lines and all(ln.startswith("lift ") for ln in lines)
    assert any(ln.startswith("lift class:1:1 ") for ln in lines)
    assert any(ln.startswith("lift edge:1:2 ") for ln in lines)


def test_atm_tcmc_beta2_blocks2_cross_block_movement():
    # walk the work head across the block boundary in both directions
    m = make_machine(
        ["a", "b", "c", "d", "acc"], "a", ["acc"],
        {"a": "exist", "b": "exist", "c": "exist", "d": "exist", "acc": "det"},
        4, "01",
        {("a", "#", "0"): [("b", "1", 1, 0, None)],    # cell 1 -> 2 (block 1)
         ("b", "#", "0"): [("c", "1", 1, 0, None)],    # cell 2 -> 3 (into block 2)
         ("c", "#", "0"): [("d", "1", -1, 0, None)],   # cell 3 -> 2 (back)
         ("d", "#", "1"): [("acc", "1", 0, 0, None)]})
    shape = OrderedTree(n=5, children={1: (2,), 2: (3,), 3: (4,), 4: (5,)})
    art = reduce_atm_to_tcmc(AtmInstance(m, "", shape, 2, 2))
    ok, sol = solve_tcmc_bruteforce(art.target, "clique", cap=1 << 52)
    assert ok == (shaped_run(m, "", shape) is not None) == True
    run = art.lift.backward(sol)
    # the decoded run ends in the accepting state with the tape it wrote
    leaf = run[5]
    assert leaf[0] == "acc" and leaf[2] == ("1", "1", "1", "0")
    # and a machine that would walk off the last cell stays unsolvable
    off = make_machine(
        ["a", "acc"], "a", ["acc"], {"a": "exist", "acc": "det"}, 2, "01",
        {("a", "#", "0"): [("acc", "1", -1, 0, None)]})  # off the left edge
    shape2 = OrderedTree(n=2, children={1: (2,)})
    art2 = reduce_atm_to_tcmc(AtmInstance(off, "", shape2, 2, 1))
    ok2, _ = solve_tcmc_bruteforce(art2.target, "clique", cap=BIGCAP)
    assert ok2 == (shaped_run(off, "", shape2) is not None) == False


# ------------------------------------------------------------ artifact pin

# sha256 over each case's serialized target, lift table and the sorted
# forward lift of the source oracle's solution, at seeds 0-19: every
# reduction at its default profile and atm-tcmc at two more.  A refactor
# that keeps every artifact keeps this digest; a change that means to
# alter an artifact updates it.
ARTIFACT_CASES = [(name, None) for name in REDUCTIONS] + [
    ("atm-tcmc", {"blocks": 2, "beta": 2}), ("atm-tcmc", {"blocks": 3, "beta": 1})]
ARTIFACT_DIGEST = "cc73345faa804be4b94964d25dbdf4db87779b47c3464ebb1101b6edcc99122f"


def _artifacts(name, profile, seed):
    family = CONTRACTS[name].sources[0]
    source = generate_instance(family, profile, seed=seed)
    try:
        art = REDUCTIONS[name](source)
        ok, solution = FAMILIES[family].decide(source, None)
    except (DomainError, CapExceeded) as exc:
        return f"{type(exc).__name__}: {exc}\n"
    lifted = art.lift.forward(solution) if ok else ()
    items = sorted(lifted.items() if isinstance(lifted, dict) else lifted)
    return f"{serialize_instance(art.target)}{art.lift.serialize()}{ok} {items}\n"


def test_every_reduction_builds_the_pinned_artifacts():
    digest = hashlib.sha256()
    for name, profile in ARTIFACT_CASES:
        for seed in range(20):
            digest.update(_artifacts(name, profile, seed).encode())
    assert digest.hexdigest() == ARTIFACT_DIGEST
