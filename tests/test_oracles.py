"""Ground-truth solvers: spec'd small cases, dual-solver agreement, caps."""

import dataclasses
import itertools
import random
import time

import pytest

from conftest import deep_path_tcmc, ds_chain_target, path_coloring
from xalpwb import oracles
from xalpwb.instances import (
    CapExceeded,
    Graph,
    InvariantViolation,
    LogTwGraphInstance,
    OrderedTree,
    TcmcInstance,
    TreeChainedCnf,
    TreeDecomposition,
    ListColoringInstance,
    validate_decomposition,
)
from xalpwb.oracles import (
    check_cnf_solution,
    check_coloring,
    check_subset_solution,
    check_tcmc_solution,
    dp_decomposition,
    independent_sets,
    min_degree_decomposition,
    optimum_subset,
    optimum_treedp,
    solve_cnf_bruteforce,
    solve_ds_treedp,
    solve_is_ds_vc,
    solve_is_treedp,
    solve_listcoloring,
    solve_tcmc_bruteforce,
    solve_tcmc_traversal,
)
from xalpwb.reductions import reduce_partitioned_to_general_cnf, reduce_rbds_to_ds
from xalpwb.verify import FAMILIES, generate_instance

P3 = Graph(n=3, edges=frozenset({(1, 2), (2, 3)}))
K3 = Graph(n=3, edges=frozenset({(1, 2), (2, 3), (1, 3)}))
STAR = Graph(n=4, edges=frozenset({(1, 2), (1, 3), (1, 4)}))


def test_tcmc_singleton_class_solvable():
    inst = TcmcInstance(tree=OrderedTree(n=1), k=1,
                        classes={(1, 1): frozenset({1})}, graph=Graph(n=1))
    ok, sol = solve_tcmc_bruteforce(inst)
    assert ok and sol == {(1, 1): 1}
    assert solve_tcmc_traversal(inst) == (True, {(1, 1): 1})


def test_tcmc_missing_edge_unsolvable_in_clique_mode():
    tree = OrderedTree(n=2, children={1: (2,)})
    inst = TcmcInstance(tree=tree, k=1,
                        classes={(1, 1): frozenset({1}), (2, 1): frozenset({2})},
                        graph=Graph(n=2))
    ok, _ = solve_tcmc_bruteforce(inst, "clique")
    assert not ok
    ok, sol = solve_tcmc_bruteforce(inst, "independent-set")
    assert ok and check_tcmc_solution(inst, "independent-set", sol)


def test_tcmc_dual_solver_agreement():
    # both solvers take the first solution in preorder, so where the brute
    # force fits its cap the traversal returns the same choice; the default,
    # ds-chain and a larger profile, where some sources are over the cap
    for profile, capped in ((None, False),
                            ({"tree_nodes": 2, "max_class": 1, "max_edges": 4}, False),
                            ({"tree_nodes": 12, "max_class": 3, "max_edges": 20}, True)):
        over_cap = solvable = 0
        for family in ("tcmc", "tcmis"):
            for seed in range(60):
                inst = generate_instance(family, profile, seed=seed)
                for mode in ("clique", "independent-set"):
                    ok, choice = solve_tcmc_traversal(inst, mode)
                    solvable += ok
                    try:
                        brute = solve_tcmc_bruteforce(inst, mode)
                    except CapExceeded:
                        over_cap += 1
                        assert choice is None or check_tcmc_solution(inst, mode, choice)
                        continue
                    assert brute == (ok, choice), (profile, family, seed, mode)
        assert solvable and bool(over_cap) == capped, profile


def test_tcmc_forced_chain_unique_solution():
    # path tree where each class has one vertex and consecutive classes are
    # joined by the only allowed edge: clique mode forced solvable
    tree = OrderedTree(n=3, children={1: (2,), 2: (3,)})
    classes = {(i, 1): frozenset({i}) for i in (1, 2, 3)}
    g = Graph(n=3, edges=frozenset({(1, 2), (2, 3)}))
    inst = TcmcInstance(tree=tree, k=1, classes=classes, graph=g)
    ok, sol = solve_tcmc_bruteforce(inst, "clique")
    assert ok and sol == {(1, 1): 1, (2, 1): 2, (3, 1): 3}
    assert solve_tcmc_traversal(inst, "clique") == (True, sol)


def test_tcmc_solvers_answer_no_on_an_empty_class_before_their_cap():
    # node 1's choice space, 2 * 2, is past the cap; node 2's empty class
    # settles the answer without it
    classes = {(1, 1): frozenset({1, 2}), (1, 2): frozenset({3, 4}),
               (2, 1): frozenset({5}), (2, 2): frozenset()}
    inst = TcmcInstance(tree=OrderedTree(n=2, children={1: (2,)}), k=2,
                        classes=classes, graph=Graph(n=5))
    for solve in (solve_tcmc_bruteforce, solve_tcmc_traversal):
        assert solve(inst, "clique", cap=3) == (False, None)
    nonempty = dict(classes)
    nonempty[(2, 2)] = frozenset({6})
    with pytest.raises(CapExceeded, match="per-node choice space at 1 4 > cap 3"):
        solve_tcmc_traversal(dataclasses.replace(inst, classes=nonempty, graph=Graph(n=6)),
                             cap=3)


def test_tcmc_solvers_handle_deep_trees():
    inst = deep_path_tcmc(1200)
    expected = {(i, 1): i for i in range(1, 1201)}
    for solve in (solve_tcmc_bruteforce, solve_tcmc_traversal):
        assert solve(inst, "clique") == (True, expected)
        assert solve(inst, "independent-set") == (False, None)


def test_cnf_empty_clause_set_satisfiable():
    inst = TreeChainedCnf(tree=OrderedTree(n=1),
                          variable_sets={1: frozenset({1})},
                          clauses=(), variant="positive-partitioned", k=1,
                          partition={(1, 1): frozenset({1})})
    ok, sol = solve_cnf_bruteforce(inst)
    assert ok and sol == frozenset({1})


def test_cnf_forced_pick_conflict():
    inst = TreeChainedCnf(tree=OrderedTree(n=1),
                          variable_sets={1: frozenset({1, 2})},
                          clauses=((-1, -2),), variant="negative-partitioned", k=2,
                          partition={(1, 1): frozenset({1}), (1, 2): frozenset({2})})
    ok, _ = solve_cnf_bruteforce(inst)
    assert not ok


def test_cnf_general_weight_constraint():
    inst = TreeChainedCnf(tree=OrderedTree(n=1),
                          variable_sets={1: frozenset({1, 2})},
                          clauses=((1, 2), (-1, -2)), variant="general", k=1)
    ok, sol = solve_cnf_bruteforce(inst)
    assert ok and len(sol) == 1 and check_cnf_solution(inst, sol)


def _reference_cnf(instance):
    """solve_cnf_bruteforce as it was before clause masks: the same product
    order, each candidate a frozenset checked literal by literal."""
    if instance.variant == "general":
        groups = []
        for i in sorted(instance.variable_sets):
            xs = sorted(instance.variable_sets[i])
            opts = []
            for r in range(0, min(instance.k, len(xs)) + 1):
                opts.extend(itertools.combinations(xs, r))
            groups.append(opts)
        candidates = (frozenset(v for part in combo for v in part)
                      for combo in itertools.product(*groups))
    else:
        pools = [sorted(instance.partition[cell]) for cell in sorted(instance.partition)]
        candidates = (frozenset(combo) for combo in itertools.product(*pools))
    for true_vars in candidates:
        if all(any((lit > 0) == (abs(lit) in true_vars) for lit in clause)
               for clause in instance.clauses):
            return True, true_vars
    return False, None


def _cnf_cases():
    for family in ("negcnf", "poscnf"):
        for profile in (None, {"tree_nodes": 4, "k": 2, "max_cell": 3, "clauses": 9}):
            for seed in range(30):
                inst = generate_instance(family, profile, seed=seed)
                yield inst
                yield reduce_partitioned_to_general_cnf(inst).target
    tree = OrderedTree(n=2, children={1: (2,)})
    # node 2 has no variables
    yield TreeChainedCnf(tree=tree, variable_sets={1: frozenset({1, 2}), 2: frozenset()},
                         clauses=((1, -2), (2,)), variant="general", k=2)
    # unsatisfiable: the weight bound leaves one true variable for two clauses
    yield TreeChainedCnf(tree=OrderedTree(n=1), variable_sets={1: frozenset({1, 2})},
                         clauses=((1,), (2,)), variant="general", k=1)
    yield TreeChainedCnf(tree=OrderedTree(n=1), variable_sets={1: frozenset({1, 2})},
                         clauses=((1,), (2,)), variant="positive-partitioned", k=1,
                         partition={(1, 1): frozenset({1, 2})})
    # an empty cell leaves no assignment
    yield TreeChainedCnf(tree=OrderedTree(n=1), variable_sets={1: frozenset({1, 2})},
                         clauses=(), variant="positive-partitioned", k=2,
                         partition={(1, 1): frozenset({1, 2}), (1, 2): frozenset()})


def test_an_empty_choice_set_is_no_before_the_cap():
    tree = OrderedTree(n=2, children={1: (2,)})
    tcmc = TcmcInstance(tree=tree, k=1, classes={(1, 1): frozenset({1}), (2, 1): frozenset()},
                        graph=Graph(n=1))
    cell = TreeChainedCnf(tree=OrderedTree(n=1), variable_sets={1: frozenset({1})},
                          clauses=(), variant="negative-partitioned", k=2,
                          partition={(1, 1): frozenset({1}), (1, 2): frozenset()})
    clause = TreeChainedCnf(tree=OrderedTree(n=1), variable_sets={1: frozenset({1})},
                            clauses=((1,), ()), variant="general", k=1)
    empty_list = ListColoringInstance(graph=Graph(n=2), palette=frozenset({1}),
                                      lists={1: frozenset({1}), 2: frozenset()})
    # vertex 2's one colour is taken by its precolored neighbour
    none_left = ListColoringInstance(graph=Graph(n=2, edges=frozenset({(1, 2)})),
                                     palette=frozenset({1}),
                                     lists={1: frozenset({1}), 2: frozenset({1})},
                                     precolored={1: 1})
    for mode in oracles.TCMC_MODES:
        assert solve_tcmc_bruteforce(tcmc, mode, cap=0) == (False, None)
    for inst in (cell, clause):
        assert solve_cnf_bruteforce(inst, cap=0) == (False, None)
    for inst in (empty_list, none_left):
        assert solve_listcoloring(inst, cap=0) == (False, None)
    # with every choice set filled, cap 0 is exceeded
    with pytest.raises(CapExceeded):
        solve_cnf_bruteforce(dataclasses.replace(clause, clauses=((1,),)), cap=0)


def test_cnf_masks_match_the_frozenset_enumeration():
    outcomes = set()
    for inst in _cnf_cases():
        got = solve_cnf_bruteforce(inst)
        assert got == _reference_cnf(inst), inst
        outcomes.add((inst.variant, got[0]))
    assert len(outcomes) == 6  # every variant, satisfiable and not


def test_listcoloring_examples():
    edgeless = ListColoringInstance(graph=Graph(n=2), palette=frozenset({1}),
                                    lists={1: frozenset({1}), 2: frozenset({1})})
    ok, col = solve_listcoloring(edgeless)
    assert ok and check_coloring(edgeless, col)
    conflict = ListColoringInstance(graph=Graph(n=2, edges=frozenset({(1, 2)})),
                                    palette=frozenset({1}),
                                    lists={1: frozenset({1}), 2: frozenset({1})})
    ok, _ = solve_listcoloring(conflict)
    assert not ok


def _first_coloring(instance):
    """The first proper coloring in vertex-then-colour order, or None: every
    vertex in increasing order over its effective list in increasing order."""
    vertices = list(instance.graph.vertices())
    lists = [sorted(instance.effective_list(v)) for v in vertices]
    for colours in itertools.product(*lists):
        coloring = dict(zip(vertices, colours))
        if check_coloring(instance, coloring):
            return coloring
    return None


def test_listcoloring_returns_the_first_coloring_in_order():
    rng, solvable = random.Random(3), 0
    for trial in range(300):
        n = rng.randint(1, 7)
        palette = range(1, rng.randint(2, 4) + 1)
        edges = frozenset(pair for pair in itertools.combinations(range(1, n + 1), 2)
                          if rng.random() < 0.4)
        lists = {v: frozenset(rng.sample(palette, rng.randint(1, len(palette))))
                 for v in range(1, n + 1)}
        precolored = {v: rng.choice(sorted(cs)) for v, cs in lists.items()
                      if rng.random() < 0.25}
        inst = ListColoringInstance(graph=Graph(n=n, edges=edges), palette=frozenset(palette),
                                    lists=lists, precolored=precolored)
        first = _first_coloring(inst)
        assert solve_listcoloring(inst) == (first is not None, first), trial
        solvable += first is not None
    assert 50 < solvable < 250


def test_listcoloring_backtracks_over_three_vertices():
    # vertex 5 can only take colour 1, which vertex 1 tries first; the path
    # 2-3-4 between them, held to one colouring by the precoloured vertex 6,
    # is undone back to vertex 1 before vertex 1 moves on to colour 2
    inst = ListColoringInstance(
        graph=Graph(n=6, edges=frozenset({(1, 5), (2, 3), (3, 4), (2, 6)})),
        palette=frozenset({1, 2, 3, 4}),
        lists={1: frozenset({1, 2}), 2: frozenset({3, 4}), 3: frozenset({3, 4}),
               4: frozenset({3, 4}), 5: frozenset({1}), 6: frozenset({4})},
        precolored={6: 4})
    expected = {1: 2, 2: 3, 3: 4, 4: 3, 5: 1, 6: 4}
    assert _first_coloring(inst) == expected
    assert solve_listcoloring(inst) == (True, expected)


def test_listcoloring_on_a_deep_path():
    # one free vertex after another, 1500 deep, without recursion
    n = 1500
    assert solve_listcoloring(path_coloring(n)) == (
        True, {v: 2 - v % 2 for v in range(1, n + 1)})
    assert solve_listcoloring(path_coloring(n, clash=True)) == (False, None)


def test_subset_problem_examples():
    ok, w = solve_is_ds_vc(P3, "is", 2)
    assert ok and w == frozenset({1, 3})
    ok, _ = solve_is_ds_vc(K3, "vc", 1)
    assert not ok
    ok, w = solve_is_ds_vc(STAR, "ds", 1)
    assert ok and w == frozenset({1})


def test_rbds_only_blue_choices():
    g = Graph(n=3, edges=frozenset({(1, 3), (2, 3)}),
              labels={1: "blue", 2: "blue", 3: "red"})
    ok, w = solve_is_ds_vc(g, "rbds", 1)
    assert ok and w <= {1, 2}
    assert check_subset_solution(g, "rbds", w)


def _reference_subset_check(graph, problem, s):
    """The set-based checker the mask one replaced."""
    adj = graph.adjacency()
    labelled = lambda label: frozenset(v for v in graph.vertices()
                                       if graph.labels.get(v) == label)
    dominated = lambda v: v in s or bool(adj[v] & s)
    if problem == "is":
        return not any(u in s and v in s for u, v in graph.edges)
    if problem == "vc":
        return all(u in s or v in s for u, v in graph.edges)
    if problem == "ds":
        return all(dominated(v) for v in graph.vertices())
    return s <= labelled("blue") and all(dominated(v) for v in labelled("red"))


def _reference_optimum_subset(graph, problem, cap):
    """The frozenset enumeration the mask one replaced: the first strictly
    better set in increasing mask order over the allowed vertices."""
    if problem == "rbds":
        ground = sorted(v for v in graph.vertices() if graph.labels.get(v) == "blue")
    else:
        ground = sorted(graph.vertices())
    if 1 << len(ground) > cap:
        raise CapExceeded("reference")
    best = None
    for mask in range(1 << len(ground)):
        s = frozenset(ground[i] for i in range(len(ground)) if mask >> i & 1)
        if not _reference_subset_check(graph, problem, s):
            continue
        if best is None or (len(s) > len(best) if problem == "is" else len(s) < len(best)):
            best = s
    return (float("inf"), None) if best is None else (len(best), best)


def _subset_reference_graphs():
    for seed in range(15):
        yield generate_instance("logtw-vc", {"tree_nodes": 4, "n": 10, "max_bag": 4},
                                seed=seed).graph
        rbds = generate_instance("logtw-rbds", None, seed=seed)
        yield rbds.graph
        yield reduce_rbds_to_ds(rbds).target.graph
    rng = random.Random(9)
    for i in range(30):
        n = rng.randint(0, 9)
        edges = {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < 0.3}
        labels = ({v: rng.choice(("red", "blue", "green")) for v in range(1, n + 1)}
                  if i % 2 else {})
        yield Graph(n=n, edges=frozenset(edges), labels=labels)


def test_subset_masks_match_the_frozenset_reference():
    rng = random.Random(3)
    seen = set()
    for graph in _subset_reference_graphs():
        for problem in ("is", "vc", "ds", "rbds"):
            space = 1 << (len([v for v in graph.vertices() if graph.labels.get(v) == "blue"])
                          if problem == "rbds" else graph.n)
            with pytest.raises(CapExceeded):
                optimum_subset(graph, problem, cap=space - 1)
            with pytest.raises(CapExceeded):
                _reference_optimum_subset(graph, problem, space - 1)
            got = optimum_subset(graph, problem, cap=space)
            assert got == _reference_optimum_subset(graph, problem, space), (graph, problem)
            seen.add((problem, got[1] is None, bool(graph.labels)))
            witness = got[1] or frozenset()
            for _ in range(8):
                # ids outside 1..n as well as vertices
                x = rng.randint(-1, graph.n + 2)
                some = frozenset(v for v in range(-1, graph.n + 3) if rng.random() < 0.5)
                for s in (witness, witness | {x}, witness - {x}, some):
                    verdict = check_subset_solution(graph, problem, s)
                    assert verdict == _reference_subset_check(graph, problem, s), (
                        graph, problem, s)
                    seen.add((problem, verdict))
    assert ("rbds", True, True) in seen  # an infeasible rbds instance
    assert all((p, v) in seen for p in ("is", "vc", "ds", "rbds") for v in (True, False))
    assert all((p, False, labels) in seen
               for p in ("is", "vc", "ds") for labels in (True, False))


def _reference_submask_walk(graph, problem):
    """The DS/RBDS walk before forcing: every submask of the allowed
    vertices in increasing order, keeping the first strictly smaller
    dominating one."""
    blue_only = problem == "rbds"
    allowed = sum(1 << v for v in graph.vertices()
                  if not blue_only or graph.labels.get(v) == "blue")
    must = [v for v in graph.vertices() if not blue_only or graph.labels.get(v) == "red"]
    nbr = graph.neighbour_masks
    best, s = None, 0
    while True:
        if ((best is None or s.bit_count() < best.bit_count())
                and all((nbr[v] | 1 << v) & s for v in must)):
            best = s
        if s == allowed:
            break
        s = (s - allowed) & allowed
    if best is None:
        return float("inf"), None
    return best.bit_count(), frozenset(v for v in graph.vertices() if best >> v & 1)


@pytest.mark.parametrize("problem,graph", [
    # every vertex dominates only itself: all 20 are forced
    ("ds", Graph(n=20)),
    # the red vertex has no blue vertex in its closed neighbourhood
    ("rbds", Graph(n=21, labels={**{v: "blue" for v in range(1, 21)}, 21: "red"})),
])
def test_forced_domination_skips_the_submask_walk(problem, graph):
    with pytest.raises(CapExceeded):
        optimum_subset(graph, problem, cap=(1 << 20) - 1)
    started = time.perf_counter()
    got = optimum_subset(graph, problem, cap=1 << 20)
    assert time.perf_counter() - started < 0.2  # the full walk takes seconds
    assert got == _reference_submask_walk(graph, problem)


def test_submask_walk_stops_at_the_packing_bound(monkeypatch):
    # a star with centre 1 and 19 leaves: every pair of vertices shares the
    # centre as an option, so the packing is 1, and {1} meets it
    star = Graph(n=20, edges=frozenset((1, v) for v in range(2, 21)))
    assert oracles.dominator_packing(star, "ds") == 1
    real, calls = oracles._meets, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracles, "_meets", counted)
    assert optimum_subset(star, "ds") == (1, frozenset({1}))
    assert len(calls) <= 4  # the full walk makes 2^20


def _random_dominate_cases():
    """600 (graph, problem) pairs of at most 12 vertices: each graph as DS,
    and with random red/blue labels as RBDS."""
    rng = random.Random(15)
    for _ in range(300):
        n = rng.randint(1, 12)
        p = rng.choice((0.15, 0.3, 0.5))
        edges = frozenset((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                          if rng.random() < p)
        yield Graph(n=n, edges=edges), "ds"
        labels = {v: rng.choice(("red", "blue")) for v in range(1, n + 1)}
        yield Graph(n=n, edges=edges, labels=labels), "rbds"


def _decided(graph, problem, threshold):
    """verify's decide and the DP's verdict on graph at threshold."""
    inst = LogTwGraphInstance(graph=graph, decomposition=min_degree_decomposition(graph),
                              target_weight=threshold, k=graph.n, problem=problem)
    dp = oracles.meets_target(problem, optimum_treedp(inst, problem)[0], threshold)
    return FAMILIES[f"logtw-{problem}"].decide(inst, None)[0], dp


def test_dominator_packing_bounds_the_optimum_and_decide_matches_the_dp():
    lone_red = refuted = short = 0
    for pos, (graph, problem) in enumerate(_random_dominate_cases()):
        bound = oracles.dominator_packing(graph, problem)
        best, _ = optimum_subset(graph, problem)
        assert bound <= best, pos
        assert (bound == float("inf")) == (best == float("inf")), pos
        short += bound < best
        lone_red += problem == "rbds" and any(
            graph.labels[v] == "red" and not any(graph.labels[u] == "blue"
                                                 for u in graph.adjacency()[v])
            for v in graph.vertices())
        thresholds = (best - 1, best, best + 1) if best < float("inf") else (0, graph.n)
        for threshold in thresholds:
            if threshold < 0:
                continue
            decided, dp = _decided(graph, problem, threshold)
            assert decided == dp, (pos, threshold)
            refuted += bound > threshold
    assert lone_red >= 20 and refuted >= 300 and short >= 20


def _reference_dominator_packing(graph, problem):
    """dominator_packing as it was before its conflicts came from the edge
    list: each vertex's conflicts gathered over its options' bits, and the
    greedy scanning the live mask's bits each step."""
    _, allowed, must = oracles._subset_rule(graph, problem)
    nbr = graph.neighbour_masks
    conflicts = {}
    for v in oracles._bits(must):
        options = (nbr[v] | 1 << v) & allowed
        if not options:
            return float("inf")
        around = 0
        for a in oracles._bits(options):
            around |= nbr[a] | 1 << a
        conflicts[v] = around & must & ~(1 << v)
    live, packed = must, 0
    while live:
        pick, fewest = 0, graph.n + 1
        for v in oracles._bits(live):
            count = (conflicts[v] & live).bit_count()
            if count < fewest:
                pick, fewest = v, count
                if not count:
                    break
        live &= ~(conflicts[pick] | 1 << pick)
        packed += 1
    return packed


def test_dominator_packing_matches_the_bit_scan():
    cases = list(_random_dominate_cases())
    cases += [(ds_chain_target(seed).graph, "ds") for seed in range(20)]
    infeasible = 0
    for pos, (graph, problem) in enumerate(cases):
        got = oracles.dominator_packing(graph, problem)
        assert got == _reference_dominator_packing(graph, problem), pos
        infeasible += problem == "rbds" and got == float("inf")
    assert len(cases) >= 600 and infeasible >= 20


def test_a_packing_short_of_the_optimum_leaves_the_dp_to_decide(monkeypatch):
    c5 = Graph(n=5, edges=frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}))
    assert oracles.dominator_packing(c5, "ds") == 1
    assert optimum_subset(c5, "ds")[0] == 2
    real, runs = optimum_treedp, []
    monkeypatch.setattr(oracles, "optimum_treedp",
                        lambda *args, **kwargs: runs.append(args) or real(*args, **kwargs))
    assert _decided(c5, "ds", 1) == (False, False)
    assert len(runs) == 1  # decide's; _decided's own DP calls the unpatched name


def test_independent_sets_in_increasing_mask_order():
    g = Graph(n=4, edges=frozenset({(1, 2), (2, 3), (3, 4)}))
    every = [m for m in range(0, 1 << 5, 2)
             if check_subset_solution(g, "is", frozenset(v for v in g.vertices() if m >> v & 1))]
    assert independent_sets(g) == every
    assert independent_sets(Graph(n=0)) == [0]


def test_tree_dp_agrees_with_subset_oracle():
    for seed in range(40):
        inst = generate_instance("logtw-is", None, seed=seed)
        _, dp_best = solve_is_treedp(inst)
        best, _ = optimum_subset(inst.graph, "is")
        assert dp_best == best, seed


def test_ds_tree_dp_agrees_with_subset_oracle():
    for seed in range(40):
        base = generate_instance("logtw-is", None, seed=seed)
        inst = LogTwGraphInstance(graph=base.graph,
                                  decomposition=base.decomposition,
                                  target_weight=base.target_weight,
                                  k=base.k, problem="ds")
        _, dp_best = solve_ds_treedp(inst)
        best, _ = optimum_subset(inst.graph, "ds")
        assert dp_best == best, seed


def test_tree_dps_agree_with_subset_oracle_on_multi_join_decompositions():
    sources = [generate_instance("logtw-vc", {"tree_nodes": 6, "n": 12, "max_bag": 5}, seed)
               for seed in range(30)]
    sources += [reduce_rbds_to_ds(generate_instance("logtw-rbds", None, seed=seed)).target
                for seed in range(30)]
    joins = 0
    for pos, inst in enumerate(sources):
        tree = inst.decomposition.tree
        joins += any(len(tree.child_list(i)) > 1 for i in tree.nodes())
        assert solve_is_treedp(inst)[1] == optimum_subset(inst.graph, "is")[0], pos
        ds = dataclasses.replace(inst, problem="ds")
        assert solve_ds_treedp(ds)[1] == optimum_subset(inst.graph, "ds")[0], pos
    assert joins >= 20


def _path_instance(n: int) -> LogTwGraphInstance:
    graph = Graph(n=n, edges=frozenset((v, v + 1) for v in range(1, n)))
    tree = OrderedTree(n=n - 1, children={i: (i + 1,) for i in range(1, n - 1)})
    dec = TreeDecomposition(tree=tree, bags={i: frozenset({i, i + 1}) for i in range(1, n)})
    return LogTwGraphInstance(graph=graph, decomposition=dec, target_weight=1, k=1)


def test_tree_dps_handle_deep_decompositions():
    n = 1501  # a path decomposition 1500 bags deep
    inst = _path_instance(n)
    assert solve_is_treedp(inst) == (True, (n + 1) // 2)
    assert solve_ds_treedp(dataclasses.replace(inst, problem="ds")) == (False, (n + 2) // 3)


def test_single_bag_dp_equals_bruteforce():
    g = Graph(n=4, edges=frozenset({(1, 2), (3, 4)}))
    dec = TreeDecomposition(tree=OrderedTree(n=1),
                            bags={1: frozenset({1, 2, 3, 4})})
    inst = LogTwGraphInstance(graph=g, decomposition=dec, target_weight=2, k=2)
    ok, best = solve_is_treedp(inst)
    assert ok and best == optimum_subset(g, "is")[0] == 2


@pytest.mark.parametrize("profile", [None, {"tree_nodes": 6, "n": 12, "max_bag": 5}])
@pytest.mark.parametrize("problem", ["is", "vc", "ds", "rbds"])
def test_witness_dp_agrees_with_subset_oracle(problem, profile):
    family = "logtw-rbds" if problem == "rbds" else "logtw-vc"
    for seed in range(20):
        inst = generate_instance(family, profile, seed=seed)
        best, witness = optimum_treedp(inst, problem)
        assert best == optimum_subset(inst.graph, problem)[0], seed
        assert check_subset_solution(inst.graph, problem, witness), seed
        assert len(witness) == best, seed


# decompositions the binary-tree generators never make: a node with four
# children, one child's bag equal to the node's, one inside it, and one
# disjoint from it with a grandchild below; and a tree of one bag
HAND_BUILT = [
    TreeDecomposition(
        tree=OrderedTree(n=8, children={1: (2, 3, 4, 5), 2: (8,), 4: (6,), 6: (7,)}),
        bags={1: {1, 2, 3}, 2: {1, 2, 3}, 3: {2, 3, 4, 5}, 4: {1, 6}, 5: {3, 7},
              6: {8, 9}, 7: {9, 10}, 8: {1, 2}}),
    TreeDecomposition(tree=OrderedTree(n=1), bags={1: set(range(1, 7))}),
]


@pytest.mark.parametrize("dec", HAND_BUILT)
def test_witness_dp_on_hand_built_decompositions(dec):
    n = max(max(bag) for bag in dec.bags.values())
    pairs = sorted({pair for bag in dec.bags.values()
                    for pair in itertools.combinations(sorted(bag), 2)})
    rng = random.Random(5)
    for trial in range(40):
        density = rng.random()
        graph = Graph(n=n, edges=frozenset(pair for pair in pairs if rng.random() < density),
                      labels={v: rng.choice(("red", "blue")) for v in range(1, n + 1)})
        inst = LogTwGraphInstance(graph=graph, decomposition=dec, target_weight=0, k=n,
                                  problem="rbds")
        on = (dec, inst.width)
        for problem in ("is", "vc", "ds", "rbds"):
            expected = optimum_subset(graph, problem)
            if problem == "is":
                # the IS DP's ties go to the greatest mask
                best = max(independent_sets(graph), key=lambda s: (s.bit_count(), s))
                expected = (best.bit_count(),
                            frozenset(v for v in graph.vertices() if best >> v & 1))
            assert optimum_treedp(inst, problem, on=on) == expected, (trial, problem)
            # the family's treedp solver meets the optimum with its witness,
            # and no threshold one step past it
            solve = FAMILIES[f"logtw-{problem}"].solvers["treedp"]
            best, past = expected[0], n
            if best < float("inf"):
                assert solve(inst, None, best, on=on) == (True, expected[1]), (trial, problem)
                past = best + 1 if problem == "is" else best - 1
            assert solve(inst, None, past, on=on) == (False, None), (trial, problem)


def test_rbds_red_vertex_without_blue_neighbour_is_infeasible():
    g = Graph(n=3, edges=frozenset({(1, 2), (2, 3)}),
              labels={1: "blue", 2: "red", 3: "red"})
    dec = TreeDecomposition(tree=OrderedTree(n=1), bags={1: frozenset({1, 2, 3})})
    inst = LogTwGraphInstance(graph=g, decomposition=dec, target_weight=3, k=1,
                              problem="rbds")
    assert optimum_treedp(inst, "rbds") == (float("inf"), None)
    assert optimum_subset(g, "rbds") == (float("inf"), None)


def test_witness_dp_cap_enforced_before_work():
    inst = _path_instance(4)
    with pytest.raises(CapExceeded, match="bag mask space"):
        optimum_treedp(inst, "vc", cap=3)
    with pytest.raises(CapExceeded, match="bag state space"):
        optimum_treedp(inst, "ds", cap=8)
    assert optimum_treedp(inst, "vc", cap=4) == (2, frozenset({1, 3}))


def _path_graph(n: int) -> Graph:
    return Graph(n=n, edges=frozenset((v, v + 1) for v in range(1, n)))


def _complete_graph(n: int) -> Graph:
    return Graph(n=n, edges=frozenset(itertools.combinations(range(1, n + 1), 2)))


@pytest.mark.parametrize("graph, width", [
    (Graph(n=5), 0),
    (Graph(n=1), 0),
    (Graph(n=7, edges=frozenset({(1, 2), (2, 3), (1, 3), (5, 6)})), 2),
    *[(_complete_graph(n), n - 1) for n in (2, 4, 6)],
    (_path_graph(9), 1),
    (_path_graph(5000), 1),  # 5000 bags deep, built without recursion
])
def test_min_degree_decomposition_is_valid(graph, width):
    dec = min_degree_decomposition(graph)
    assert validate_decomposition(graph, dec) == width
    assert min_degree_decomposition(graph) == dec


def test_dominate_dp_on_the_elimination_matches_the_witness_dp(monkeypatch):
    rbds = [generate_instance("logtw-rbds", None, seed=seed) for seed in range(150)]
    cases = [(ds_chain_target(seed), "ds") for seed in range(150)]
    cases += [(inst, "rbds") for inst in rbds]
    cases += [(reduce_rbds_to_ds(inst).target, "ds") for inst in rbds]
    narrower = subset_checked = 0
    for pos, (inst, problem) in enumerate(cases):
        elimination = validate_decomposition(inst.graph, min_degree_decomposition(inst.graph))
        assert elimination <= inst.width, pos
        assert dp_decomposition(inst, problem)[1] == min(elimination, inst.width)
        got = optimum_treedp(inst, problem)
        with monkeypatch.context() as m:
            m.setattr(oracles, "min_degree_decomposition",
                      lambda graph, dec=inst.decomposition: dec)
            assert dp_decomposition(inst, problem) == (inst.decomposition, inst.width)
            assert optimum_treedp(inst, problem) == got, pos
        if inst.graph.n <= 20:
            assert optimum_subset(inst.graph, problem) == got, pos
            subset_checked += 1
        narrower += elimination < inst.width
    assert narrower >= 400 and subset_checked == 300


def test_is_and_vc_dps_keep_the_witness():
    inst = ds_chain_target(0)
    assert min_degree_decomposition(inst.graph).width() < inst.width
    for problem in ("is", "vc"):
        assert dp_decomposition(inst, problem) == (inst.decomposition, inst.width)


def test_dominate_dp_is_capped_on_the_width_it_solves_on():
    inst = ds_chain_target(0)
    assert (inst.width, dp_decomposition(inst, "ds")[1]) == (5, 3)
    # the witness needs 3^6 = 729 states per bag, the elimination 3^4 = 81
    assert optimum_treedp(inst, "ds", cap=81) == optimum_treedp(inst, "ds")
    with pytest.raises(CapExceeded, match="bag state space 81 > cap 80"):
        optimum_treedp(inst, "ds", cap=80)


def test_a_size_too_long_to_print_is_named_by_its_bit_length():
    # 2^15000 has more decimal digits than Python converts to text
    with pytest.raises(CapExceeded, match=r"subset space of 15001 bits > cap 10$"):
        optimum_subset(Graph(n=15000), "ds", cap=10)


def test_an_invalid_elimination_is_never_solved_on(monkeypatch):
    inst = ds_chain_target(0)
    short = TreeDecomposition(tree=OrderedTree(n=1), bags={1: frozenset({1})})
    monkeypatch.setattr(oracles, "min_degree_decomposition", lambda graph: short)
    with pytest.raises(InvariantViolation, match="^invalid decomposition: vertex uncovered: 2$"):
        optimum_treedp(inst, "ds")


def test_caps_enforced_before_work():
    tree = OrderedTree(n=1)
    classes = {(1, 1): frozenset(range(1, 2049)), (1, 2): frozenset(range(2049, 4097))}
    inst = TcmcInstance(tree=tree, k=2, classes=classes, graph=Graph(n=4096))
    with pytest.raises(CapExceeded, match="too large"):
        solve_tcmc_bruteforce(inst, cap=1 << 20)
    ok, _ = solve_tcmc_bruteforce(inst, cap=1 << 23)
    assert not ok  # no edges: clique mode unsolvable with k=2


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("XALPWB_CAP", "8")
    g = Graph(n=5)
    with pytest.raises(CapExceeded):
        optimum_subset(g, "is")
    monkeypatch.delenv("XALPWB_CAP")
    assert optimum_subset(g, "is")[0] == 5
