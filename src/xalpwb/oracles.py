"""Ground-truth solvers: the tree traversal that decides tcmc and tcmis
(first_workable over the structure tree), with the exhaustive brute force
as its cross-check; exhaustive deciders for every other problem family; and
the decomposition DP for the logtw families, which always returns an
optimum with its witness.  The DP solves IS and VC on the instance's own
decomposition, and DS and RBDS on a validated min-degree elimination of the
graph when that is narrower (dp_decomposition picks).  The DP is the
verification harness's oracle for those families; subset enumeration
(optimum_subset) is its independent small-n cross-check.  dominator_packing
bounds DS and RBDS from below, which lets the families' treedp solver, the
first entry of their one solve table in verify, refute an instance before
the DP, and lets the subset walk stop at the first set that meets the bound.
The four subset problems are described once, on vertex masks, in
SUBSET_PROBLEMS, which the subset checker, enumeration and DP all read.

Every solver enforces its size cap before its exponential work and raises
CapExceeded past it.  An exhaustive decider answers "no" before its cap
guard when a choice set is empty: a tcmc class, a CNF cell or clause, or
the colours left to a free list coloring vertex.  Solutions returned always
satisfy the instance's own constraints; callers can re-validate with the
check_* helpers.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass

from .instances import (
    CapExceeded,
    Graph,
    InvariantViolation,
    ListColoringInstance,
    LogTwGraphInstance,
    OrderedTree,
    TcmcInstance,
    TreeChainedCnf,
    TreeDecomposition,
    first_workable,
    validate_decomposition,
)

DEFAULT_CAP = 1 << 20

TCMC_MODES = ("clique", "independent-set")


def _guard(size: int, cap: int | None, what: str):
    cap = DEFAULT_CAP if cap is None else cap
    if size > cap:
        # a size past 64 bits is named by its bit length: Python prints no
        # integer of more than 4300 decimal digits
        shown = size if size.bit_length() <= 64 else f"of {size.bit_length()} bits"
        raise CapExceeded(f"instance too large for oracle: {what} {shown} > cap {cap}")


def _mask(vertices) -> int:
    """Vertex set as an int with bit 1 << v for each vertex v."""
    return sum(1 << v for v in vertices)


def _bits(mask: int):
    """The set bits of mask as vertex ids, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _backtrack(keys: list, candidates, chosen: dict) -> bool:
    """Depth-first search for values of keys, in order, on an explicit
    stack: candidates(key) iterates over the key's values (never None) that
    fit those chosen so far, and chosen maps every assigned key to its
    value.  One candidate iterator is kept per assigned key, and a key's
    value is dropped when its iterator runs out.  True, with every key in
    chosen, at the first full assignment; False, with chosen as it was
    given, when there is none."""
    if not keys:
        return True
    todo = [candidates(keys[0])]
    while todo:
        key = keys[len(todo) - 1]
        value = next(todo[-1], None)
        if value is None:
            chosen.pop(key, None)
            todo.pop()
            continue
        chosen[key] = value
        if len(todo) == len(keys):
            return True
        todo.append(candidates(keys[len(todo)]))
    return False


# ------------------------------------------------------------------ tcmc


def _pair_ok(graph: Graph, u: int, v: int, mode: str) -> bool:
    adjacent = graph.has_edge(u, v)
    return adjacent if mode == "clique" else not adjacent


def check_tcmc_solution(instance: TcmcInstance, mode: str,
                        choice: dict[tuple[int, int], int]) -> bool:
    """choice maps every (node, color) class to its picked vertex."""
    if set(choice) != set(instance.classes):
        return False
    for key, v in choice.items():
        if v not in instance.classes[key]:
            return False
    for a, b in instance.constrained_pairs():
        if not _pair_ok(instance.graph, choice[a], choice[b], mode):
            return False
    return True


def solve_tcmc_bruteforce(instance: TcmcInstance, mode: str = "clique",
                          cap: int | None = None):
    """Exact decision by enumerating one vertex per class; backtracks
    (_backtrack) over classes in tree order so constraints prune early,
    trying each class's vertices in increasing order.  A class's candidates
    are its vertex mask cut down by the neighbour masks of the earlier
    chosen vertices it is constrained with.  Returns (solvable, choice or
    None)."""
    if mode not in TCMC_MODES:
        raise InvariantViolation(f"unknown tcmc mode {mode!r}")
    keys = [(i, j) for i in instance.tree.preorder()
            for j in range(1, instance.k + 1)]
    if any(not instance.classes[key] for key in keys):
        return False, None
    _guard(math.prod(len(instance.classes[key]) for key in keys), cap, "class choice space")
    index = {key: pos for pos, key in enumerate(keys)}
    earlier: dict[tuple[int, int], list[tuple[int, int]]] = {key: [] for key in keys}
    for a, b in instance.constrained_pairs():
        if index[a] > index[b]:
            a, b = b, a
        earlier[b].append(a)
    nbr = instance.graph.neighbour_masks
    clique = mode == "clique"
    members = {key: _mask(instance.classes[key]) for key in keys}
    choice: dict[tuple[int, int], int] = {}

    def candidates(key):
        allowed = members[key]
        for a in earlier[key]:
            allowed &= nbr[choice[a]] if clique else ~nbr[choice[a]]
        return _bits(allowed)

    if _backtrack(keys, candidates, choice):
        return True, choice
    return False, None


def solve_tcmc_traversal(instance: TcmcInstance, mode: str = "clique",
                         cap: int | None = None):
    """Exact decision by depth-first traversal of the structure tree keeping
    only the parent's selection, the deterministic realization of the
    membership traversal: first_workable, each node's options its
    selections that fit the parent's.  Returns (solvable, choice or None),
    the choice read back from the selection each node settled on."""
    if mode not in TCMC_MODES:
        raise InvariantViolation(f"unknown tcmc mode {mode!r}")
    ks = range(1, instance.k + 1)
    if any(not instance.classes[(i, j)] for i in instance.tree.nodes() for j in ks):
        return False, None
    for i in instance.tree.nodes():
        _guard(math.prod(len(instance.classes[(i, j)]) for j in ks), cap,
               f"per-node choice space at {i}")
    nbr = instance.graph.neighbour_masks
    clique = mode == "clique"

    def fits(v: int, mask: int) -> bool:
        # v is adjacent to all of mask (clique) or to none of it
        return not mask & ~nbr[v] if clique else not mask & nbr[v]

    def selections(i: int, parent_sel: tuple[int, ...] | None):
        # the node's selections in product order that fit the parent's
        above = _mask(parent_sel) if parent_sel is not None else 0
        pools = [sorted(instance.classes[(i, j)]) for j in ks]
        for combo in itertools.product(*pools):
            seen = above
            for cv in combo:
                if not fits(cv, seen):
                    break
                seen |= 1 << cv
            else:
                yield combo

    found = first_workable(instance.tree, None, selections, lambda sel, pos: sel)
    if found is None:
        return False, None
    return True, {(i, j): v for i, (_, sel) in found.items() for j, v in zip(ks, sel)}


# ------------------------------------------------------------------- cnf


def clause_satisfied(clause: tuple[int, ...], true_vars: frozenset[int]) -> bool:
    return any((lit > 0 and lit in true_vars) or (lit < 0 and -lit not in true_vars)
               for lit in clause)


def check_cnf_solution(instance: TreeChainedCnf, true_vars: frozenset[int]) -> bool:
    if instance.variant == "general":
        for i in instance.tree.nodes():
            if len(true_vars & instance.variable_sets[i]) > instance.k:
                return False
    else:
        assert instance.partition is not None
        for cell in instance.partition.values():
            if len(true_vars & cell) != 1:
                return False
    return all(clause_satisfied(c, true_vars) for c in instance.clauses)


def _first_satisfying(assignments, clauses: tuple[tuple[int, ...], ...]):
    """The first assignment (an int with bit 1 << x for each true variable
    x) that satisfies every clause, or None.  A clause is kept as a pair of
    masks, its positive and its negated variables: it holds under a when
    pos & a or neg & ~a."""
    masks = []
    for clause in clauses:
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << lit
            else:
                neg |= 1 << -lit
        masks.append((pos, neg))
    for a in assignments:
        for pos, neg in masks:
            if not (pos & a or neg & ~a):
                break
        else:
            return a
    return None


def solve_cnf_bruteforce(instance: TreeChainedCnf, cap: int | None = None):
    """Exact decision honoring the variant's cardinality constraint, trying
    assignments in product order over the sorted node (or cell) groups.
    Returns (satisfiable, frozenset of true variables or None)."""
    if instance.variant == "general":
        groups = []
        for i in sorted(instance.variable_sets):
            xs = sorted(instance.variable_sets[i])
            opts = []
            for r in range(0, min(instance.k, len(xs)) + 1):
                opts.extend(_mask(part) for part in itertools.combinations(xs, r))
            groups.append(opts)
    else:
        groups = [[1 << x for x in sorted(instance.partition[cell])]
                  for cell in sorted(instance.partition)]
    if not all(groups) or not all(instance.clauses):
        return False, None
    _guard(math.prod(map(len, groups)), cap, "assignment space")
    # the groups' variables are disjoint, so a sum is their union
    found = _first_satisfying(map(sum, itertools.product(*groups)), instance.clauses)
    if found is None:
        return False, None
    return True, frozenset(_bits(found))


# --------------------------------------------------------------- listcol


def check_coloring(instance: ListColoringInstance, coloring: dict[int, int]) -> bool:
    if set(coloring) != set(instance.graph.vertices()):
        return False
    for v, c in coloring.items():
        if c not in instance.effective_list(v):
            return False
    return all(coloring[u] != coloring[v] for u, v in instance.graph.edges)


def solve_listcoloring(instance: ListColoringInstance, cap: int | None = None):
    """Exact backtracking decision (_backtrack); honors precolorings.  Free
    vertices are coloured in increasing order, each trying its colours in
    increasing order.  Returns (colorable, coloring or None).

    Precolored vertices are assigned first (they never branch), so the cap
    is the product over free vertices of the colors that survive their
    precolored neighborhood; a free vertex with none left answers "no"
    before the cap is read."""
    adj = instance.graph.adjacency()
    forced = sorted(instance.precolored)
    free = sorted(v for v in instance.graph.vertices() if v not in instance.precolored)
    options = {v: sorted(c for c in instance.effective_list(v)
                         if all(instance.precolored.get(u) != c for u in adj[v]))
               for v in free}
    if not all(options.values()):
        return False, None
    _guard(math.prod(map(len, options.values())), cap, "coloring space")
    coloring: dict[int, int] = {v: instance.precolored[v] for v in forced}
    for u, w in instance.graph.edges:
        if u in coloring and w in coloring and coloring[u] == coloring[w]:
            return False, None

    def fitting(v: int):
        # v's options in order, each read when reached, that no coloured
        # neighbour holds
        return (c for c in options[v] if all(coloring.get(u) != c for u in adj[v]))

    if _backtrack(free, fitting, coloring):
        return True, coloring
    return False, None


# ------------------------------------------------- subset-style problems


@dataclass(frozen=True)
class SubsetProblem:
    """The vertices a solution may use (those labelled `member`, or all),
    its condition, "independent" (no edge inside it), "cover" (no edge
    outside it) or "dominate" (every vertex labelled `dominated`, or every
    vertex, in it or next to it), and whether its optimum is a maximum."""

    condition: str
    maximize: bool = False
    member: str | None = None
    dominated: str | None = None


SUBSET_PROBLEMS = {
    "is": SubsetProblem("independent", maximize=True),
    "vc": SubsetProblem("cover"),
    "ds": SubsetProblem("dominate"),
    "rbds": SubsetProblem("dominate", member="blue", dominated="red"),
}


def _subset_rule(graph: Graph, problem: str) -> tuple[SubsetProblem, int, int]:
    """(problem, allowed, must): the masks of the vertices a solution may use
    and of those it must dominate, read off the labels in one scan."""
    rule = SUBSET_PROBLEMS.get(problem)
    if rule is None:
        raise InvariantViolation(f"unknown subset problem {problem!r}")
    everyone = (1 << graph.n + 1) - 2
    labelled: dict[str, int] = {}
    for v, label in graph.labels.items():
        labelled[label] = labelled.get(label, 0) | 1 << v
    allowed = labelled.get(rule.member, 0) if rule.member else everyone
    must = labelled.get(rule.dominated, 0) if rule.dominated else everyone
    return rule, allowed, must


def _meets(condition: str, nbr, chosen: int, must: int) -> bool:
    """Whether the vertex mask chosen meets the condition.  must is the mask
    of the vertices to dominate, and of every vertex for IS and VC."""
    if condition == "cover":
        chosen = must & ~chosen  # a cover's complement is independent
    around, rest = 0, chosen
    while rest:
        low = rest & -rest
        around |= nbr[low.bit_length() - 1]
        rest ^= low
    if condition == "dominate":
        return not must & ~(chosen | around)
    return not around & chosen


def check_subset_solution(graph: Graph, problem: str, s: frozenset[int]) -> bool:
    """Whether s solves the subset problem on graph.  Ids outside 1..n are
    no vertices: IS, VC and DS ignore them, and RBDS, whose members must be
    blue, rejects them."""
    rule, allowed, must = _subset_rule(graph, problem)
    chosen = 0
    for v in s:
        if 0 < v <= graph.n:
            chosen |= 1 << v
        elif rule.member:
            return False
    return not chosen & ~allowed and _meets(rule.condition, graph.neighbour_masks,
                                            chosen, must)


def independent_sets(graph: Graph) -> list[int]:
    """Every independent set of graph as a vertex mask, in increasing order:
    each vertex in turn joins every set listed so far that misses its
    neighbours, and the sets it joins come after all of those."""
    nbr = graph.neighbour_masks
    sets = [0]
    for v in graph.vertices():
        bit, around = 1 << v, nbr[v]
        sets += [s | bit for s in sets if not s & around]
    return sets


def meets_target(problem: str, size, threshold: int) -> bool:
    """The threshold is a lower bound on an independent set's size and an
    upper bound on a cover's or dominating set's."""
    return size >= threshold if SUBSET_PROBLEMS[problem].maximize else size <= threshold


def solve_is_ds_vc(graph: Graph, problem: str, threshold: int,
                   cap: int | None = None):
    """Exact threshold decision by subset enumeration.  For "is" the
    threshold is a lower bound on the size, for the covering problems an
    upper bound.  Returns (decision, witness set or None)."""
    best_size, best = optimum_subset(graph, problem, cap=cap)
    ok = meets_target(problem, best_size, threshold)
    return (ok, best if ok else None)


def dominator_packing(graph: Graph, problem: str):
    """A lower bound on the least dominating set (DS) or red-blue dominating
    set (RBDS): the size of a packing of vertices to dominate whose options,
    the allowed vertices of their closed neighbourhoods, are pairwise
    disjoint, so that each needs a member of its own.  Infinity when a vertex
    to dominate has no option.  The packing is grown greedily, each step
    taking the live vertex with the fewest live conflicts (ties to the least
    id) and dropping it and its conflicts.  On trees the largest packing
    equals the least dominating set (Meir and Moon, Pacific J. Math. 61,
    1975).

    The conflicts are built in O(n + m) big-int operations from the edge
    list: v's options cover the union of their closed neighbourhoods, which
    each edge uv adds to by the closed neighbourhood of u when u is allowed,
    and of v in turn."""
    _, allowed, must = _subset_rule(graph, problem)
    nbr = graph.neighbour_masks
    closed = [nbr[a] | 1 << a if allowed >> a & 1 else 0 for a in range(graph.n + 1)]
    around = closed[:]  # v -> union of the closed neighbourhoods of v's options
    for u, v in graph.edges:
        around[v] |= closed[u]
        around[u] |= closed[v]
    ids = [v for v in range(1, graph.n + 1) if must >> v & 1]
    if not all(around[v] for v in ids):
        return float("inf")  # a vertex to dominate with no option
    # the vertices to dominate that share an option with v
    conflicts = [around[v] & must & ~(1 << v) for v in range(graph.n + 1)]
    live, packed = must, 0
    while ids:
        pick, fewest = 0, graph.n + 1
        for v in ids:
            count = (conflicts[v] & live).bit_count()
            if count < fewest:
                pick, fewest = v, count
                if not count:
                    break
        live &= ~(conflicts[pick] | 1 << pick)
        ids = [v for v in ids if live >> v & 1]
        packed += 1
    return packed


def optimum_subset(graph: Graph, problem: str, cap: int | None = None):
    """Optimal size and the optimal set of least vertex mask: max IS, min
    VC (the complement of the greatest max IS), min DS or min RBDS, and
    infinity (None witness) when labels leave no feasible set.

    DS and RBDS walk the submasks of the allowed vertices in increasing
    order, each joined with the forced ones: a vertex to dominate whose
    closed neighbourhood holds one allowed vertex forces it, and one whose
    neighbourhood holds none leaves no feasible set.  The walk stops at the
    first dominating set as small as dominator_packing's lower bound: no
    later set is smaller, so it is the optimum of least mask."""
    rule, allowed, must = _subset_rule(graph, problem)
    _guard(1 << allowed.bit_count(), cap, "subset space")
    if rule.condition == "independent":
        best = max(independent_sets(graph), key=int.bit_count)
    elif rule.condition == "cover":
        best = allowed & ~max(reversed(independent_sets(graph)), key=int.bit_count)
    else:
        bound = dominator_packing(graph, problem)
        if bound == float("inf"):
            return bound, None
        nbr = graph.neighbour_masks
        forced = 0
        for v in _bits(must):
            options = (nbr[v] | 1 << v) & allowed
            if not options & (options - 1):
                forced |= options
        free = allowed & ~forced
        best, best_size = None, allowed.bit_count() + 1
        s = 0
        while True:
            chosen = s | forced
            if chosen.bit_count() < best_size and _meets("dominate", nbr, chosen, must):
                best, best_size = chosen, chosen.bit_count()
                if best_size == bound:
                    break
            if s == free:
                break
            s = (s - free) & free
        if best is None:
            return float("inf"), None
    return best.bit_count(), frozenset(_bits(best))


# ------------------------------------------------------- tree-DP solver


def _run_dp(dec: TreeDecomposition, leaf: dict, introduce, forget, join) -> dict:
    """Evaluate one dynamic program by folding dec's tree without recursion,
    children before parents.  A child's table moves to its parent's bag:
    forget the vertices the parent lacks, then introduce those the child
    lacks, each in increasing vertex order (introduce is given the bag mask
    after the change).  A leaf starts from the leaf table on an empty bag,
    a node joins its children's moved tables left to right, and a table is
    dropped once its parent has consumed it.  The steps must not mutate
    their input tables.  Returns the root's table moved to an empty bag."""

    def move(table: dict, lower: frozenset[int], upper: frozenset[int]) -> dict:
        bag = _mask(lower)
        for v in sorted(lower - upper):
            bag ^= 1 << v
            table = forget(table, v)
        for v in sorted(upper - lower):
            bag |= 1 << v
            table = introduce(table, v, bag)
        return table

    tree, bags = dec.tree, dec.bags
    tables: dict[int, dict] = {}
    for i in reversed(tree.preorder()):
        kids = tree.child_list(i)
        if kids:
            tables[i] = functools.reduce(
                join, (move(tables.pop(kid), bags[kid], bags[i]) for kid in kids))
        else:
            tables[i] = move(leaf, frozenset(), bags[i])
    return move(tables.pop(tree.root), bags[tree.root], frozenset())


def _is_steps(nbr: list[int], shift: int):
    """Max independent set: tables map the in-set part of the bag to the
    best packed value."""

    def introduce(table, v, bag):
        bit, around, gain = 1 << v, nbr[v], (1 << shift) + (1 << v)
        out = dict(table)
        for mask, val in table.items():
            if not mask & around:
                out[mask | bit] = val + gain
        return out

    def forget(table, v):
        keep = ~(1 << v)
        out: dict[int, int] = {}
        for mask, val in table.items():
            kept = mask & keep
            if val > out.get(kept, -1):
                out[kept] = val
        return out

    def join(left, right):
        # the bag's chosen vertices are counted on both sides, and only they are
        return {mask: val + right[mask] - ((mask.bit_count() << shift) + mask)
                for mask, val in left.items() if mask in right}

    return {0: 0}, introduce, forget, join


def _ds_steps(nbr: list[int], shift: int, allowed: int, must: int):
    """Min dominating set restricted to the allowed vertices, dominating the
    must vertices: all/all gives DS, blue/red gives RBDS.

    Tables are keyed by (in_mask, dom_mask): the bag vertices in the set,
    and those outside it that are dominated or need no domination; the rest
    of the bag is not yet dominated.  An introduced vertex with an in-set bag
    neighbour starts dominated.  A vertex may only be forgotten once it is
    in the set or dominated; join nodes merge tables bucketed by their
    in-set so the combination stays polynomial in the table sizes."""
    INF = float("inf")

    def introduce(table, v, bag):
        bit, around, gain = 1 << v, nbr[v] & bag, (1 << shift) + (1 << v)
        free = 0 if must & bit else bit
        joinable = allowed & bit
        out = {}
        for (ins, dom), val in table.items():
            out[ins, dom | bit if ins & around else dom | free] = val
            if joinable:
                # v joins the set: its bag neighbours outside it become dominated
                key = (ins | bit, dom | (around & ~ins))
                if val + gain < out.get(key, INF):
                    out[key] = val + gain
        return out

    def forget(table, v):
        bit = 1 << v
        keep = ~bit
        out = {}
        for (ins, dom), val in table.items():
            if (ins | dom) & bit:  # all of v's neighbours are processed
                key = (ins & keep, dom & keep)
                if val < out.get(key, INF):
                    out[key] = val
        return out

    def join(left, right):
        by_in: dict[int, list[tuple[int, int]]] = {}
        for (ins, dom), val in right.items():
            by_in.setdefault(ins, []).append((dom, val))
        out = {}
        for (ins, dom1), val1 in left.items():
            base = val1 - ((ins.bit_count() << shift) + ins)
            for dom2, val2 in by_in.get(ins, ()):
                key = (ins, dom1 | dom2)
                if base + val2 < out.get(key, INF):
                    out[key] = base + val2
        return out

    return {(0, 0): 0}, introduce, forget, join


def min_degree_decomposition(graph: Graph) -> TreeDecomposition:
    """A tree decomposition from the min-degree elimination of graph
    (Bodlaender and Koster, "Treewidth computations I. Upper bounds", 2010).

    Vertices are eliminated least degree first, ties to the least id, from a
    lazy heap: a vertex is pushed again each time its degree changes, and a
    popped entry counts only if it still holds the vertex's degree.
    Eliminating v joins its remaining neighbours into a clique.  Tree node v
    holds the bag of v and those neighbours, and hangs under the node of the
    first of them to be eliminated, whose bag holds them all.  The last
    vertex eliminated is the root, and the root of every other component
    hangs under it.  A graph without vertices has no decomposition
    (InvariantViolation)."""
    adj = list(graph.neighbour_masks)
    heap = [(mask.bit_count(), v) for v, mask in enumerate(adj) if v]
    heapq.heapify(heap)
    place: dict[int, int] = {}  # vertex -> its place in the elimination
    bags: dict[int, list[int]] = {}  # in elimination order
    while heap:
        degree, v = heapq.heappop(heap)
        around = adj[v]
        if v in place or degree != around.bit_count():
            continue
        place[v] = len(place)
        bags[v] = bag = [v]
        for u in _bits(around):
            bag.append(u)
            fill = (adj[u] | around) & ~(1 << u | 1 << v)
            if fill != adj[u]:
                adj[u] = fill
                heapq.heappush(heap, (fill.bit_count(), u))
    root = next(reversed(bags), None)
    children: dict[int, list[int]] = {}
    for v, bag in bags.items():
        if v != root:
            up = min(bag[1:], key=place.__getitem__, default=root)
            children.setdefault(up, []).append(v)
    return TreeDecomposition(
        tree=OrderedTree(n=len(bags), children={p: tuple(cs) for p, cs in children.items()}),
        bags=bags)


def dp_decomposition(instance: LogTwGraphInstance,
                     problem: str) -> tuple[TreeDecomposition, int]:
    """The decomposition optimum_treedp solves the problem on, and its
    width.  IS and VC keep 2^|bag| states per bag and solve on the
    instance's own decomposition.  DS and RBDS keep 3^|bag|, so there the
    min-degree elimination of the graph, validated here, replaces it when
    it is narrower."""
    if SUBSET_PROBLEMS[problem].condition == "dominate":
        dec = min_degree_decomposition(instance.graph)
        width = validate_decomposition(instance.graph, dec)
        if width < instance.width:
            return dec, width
    # the instance's decomposition was validated with it
    return instance.decomposition, instance.width


def optimum_treedp(instance: LogTwGraphInstance, problem: str,
                   cap: int | None = None, on: tuple[TreeDecomposition, int] | None = None):
    """Optimal size and one witness (max IS, min VC, min DS or min RBDS;
    infinity and None when no feasible set exists), by dynamic programming
    over the decomposition dp_decomposition picks: the instance's own for
    IS and VC, and for DS and RBDS the min-degree elimination of the graph
    when it is narrower.  The DP folds that decomposition's tree
    iteratively (_run_dp), with forget, introduce and join steps on its
    tables (Cygan et al., Parameterized Algorithms, ch. 7), and the cap
    applies to the width it runs on.

    Table keys are int masks with bit 1 << v for bag vertex v.  A value
    packs a partial solution as size << S | chosen_mask with S = n + 1, so
    an introduce adds (1 << S) + bit, a join subtracts what the two sides
    share on the bag, and min/max on the int picks an optimum, breaking ties
    by the chosen mask.  So, whichever decomposition the DP runs on, the
    witness is the optimal set of least mask for VC, DS and RBDS, as
    optimum_subset gives it, and of greatest mask for IS (where
    optimum_subset takes the least).  VC is solved as the complement of
    IS.  There is one value form: every table packs its witness.  on is
    dp_decomposition's result for this instance and problem when the caller
    has it already."""
    graph = instance.graph
    rule, allowed, must = _subset_rule(graph, problem)
    dec, width = on or dp_decomposition(instance, problem)
    nbr = graph.neighbour_masks
    shift = graph.n + 1
    if rule.condition == "dominate":
        _guard(3 ** (width + 1), cap, "bag state space")
        best = _run_dp(dec, *_ds_steps(nbr, shift, allowed, must)).get((0, 0))
        if best is None:
            return float("inf"), None
    else:
        _guard(1 << width + 1, cap, "bag mask space")
        best = _run_dp(dec, *_is_steps(nbr, shift))[0]
        if rule.condition == "cover":
            # the least cover of least size is the complement of the greatest
            # independent set of greatest size: take its packed value from
            # the packed value of all vertices
            best = (graph.n << shift) + allowed - best
    return best >> shift, frozenset(_bits(best & ((1 << shift) - 1)))


def solve_is_treedp(instance: LogTwGraphInstance, cap: int | None = None):
    """Maximum independent set by the decomposition DP.
    Returns (decision vs target_weight, optimum size)."""
    best, _ = optimum_treedp(instance, "is", cap=cap)
    return meets_target("is", best, instance.target_weight), best


def solve_ds_treedp(instance: LogTwGraphInstance, cap: int | None = None):
    """Minimum dominating set by the decomposition DP.  Returns (decision vs
    target_weight, optimum), the optimum being infinity when no dominating
    set exists."""
    best, _ = optimum_treedp(instance, "ds", cap=cap)
    return meets_target("ds", best, instance.target_weight), best
