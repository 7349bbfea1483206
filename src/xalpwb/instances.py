"""Problem-instance types and their structural validators.

Every type here is immutable after construction and checks its invariants
eagerly: building an invalid instance raises InvariantViolation naming the
violated condition.  Identifiers (vertices, tree nodes, variables, colors)
are 1-based dense integers; display labels are optional decoration.

validate_decomposition returns a decomposition's width or raises
InvariantViolation naming the first violated condition; it reads each
vertex's occurrences, the set of tree nodes whose bags hold it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable


class XalpwbError(Exception):
    """Base class for all workbench errors."""


class InvariantViolation(XalpwbError):
    """A constructed instance violates one of its structural invariants."""


class DomainError(InvariantViolation):
    """A reduction was given an instance outside the domain it is defined on."""


class FormatError(XalpwbError):
    """Instance text does not match the expected line format."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapExceeded(XalpwbError):
    """An oracle refused an instance that is too large for exhaustive search."""


def ceil_log2(n: int) -> int:
    """ceil(log2(n)) with the convention ceil_log2(1) = 1 so that k*log(n)
    width checks never degenerate to zero on tiny instances."""
    if n < 1:
        raise InvariantViolation(f"ceil_log2 undefined for n={n}")
    if n == 1:
        return 1
    return (n - 1).bit_length()


def log_width_parameter(width: int, n: int) -> int:
    """The least k >= 1 with width <= k * ceil_log2(n): the parameter of a
    log-treewidth instance on n vertices whose decomposition has width."""
    return max(-(-width // ceil_log2(n)), 1)


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 1..n without loops or parallel edges."""

    n: int
    edges: frozenset[tuple[int, int]] = frozenset()
    labels: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 0:
            raise InvariantViolation("vertex count must be nonnegative")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for e in self.edges:
            if len(e) != 2:
                raise InvariantViolation(f"malformed edge {e!r}")
            u, v = e
            if u == v:
                raise InvariantViolation(f"self-loop at vertex {u}")
            if not (1 <= u < v <= self.n):
                raise InvariantViolation(
                    f"edge ({u},{v}) out of range or not normalized u<v")
        for v in self.labels:
            if not 1 <= v <= self.n:
                raise InvariantViolation(f"label on unknown vertex {v}")
        # a label is written as words and read back joined by single spaces
        for text in set(self.labels.values()):
            if not text or " ".join(text.split()) != text:
                raise InvariantViolation(f"label {text!r} must be words joined by single spaces")

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices()}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    @cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        """Entry v is the int with bit 1 << u for each neighbour u of v;
        entry 0 is 0.  Computed on first use and kept on the instance."""
        nbr = [0] * (self.n + 1)
        for u, v in self.edges:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        return tuple(nbr)


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class OrderedTree:
    """Rooted tree on nodes 1..n with an explicit order on children.

    Used both as the structure tree of chained instances (where it must be
    binary) and as the shape of a tree decomposition (where nodes may have
    any number of children).
    """

    n: int
    children: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise InvariantViolation("tree needs at least one node")
        child_of: dict[int, int] = {}
        for p, cs in self.children.items():
            if not 0 < p <= n:
                raise InvariantViolation(f"unknown tree node {p}")
            for c in cs:
                if not 0 < c <= n:
                    raise InvariantViolation(f"unknown tree node {c}")
                if c in child_of:
                    raise InvariantViolation(f"node {c} has two parents")
                child_of[c] = p
        if len(child_of) != n - 1:
            roots = set(range(1, n + 1)) - set(child_of)
            raise InvariantViolation(
                f"tree must have exactly one root, found {sorted(roots)}")
        # the n - 1 distinct children leave out exactly the root
        root = n * (n + 1) // 2 - sum(child_of)
        # each node has one parent and the root none, so the search from the
        # root reaches each node at most once; a cycle among the child links
        # is a part the root does not reach
        reached, stack = 1, [root]
        while stack:
            cs = self.children.get(stack.pop(), ())
            reached += len(cs)
            stack.extend(cs)
        if reached != n:
            raise InvariantViolation("tree is not connected")
        object.__setattr__(self, "_root", root)
        object.__setattr__(self, "_parent", child_of)

    @property
    def root(self) -> int:
        return self._root  # type: ignore[attr-defined]

    def parent(self, node: int) -> int | None:
        return self._parent.get(node)  # type: ignore[attr-defined]

    def child_list(self, node: int) -> tuple[int, ...]:
        return self.children.get(node, ())

    def nodes(self) -> range:
        return range(1, self.n + 1)

    def edge_list(self) -> list[tuple[int, int]]:
        return [(p, c) for p in sorted(self.children) for c in self.children[p]]

    def is_tree_edge(self, a: int, b: int) -> bool:
        return self.parent(a) == b or self.parent(b) == a

    def validate_binary(self) -> None:
        for p, cs in self.children.items():
            if len(cs) > 2:
                raise InvariantViolation(
                    f"structure tree node {p} has {len(cs)} children (max 2)")

    def preorder(self) -> list[int]:
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(self.child_list(node)))
        return out


_UNSETTLED = object()


def first_workable(tree: OrderedTree, given, options: Callable, handoff: Callable):
    """Backtrack-free search of tree that keeps only the parent's choice.

    A node is workable with what its parent hands it when some option of
    options(node, given), which yields options in order and never None, has
    every i-th child workable with handoff(option, i).  Each (node, given)
    pair settles once, on its first such option or on None, so a child
    handed the same value under a later option of its parent is not searched
    again.  Runs on an explicit stack.
    Returns {node: (given, option)} read back from the root in preorder, or
    None when the root is not workable with given.
    """
    settled: dict = {}

    def frame(node, here):
        opts = iter(options(node, here))
        return [node, here, opts, next(opts, None), 0]

    todo = [frame(tree.root, given)]
    while todo:
        top = todo[-1]
        node, here, opts, option, pos = top
        kids = tree.child_list(node)
        # pass the children already settled, moving to the next option when
        # one settled on None
        while option is not None and pos < len(kids):
            down = handoff(option, pos)
            below = settled.get((kids[pos], down), _UNSETTLED)
            if below is _UNSETTLED:
                top[3], top[4] = option, pos
                todo.append(frame(kids[pos], down))
                break
            if below is None:
                option, pos = next(opts, None), 0
            else:
                pos += 1
        else:
            settled[node, here] = option
            todo.pop()
    if settled[tree.root, given] is None:
        return None
    found = {}
    todo = [(tree.root, given)]
    while todo:
        node, here = todo.pop()
        option = settled[node, here]
        found[node] = (here, option)
        kids = tree.child_list(node)
        todo.extend((kids[i], handoff(option, i)) for i in reversed(range(len(kids))))
    return found


@dataclass(frozen=True)
class TreeDecomposition:
    """Bag-labelled tree over the vertices of some graph."""

    tree: OrderedTree
    bags: dict[int, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        bags = {i: frozenset(b) for i, b in self.bags.items()}
        object.__setattr__(self, "bags", bags)
        for i in self.tree.nodes():
            if i not in bags:
                raise InvariantViolation(f"tree node {i} has no bag")
        for i in bags:
            if not 1 <= i <= self.tree.n:
                raise InvariantViolation(f"bag on unknown tree node {i}")

    def width(self) -> int:
        return max(len(b) for b in self.bags.values()) - 1

    @cached_property
    def occurrences(self) -> dict[int, set[int]]:
        """Each bag vertex mapped to the set of tree nodes whose bags hold
        it, in order of first occurrence.  Computed on first use and kept on
        the instance."""
        occ: dict[int, set[int]] = {}
        for i, bag in self.bags.items():
            for v in bag:
                if v in occ:
                    occ[v].add(i)
                else:
                    occ[v] = {i}
        return occ


def validate_decomposition(graph: Graph, dec: TreeDecomposition) -> int:
    """Check the three tree-decomposition conditions against graph and
    return the width, or raise InvariantViolation naming the first violated
    condition: a bag vertex out of range, a vertex uncovered, an edge
    uncovered, or a vertex whose occurrences are disconnected.  The tree
    nodes whose bags hold v induce a forest, which is connected exactly when
    it has one node more than it has edges.

    A success is remembered on dec together with the graph object it was
    checked against: a later call with that same object (compared by
    identity, as an equal graph built anew is checked again) returns the
    width without a second pass.
    """
    memo = getattr(dec, "_checked", None)
    if memo is not None and memo[0] is graph:
        return memo[1]
    violation = _check_decomposition(graph, dec)
    if violation is not None:
        raise InvariantViolation(f"invalid decomposition: {violation}")
    width = dec.width()
    object.__setattr__(dec, "_checked", (graph, width))
    return width


def _check_decomposition(graph: Graph, dec: TreeDecomposition) -> str | None:
    """The first violated condition of validate_decomposition, or None."""
    # bounded by the bags: once every bag vertex is in range and none is
    # missing, the graph has no more vertices than the bags hold
    n = graph.n
    occ = dec.occurrences
    for v in occ:
        if not 0 < v <= n:
            return f"bag vertex out of range: {v}"
    if len(occ) < n:
        return f"vertex uncovered: {next(v for v in range(1, n + 1) if v not in occ)}"
    uncovered = [e for e in graph.edges if occ[e[0]].isdisjoint(occ[e[1]])]
    if uncovered:
        u, v = min(uncovered)
        return f"edge uncovered: {{{u},{v}}}"
    links = dict.fromkeys(occ, 1)  # v -> one more than the tree edges inside occ[v]
    bags = dec.bags
    for p, cs in dec.tree.children.items():
        up = bags[p]
        for c in cs:
            for v in bags[c] & up:
                links[v] += 1
    for v in range(1, n + 1):
        if len(occ[v]) != links[v]:
            return f"occurrences disconnected: {v}"
    return None


class _Decomposed:
    """Base of the instance types that carry a decomposition of their graph:
    it is validated once, at construction, and width keeps the result."""

    def _keep_width(self):
        width = None
        if self.decomposition is not None:
            width = validate_decomposition(self.graph, self.decomposition)
        object.__setattr__(self, "_width", width)

    @property
    def width(self) -> int | None:
        """Width of the decomposition, or None without one."""
        return self._width  # type: ignore[attr-defined]


@dataclass(frozen=True)
class TcmcInstance:
    """Tree-chained multicolor instance: one class of vertices per
    (tree node, color) pair; a solution picks one vertex per class.

    Whether adjacency (clique) or non-adjacency (independent set) is required
    between constrained pairs is the solver's mode, not part of the instance.
    """

    tree: OrderedTree
    k: int
    classes: dict[tuple[int, int], frozenset[int]]
    graph: Graph

    def __post_init__(self):
        self.tree.validate_binary()
        if self.k < 1:
            raise InvariantViolation("color count k must be >= 1")
        classes = {key: frozenset(vs) for key, vs in self.classes.items()}
        object.__setattr__(self, "classes", classes)
        owner = _cell_owners(self.tree, self.k, classes, "class map")
        n = self.graph.n
        if len(owner) != n or not all(0 < v <= n for v in owner):
            raise InvariantViolation(
                "union of classes must equal the graph's vertex set")
        object.__setattr__(self, "_owner", owner)
        # one unsorted pass; the error names the least offending edge
        least = min(_misjoined_edges(self.tree, owner, self.graph.edges), default=None)
        if least is not None:
            u, v, where = least
            raise InvariantViolation(f"edge joins non-incident classes: ({u},{v}) {where}")

    def class_of(self, v: int) -> tuple[int, int]:
        return self._owner[v]  # type: ignore[attr-defined]

    def constrained_pairs(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """All class pairs whose chosen vertices are constrained."""
        return constrained_class_pairs(self.tree, self.k)


def _misjoined_edges(tree: OrderedTree, owner: dict[int, tuple[int, int]], edges):
    """The edges of a tcmc graph that join two vertices of one class, or of
    classes at tree nodes that are neither equal nor adjacent, in the
    order of edges, each as (u, v, where the edge lies)."""
    is_tree_edge = tree.is_tree_edge
    for u, v in edges:
        iu, ju = owner[u]
        iv, jv = owner[v]
        if iu != iv:
            if not is_tree_edge(iu, iv):
                yield u, v, f"between nodes {iu},{iv}"
        elif ju == jv:
            yield u, v, f"inside class {(iu, ju)}"


def constrained_class_pairs(tree: OrderedTree, k: int
                            ) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (node, color) class pairs of a tcmc instance on tree with k colors
    whose chosen vertices are constrained: same tree node or endpoints of a
    tree edge, excluding the identical class."""
    pairs = []
    ks = range(1, k + 1)
    for i in tree.nodes():
        for j1 in ks:
            for j2 in ks:
                if j1 < j2:
                    pairs.append(((i, j1), (i, j2)))
    for p, c in tree.edge_list():
        for j1 in ks:
            for j2 in ks:
                pairs.append(((p, j1), (c, j2)))
    return pairs


def _cell_owners(tree: OrderedTree, k: int, cells: dict[tuple[int, int], frozenset[int]],
                 what: str) -> dict[int, tuple[int, int]]:
    """Check that cells is a k-cell partition over tree: a cell for every
    (node, 1..k) and no member in two cells.  Returns each member's cell
    key, members in order of their cells."""
    expected = {(i, j) for i in tree.nodes() for j in range(1, k + 1)}
    if cells.keys() != expected:
        missing = sorted(expected - cells.keys())
        extra = sorted(cells.keys() - expected)
        raise InvariantViolation(
            f"{what} must have a cell for every (node, 1..k): missing {missing}, extra {extra}")
    owner: dict[int, tuple[int, int]] = {}
    for key in sorted(cells):
        for v in cells[key]:
            if v in owner:
                raise InvariantViolation(f"{what} puts {v} in cells {owner[v]} and {key}")
            owner[v] = key
    return owner


CNF_VARIANTS = ("general", "positive-partitioned", "negative-partitioned")


@dataclass(frozen=True)
class TreeChainedCnf:
    """CNF whose clauses are local to a structure-tree node or one of its
    tree edges, in one of three variants.

    Clause literals are signed variable ids; variables are grouped per node
    and, for the partitioned variants, split into k cells per node.  A
    general instance may be given such a partition too; it is checked alike.
    """

    tree: OrderedTree
    variable_sets: dict[int, frozenset[int]]
    clauses: tuple[tuple[int, ...], ...]
    variant: str
    k: int
    partition: dict[tuple[int, int], frozenset[int]] | None = None
    var_names: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        self.tree.validate_binary()
        if self.variant not in CNF_VARIANTS:
            raise InvariantViolation(f"unknown cnf variant {self.variant!r}")
        if self.k < 1:
            raise InvariantViolation("parameter k must be >= 1")
        vsets = {i: frozenset(vs) for i, vs in self.variable_sets.items()}
        object.__setattr__(self, "variable_sets", vsets)
        if set(vsets) != set(self.tree.nodes()):
            raise InvariantViolation("variable_sets must cover every tree node")
        node_of: dict[int, int] = {}
        for i in sorted(vsets):
            for x in vsets[i]:
                if x in node_of:
                    raise InvariantViolation(f"variable {x} in two node sets")
                node_of[x] = i
        allvars = set(node_of)
        if allvars and set(range(1, max(allvars) + 1)) != allvars:
            raise InvariantViolation("variable ids must be dense 1..n")
        object.__setattr__(self, "_node_of", node_of)
        names = dict(self.var_names)
        for x in allvars:
            names.setdefault(x, f"x{x}")
        if len(set(names.values())) != len(names):
            raise InvariantViolation("variable names must be unique")
        for name in names.values():
            # a clause writes a negated variable as '-' and its name
            if name.split() != [name] or name[0] == "-":
                raise InvariantViolation(
                    f"variable name {name!r} must be one token not starting with '-'")
        object.__setattr__(self, "var_names", names)
        object.__setattr__(
            self, "clauses", tuple(tuple(c) for c in self.clauses))
        for idx, clause in enumerate(self.clauses):
            scope_nodes = set()
            for lit in clause:
                x = abs(lit)
                if x not in node_of:
                    raise InvariantViolation(
                        f"clause {idx + 1} uses unknown variable {x}")
                scope_nodes.add(node_of[x])
            if len(scope_nodes) > 2:
                raise InvariantViolation(
                    f"clause {idx + 1} spans nodes {sorted(scope_nodes)}")
            if len(scope_nodes) == 2:
                a, b = sorted(scope_nodes)
                if not self.tree.is_tree_edge(a, b):
                    raise InvariantViolation(
                        f"clause {idx + 1} spans non-adjacent nodes {a},{b}")
        if self.variant == "positive-partitioned":
            if any(lit < 0 for c in self.clauses for lit in c):
                raise InvariantViolation("positive-partitioned clause has a negative literal")
        elif self.variant == "negative-partitioned":
            if any(lit > 0 for c in self.clauses for lit in c):
                raise InvariantViolation("negative-partitioned clause has a positive literal")
        cell_of: dict[int, tuple[int, int]] = {}
        if self.partition is not None:
            cells = {key: frozenset(vs) for key, vs in self.partition.items()}
            object.__setattr__(self, "partition", cells)
            cell_of = _cell_owners(self.tree, self.k, cells, "partition")
            if len(cell_of) != len(node_of) or any(
                    cell_of.get(x, (0,))[0] != i for x, i in node_of.items()):
                raise InvariantViolation("partition cells must hold exactly their node's variables")
        elif self.variant != "general":
            raise InvariantViolation(f"{self.variant} instance needs a partition")
        object.__setattr__(self, "_cell_of", cell_of)

    def node_of_var(self, x: int) -> int:
        return self._node_of[x]  # type: ignore[attr-defined]

    def cell_of_var(self, x: int) -> tuple[int, int]:
        """The (node, cell) key of x's partition cell; only an instance
        given a partition has cells."""
        return self._cell_of[x]  # type: ignore[attr-defined]

    def all_variables(self) -> list[int]:
        return sorted(v for vs in self.variable_sets.values() for v in vs)


@dataclass(frozen=True)
class ListColoringInstance(_Decomposed):
    """List coloring over a global palette; precolored vertices act as if
    their list were the singleton of the assigned color.  It may carry a
    decomposition of its graph."""

    graph: Graph
    palette: frozenset[int]
    lists: dict[int, frozenset[int]]
    precolored: dict[int, int] = field(default_factory=dict)
    decomposition: TreeDecomposition | None = None

    def __post_init__(self):
        palette = frozenset(self.palette)
        object.__setattr__(self, "palette", palette)
        lists = {v: frozenset(cs) for v, cs in self.lists.items()}
        object.__setattr__(self, "lists", lists)
        n = self.graph.n
        if len(lists) != n or not all(0 < v <= n for v in lists):
            raise InvariantViolation("every vertex needs a color list")
        for v in sorted(lists):
            if not lists[v] <= palette:
                raise InvariantViolation(f"list of vertex {v} leaves the palette")
        for v, c in sorted(self.precolored.items()):
            if v not in lists:
                raise InvariantViolation(f"precoloring of unknown vertex {v}")
            if c not in lists[v]:
                raise InvariantViolation(
                    f"precolored vertex {v} with color {c} outside its list")
        self._keep_width()

    def effective_list(self, v: int) -> frozenset[int]:
        if v in self.precolored:
            return frozenset({self.precolored[v]})
        return self.lists[v]


LOGTW_PROBLEMS = ("is", "vc", "rbds", "ds")


@dataclass(frozen=True)
class LogTwGraphInstance(_Decomposed):
    """Graph problem instance carrying its own decomposition witness and a
    declared logarithmic-treewidth parameter k: width <= k * ceil(log2 n)."""

    graph: Graph
    decomposition: TreeDecomposition
    target_weight: int
    k: int
    problem: str = "is"

    def __post_init__(self):
        if self.problem not in LOGTW_PROBLEMS:
            raise InvariantViolation(f"unknown problem tag {self.problem!r}")
        if self.graph.n < 1:
            raise InvariantViolation("log-treewidth instance needs >= 1 vertex")
        self._keep_width()
        bound = self.k * ceil_log2(self.graph.n)
        if self.width > bound:
            raise InvariantViolation(f"width {self.width} exceeds k*ceil(log2 n) = {bound}")
        if self.k < 1:
            raise InvariantViolation("parameter k must be >= 1")
        if self.problem == "rbds":
            for v in self.graph.vertices():
                if self.graph.labels.get(v) not in ("red", "blue"):
                    raise InvariantViolation(
                        f"rbds instance needs red/blue label on vertex {v}")

    def blue_vertices(self) -> list[int]:
        return [v for v in self.graph.vertices() if self.graph.labels.get(v) == "blue"]


@dataclass(frozen=True)
class ResourceBudget:
    """Resource limits for machine evaluation; None means unbounded."""

    time_steps: int | None = None
    tree_size: int | None = None
    stack_height_cap: int | None = None

    def __post_init__(self):
        for name in ("time_steps", "tree_size", "stack_height_cap"):
            val = getattr(self, name)
            if val is not None and val < 0:
                raise InvariantViolation(f"budget field {name} must be nonnegative")
