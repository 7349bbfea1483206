"""Instance-to-instance reductions with solution lifting and, where
claimed, tree-decomposition witnesses.

Each reduction is addressable by a stable name (REDUCTION_NAMES) and emits a
ReductionArtifact.  Lift maps carry solutions across the reduction in both
directions as callables plus desk-scale record tables that serialize as
"lift <source-item> <target-items...>" lines.  A source outside a
reduction's domain raises DomainError.  Parameter accounting is done by
verify: each reduction's contract there names its parameter rule, and k and
k' are measured on the source and the target.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

from .instances import (
    Graph,
    DomainError,
    ListColoringInstance,
    LogTwGraphInstance,
    OrderedTree,
    TcmcInstance,
    TreeChainedCnf,
    TreeDecomposition,
    constrained_class_pairs,
    log_width_parameter,
    normalize_edge,
)
from .machines import AtmInstance, input_symbol


@dataclass
class LiftMap:
    """Invertible solution correspondence: forward maps source solutions to
    target solutions, backward the reverse; records builds the serializable
    desk-scale table, as (source item, target items) pairs, when it is
    called, so an artifact that is never serialized builds no table."""

    records: Callable[[], Iterable[tuple[str, tuple[str, ...]]]]
    forward: Callable
    backward: Callable

    def serialize(self) -> str:
        lines = []
        for src, targets in self.records():
            lines.append("lift " + " ".join([src, *targets]))
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class ReductionArtifact:
    target: object
    lift: LiftMap

    @property
    def witness(self) -> TreeDecomposition | None:
        """The target's own decomposition, or None when it has none."""
        return getattr(self.target, "decomposition", None)


def _grow_decomposition(tree: OrderedTree, bags: dict[int, frozenset[int]],
                        extra: list[tuple[int, frozenset[int]]]) -> TreeDecomposition:
    """The decomposition of tree with the given bags, plus one new node per
    (parent, bag) pair in extra, numbered from tree.n + 1 in order and hung
    as the last child of its parent, an old node or an earlier new one."""
    children = {i: list(tree.child_list(i)) for i in tree.nodes()}
    bags = dict(bags)
    for node, (parent, bag) in enumerate(extra, start=tree.n + 1):
        bags[node] = bag
        children.setdefault(parent, []).append(node)
    grown = OrderedTree(n=tree.n + len(extra),
                        children={i: tuple(cs) for i, cs in children.items() if cs})
    return TreeDecomposition(tree=grown, bags=bags)


def _parent_closed_bags(tree: OrderedTree, own: dict[int, set[int]]) -> dict[int, frozenset[int]]:
    """Per structure node the base bag of its own vertices and its parent's."""
    return {i: frozenset(own[i]).union(own.get(tree.parent(i), ())) for i in tree.nodes()}


def _host_node(tree: OrderedTree, scope: set[int]) -> int:
    """The structure node under which a gadget over the nodes of scope (one
    node, or the two ends of a tree edge) hangs: the single node, the child
    end of the edge, or the root when scope is empty."""
    if not scope:
        return tree.root
    a, b = min(scope), max(scope)  # a == b for a single node
    return a if tree.parent(a) == b else b


# ==================================== shaped machine acceptance to cliques


def _block_view(beta: int, blocks: int, tape: tuple[str, ...], work_head: int):
    """Per-block (tag, content) encoding of a work tape.  Block j's tag is
    the work head's cell offset in it, work_head - (j - 1)*beta, clipped to
    0..beta + 1: 1..beta is the head's cell in the block, 0 puts the head
    left of the block and beta + 1 right of it."""
    return [(min(max(work_head - (j - 1) * beta, 0), beta + 1), tape[(j - 1) * beta: j * beta])
            for j in range(1, blocks + 1)]


def _intra_edge(beta: int, a, b) -> bool:
    """Consecutive-color constraint inside one tree node: labels a of block
    j and b of block j + 1 share state and input head, and their tags are
    the clipped offsets of one work head cell h, h - (j - 1)*beta and
    h - j*beta.  So b's tag is 0 exactly when a's is at most beta."""
    return a[0] == b[0] and a[1] == b[1] and (b[2] == 0) == (a[2] <= beta)


def reduce_atm_to_tcmc(source: AtmInstance) -> ReductionArtifact:
    """Encode shaped acceptance of a stack-free machine as a tree-chained
    multicolor clique instance.

    The work tape (blocks*beta cells over the binary alphabet with blank 0)
    is split into one color class per block; a vertex (q, p, tag, content)
    records the machine state, input head, the block's tag and the block
    content.  Intra-node edges force the chosen vertices of one node to
    encode a single configuration, cross-node edges on equal colors encode
    machine transitions (restricted to the first or second universal
    transition toward the first or second child), and the remaining
    non-constraining pairs are completed into cliques.

    A block's tag is the work head's cell offset in the block, clipped to
    0..beta + 1 (_block_view).  The lift records name the clipped ends by
    where the head is: 0 "after" (the head is left of the block) and
    beta + 1 "before" (right of it).
    """
    machine, x, shape, blocks, beta = source
    if machine.uses_stack:
        raise DomainError("atm-tcmc requires a stack-free machine")
    if blocks < 1 or beta < 1:
        raise DomainError("blocks and beta must be >= 1")
    if machine.work_cells != blocks * beta:
        raise DomainError(
            f"work tape has {machine.work_cells} cells, need blocks*beta = {blocks * beta}")
    if tuple(machine.work_alphabet) != ("0", "1") and tuple(machine.work_alphabet) != ("0",):
        raise DomainError(
            "atm-tcmc requires the binary work alphabet '01' with blank 0")
    shape.validate_binary()

    npos = len(x) + 2  # head positions 0..len+1 including both boundary markers
    tags = [beta + 1, 0, *range(1, beta + 1)]
    contents = ["".join(bits) for bits in itertools.product(*(["01"] * beta))]

    def role_states(node: int) -> list[str]:
        kids = shape.child_list(node)
        if not kids:
            return [q for q in machine.states if q in machine.accepting]
        if len(kids) == 2:
            return [q for q in machine.states
                    if machine.mode[q] == "univ" and q not in machine.accepting]
        return [q for q in machine.states
                if machine.mode[q] in ("det", "exist") and q not in machine.accepting]

    init_blocks = _block_view(beta, blocks, (machine.blank,) * machine.work_cells, 1)

    # vertices are numbered class by class in (node, color) order
    vid: dict[tuple[int, int, tuple], int] = {}
    label_of_vertex: dict[int, tuple[int, int, tuple]] = {}
    members: dict[tuple[int, int], list[tuple[tuple, int]]] = {}  # class -> (label, vertex)
    for i in shape.nodes():
        states = role_states(i)
        for j in range(1, blocks + 1):
            if i == shape.root:
                tag, content = init_blocks[j - 1]
                labels = [(machine.initial, 1, tag, "".join(content))]
                labels = [lab for lab in labels if lab[0] in states]
            else:
                labels = [(q, p, tag, w)
                          for q in states
                          for p in range(0, npos)
                          for tag in tags
                          for w in contents]
            members[(i, j)] = []
            for lab in labels:
                v = len(label_of_vertex) + 1
                vid[(i, j, lab)] = v
                label_of_vertex[v] = (i, j, lab)
                members[(i, j)].append((lab, v))

    def transition_rule(parent: int, j: int, child: int) -> Callable:
        """The test whether a label of block j at parent steps to one of
        block j at child: the work head stays on the tape, a block without
        the head keeps its content (admitting the head entering at its first
        or last cell), and a head-bearing block's step is some transition
        (of a universal parent, its first or second toward that child)."""
        kids = shape.child_list(parent)
        idx = kids.index(child)
        pick = slice(idx, idx + 1) if len(kids) == 2 else slice(None)
        offset = (j - 1) * beta

        def step(parent_lab, child_lab) -> bool:
            q, p, tag, w = parent_lab
            q2, p2, tag2, w2 = child_lab
            if not 1 <= tag <= beta:
                return w == w2 and abs(tag2 - tag) <= 1
            moved = tag2 - tag
            if not 1 <= offset + tag + moved <= blocks * beta:
                return False
            for act in machine.transitions.get((q, input_symbol(x, p), w[tag - 1]), ())[pick]:
                if (act.state == q2 and p + act.di == p2 and act.dw == moved
                        and w[:tag - 1] + act.write + w[tag:] == w2):
                    return True
            return False

        return step

    # consecutive colors of a node keep the configuration rule, equal colors
    # across a tree edge the child's transition rule; every other
    # constrained pair is completed
    edges: set[tuple[int, int]] = set()
    for a, b in constrained_class_pairs(shape, blocks):
        keep = None
        if a[0] == b[0]:
            if b[1] == a[1] + 1:
                keep = functools.partial(_intra_edge, beta)
        elif a[1] == b[1]:
            keep = transition_rule(a[0], a[1], b[0])
        for lab_a, u in members[a]:
            for lab_b, v in members[b]:
                if keep is None or keep(lab_a, lab_b):
                    edges.add(normalize_edge(u, v))

    graph = Graph(n=len(label_of_vertex), edges=frozenset(edges))
    classes = {key: frozenset(v for _lab, v in pairs) for key, pairs in members.items()}
    target = TcmcInstance(tree=shape, k=blocks, classes=classes, graph=graph)

    def encode_part(node: int, part) -> dict[tuple[int, int], int]:
        q, p, tape, wh = part
        out = {}
        for j, (tag, content) in enumerate(_block_view(beta, blocks, tape, wh), start=1):
            out[(node, j)] = vid[(node, j, (q, p, tag, "".join(content)))]
        return out

    def forward(run: dict[int, tuple]) -> dict[tuple[int, int], int]:
        choice = {}
        for node, part in run.items():
            choice.update(encode_part(node, part))
        return choice

    def backward(choice: dict[tuple[int, int], int]) -> dict[int, tuple]:
        run = {}
        for node in shape.nodes():
            per_block = [label_of_vertex[choice[(node, j)]][2]
                         for j in range(1, blocks + 1)]
            q, p = per_block[0][0], per_block[0][1]
            wh = next((j - 1) * beta + lab[2] for j, lab in enumerate(per_block, start=1)
                      if 1 <= lab[2] <= beta)
            tape = tuple(ch for lab in per_block for ch in lab[3])
            run[node] = (q, p, tape, wh)
        return run

    names = {0: "after", beta + 1: "before"}
    records = lambda: (
        (f"{lab[0]}@{lab[1]}/{names.get(lab[2], lab[2])}/{lab[3]}", (f"v{v}",))
        for v, (node, color, lab) in sorted(label_of_vertex.items()))
    return ReductionArtifact(
        target=target, lift=LiftMap(records=records, forward=forward, backward=backward))


# ======================================== clique/independent-set complement


def complement_tcmc_to_tcmis(instance: TcmcInstance) -> ReductionArtifact:
    """Complement the graph on all constrained class pairs, turning
    tree-chained multicolor cliques into independent sets and back."""
    edges = set()
    for a, b in instance.constrained_pairs():
        for u in instance.classes[a]:
            for v in instance.classes[b]:
                if not instance.graph.has_edge(u, v):
                    edges.add(normalize_edge(u, v))
    graph = Graph(n=instance.graph.n, edges=frozenset(edges),
                  labels=dict(instance.graph.labels))
    target = TcmcInstance(tree=instance.tree, k=instance.k,
                          classes=dict(instance.classes), graph=graph)
    records = lambda: ((f"v{v}", (f"v{v}",)) for v in instance.graph.vertices())
    return ReductionArtifact(
        target=target, lift=LiftMap(records=records, forward=dict, backward=dict))


# ============================================================ list coloring


def reduce_tcmis_to_listcoloring(instance: TcmcInstance) -> ReductionArtifact:
    """One class vertex per (node, color) with its class as color list, one
    degree-2 conflict vertex per source edge; colorable iff a tree-chained
    multicolor independent set exists.  Emits the 2k-1 width witness."""
    keys = sorted(instance.classes)
    class_vertex = {key: idx for idx, key in enumerate(keys, start=1)}
    nxt = len(keys) + 1
    conflict_vertex: dict[tuple[int, int], int] = {}
    edges = set()
    lists: dict[int, frozenset[int]] = {}
    for key in keys:
        lists[class_vertex[key]] = frozenset(instance.classes[key])
    for e in sorted(instance.graph.edges):
        u, w = e
        cu = class_vertex[instance.class_of(u)]
        cw = class_vertex[instance.class_of(w)]
        conflict_vertex[e] = nxt
        lists[nxt] = frozenset({u, w})
        edges.add(normalize_edge(nxt, cu))
        edges.add(normalize_edge(nxt, cw))
        nxt += 1
    graph = Graph(n=nxt - 1, edges=frozenset(edges))

    # witness: per structure node the bag of its own and its parent's class
    # vertices; per conflict vertex a 3-element bag under the deeper node
    tree = instance.tree
    base_bags = _parent_closed_bags(tree, {
        i: {class_vertex[(i, j)] for j in range(1, instance.k + 1)} for i in tree.nodes()})
    extra = []
    for e in sorted(conflict_vertex):
        u, w = e
        host = _host_node(tree, {instance.class_of(u)[0], instance.class_of(w)[0]})
        cu = class_vertex[instance.class_of(u)]
        cw = class_vertex[instance.class_of(w)]
        extra.append((host, frozenset({conflict_vertex[e], cu, cw})))
    witness = _grow_decomposition(tree, base_bags, extra)
    target = ListColoringInstance(graph=graph, palette=frozenset(instance.graph.vertices()),
                                  lists=lists, decomposition=witness)

    def forward(choice: dict[tuple[int, int], int]) -> dict[int, int]:
        coloring = {class_vertex[key]: choice[key] for key in keys}
        chosen = set(choice.values())
        for e, cv in conflict_vertex.items():
            u, w = e
            free = [c for c in (u, w) if c not in chosen]
            coloring[cv] = min(free)
        return coloring

    def backward(coloring: dict[int, int]) -> dict[tuple[int, int], int]:
        return {key: coloring[class_vertex[key]] for key in keys}

    records = lambda: itertools.chain(
        ((f"class:{i}:{j}", (f"v{class_vertex[(i, j)]}",)) for i, j in keys),
        ((f"edge:{u}:{w}", (f"v{cv}",)) for (u, w), cv in sorted(conflict_vertex.items())))
    return ReductionArtifact(
        target=target, lift=LiftMap(records=records, forward=forward, backward=backward))


def reduce_listcoloring_to_precoloring(instance: ListColoringInstance) -> ReductionArtifact:
    """Replace color lists by precolored pendant neighbors, one per forbidden
    color of each vertex; an extension exists iff the source is colorable.

    When the source carries a decomposition, the target's is that one
    extended with one {vertex, pendant} bag per pendant (width +<= 1)."""
    n = instance.graph.n
    palette = instance.palette
    pendants: dict[tuple[int, int], int] = {}
    nxt = n + 1
    edges = set(instance.graph.edges)
    for v in sorted(instance.graph.vertices()):
        for c in sorted(palette - instance.effective_list(v)):
            pendants[(v, c)] = nxt
            edges.add(normalize_edge(v, nxt))
            nxt += 1
    graph = Graph(n=nxt - 1, edges=frozenset(edges))
    witness = instance.decomposition
    if witness is not None:
        # each pendant hangs under the least tree node whose bag holds its vertex
        occ = witness.occurrences
        witness = _grow_decomposition(
            witness.tree, witness.bags,
            [(min(occ[v]), frozenset({v, pv})) for (v, _c), pv in sorted(pendants.items())])
    precolored = {pv: c for (v, c), pv in pendants.items()}
    target = ListColoringInstance(graph=graph, palette=palette,
                                  lists={v: palette for v in graph.vertices()},
                                  precolored=precolored, decomposition=witness)

    def forward(coloring: dict[int, int]) -> dict[int, int]:
        out = dict(coloring)
        out.update(precolored)
        return out

    def backward(coloring: dict[int, int]) -> dict[int, int]:
        return {v: coloring[v] for v in instance.graph.vertices()}

    records = lambda: ((f"forbid:{v}:{c}", (f"v{pv}",))
                       for (v, c), pv in sorted(pendants.items()))
    return ReductionArtifact(
        target=target, lift=LiftMap(records=records, forward=forward, backward=backward))


# ======================================================= tree-chained CNFs


def reduce_tcmis_to_negcnf(instance: TcmcInstance) -> ReductionArtifact:
    """One variable per vertex, cells mirroring the classes, one all-negative
    clause per edge; satisfiable under exactly-one-per-cell iff a
    tree-chained multicolor independent set exists."""
    variable_sets = {
        i: frozenset(v for j in range(1, instance.k + 1)
                     for v in instance.classes[(i, j)])
        for i in instance.tree.nodes()}
    partition = {key: frozenset(vs) for key, vs in instance.classes.items()}
    clauses = tuple((-u, -v) for u, v in sorted(instance.graph.edges))
    target = TreeChainedCnf(
        tree=instance.tree, variable_sets=variable_sets, clauses=clauses,
        variant="negative-partitioned", k=instance.k, partition=partition)

    def forward(choice: dict[tuple[int, int], int]) -> frozenset[int]:
        return frozenset(choice.values())

    def backward(true_vars: frozenset[int]) -> dict[tuple[int, int], int]:
        out = {}
        for key in sorted(partition):
            picked = sorted(true_vars & partition[key])
            out[key] = picked[0]
        return out

    records = lambda: ((f"v{v}", (target.var_names[v],))
                       for v in instance.graph.vertices())
    return ReductionArtifact(
        target=target, lift=LiftMap(records=records, forward=forward, backward=backward))


def _same_variables_lift(instance: TreeChainedCnf) -> LiftMap:
    """The lift of a CNF reduction that keeps instance's variables: each
    variable, named as in instance, maps to itself."""
    name = instance.var_names
    return LiftMap(records=lambda: ((name[v], (name[v],)) for v in instance.all_variables()),
                   forward=frozenset, backward=frozenset)


def reduce_negcnf_to_poscnf(instance: TreeChainedCnf) -> ReductionArtifact:
    """Replace every negative literal on a cell variable by the disjunction
    of the other variables of its cell; a literal on a singleton cell
    contributes nothing, so a clause of only such literals is emitted empty
    (unsatisfiable under the partition, mirroring the source semantics)."""
    if instance.variant != "negative-partitioned":
        raise DomainError("negcnf-poscnf needs a negative-partitioned instance")
    clauses = []
    for clause in instance.clauses:
        out = []
        for lit in clause:
            v = -lit
            out.extend(sorted(instance.partition[instance.cell_of_var(v)] - {v}))
        clauses.append(tuple(out))
    target = TreeChainedCnf(
        tree=instance.tree, variable_sets=dict(instance.variable_sets),
        clauses=tuple(clauses), variant="positive-partitioned", k=instance.k,
        partition=dict(instance.partition), var_names=dict(instance.var_names))
    return ReductionArtifact(target=target, lift=_same_variables_lift(instance))


def reduce_partitioned_to_general_cnf(instance: TreeChainedCnf) -> ReductionArtifact:
    """Drop the partition and enforce it with clauses instead: per cell one
    all-positive clause (pick at least one) and all pairwise negative
    clauses (pick at most one); weight k per node set."""
    if instance.variant not in ("positive-partitioned", "negative-partitioned"):
        raise DomainError("part-gencnf needs a partitioned instance")
    clauses = list(instance.clauses)
    for key in sorted(instance.partition):
        cell = sorted(instance.partition[key])
        clauses.append(tuple(cell))
        for a, b in itertools.combinations(cell, 2):
            clauses.append((-a, -b))
    target = TreeChainedCnf(
        tree=instance.tree, variable_sets=dict(instance.variable_sets),
        clauses=tuple(clauses), variant="general", k=instance.k,
        var_names=dict(instance.var_names))
    return ReductionArtifact(target=target, lift=_same_variables_lift(instance))


# ==================================== independent set at logarithmic width


def _clause_completion(ell: int, pos: int | None) -> list[tuple[str, int]]:
    """Path vertices of one clause gadget of even length ell, tagged ("p", t)
    for t in 0..ell+1 and ("pp", t) for t in 1..ell, that complete the
    literal vertex at column pos to an independent set of ell + 2.

    Each column t other than pos takes p_t when t is even and left of pos or
    odd and right of pos, else p'_t; p_0 and p_ell+1 are always free then.
    Without a true literal (pos None) the left pattern runs through column
    ell, which leaves p_ell+1 out: ell + 1 vertices, one short."""
    edge = ell + 1 if pos is None else pos
    tags = [("p", 0)] + [("p" if (t % 2 == 0) == (t < edge) else "pp", t)
                         for t in range(1, ell + 1) if t != pos]
    if pos is not None:
        tags.append(("p", ell + 1))
    return tags


def reduce_poscnf_to_logtw_is(instance: TreeChainedCnf) -> ReductionArtifact:
    """Variable gadgets of matched bit edges plus double-path clause gadgets,
    with the target weight counting one vertex per gadget edge and padded
    clause length + 2 per clause; independent set of that size exists iff
    the source is satisfiable.

    The source is normalized first (one clause per cell holding exactly its
    variables), then clause lengths are padded to even with dummy literals
    that get path positions but no literal vertex."""
    if instance.variant != "positive-partitioned":
        raise DomainError("poscnf-logtwis needs a positive-partitioned instance")

    cell_keys = sorted(instance.partition)
    cell_vars = {key: sorted(instance.partition[key]) for key in cell_keys}
    cell_of = instance.cell_of_var
    bits_of = {key: max(len(cell_vars[key]) - 1, 0).bit_length()
               for key in cell_keys}

    # normalization precedes parity padding
    clauses = [tuple(c) for c in instance.clauses]
    clauses += [tuple(cell_vars[key]) for key in cell_keys]
    padded: list[list[int | None]] = []
    for clause in clauses:
        lits: list[int | None] = list(clause)
        if len(lits) % 2 == 1:
            lits.append(None)
        padded.append(lits)

    nxt = 1
    edges: set[tuple[int, int]] = set()

    def new_vertex() -> int:
        nonlocal nxt
        v = nxt
        nxt += 1
        return v

    hat: dict[tuple[tuple[int, int], int, int], int] = {}  # (cell, alpha, bit)
    for key in cell_keys:
        for alpha in range(1, bits_of[key] + 1):
            h0 = new_vertex()
            h1 = new_vertex()
            hat[(key, alpha, 0)] = h0
            hat[(key, alpha, 1)] = h1
            edges.add(normalize_edge(h0, h1))

    def var_bits(v: int) -> list[int]:
        """The bits of v's index in its cell, most significant first."""
        key = cell_of(v)
        index = cell_vars[key].index(v)
        return [index >> s & 1 for s in reversed(range(bits_of[key]))]

    gadget: list[dict] = []
    for lits in padded:
        ell = len(lits)
        p = {t: new_vertex() for t in range(0, ell + 2)}
        pp = {t: new_vertex() for t in range(1, ell + 1)}
        lit_vertex: dict[int, int] = {}
        for t in range(0, ell + 1):
            edges.add(normalize_edge(p[t], p[t + 1]))
        for t in range(1, ell):
            edges.add(normalize_edge(pp[t], pp[t + 1]))
        for t in range(1, ell + 1):
            edges.add(normalize_edge(p[t], pp[t]))
        for t, lit in enumerate(lits, start=1):
            if lit is None:
                continue
            v = new_vertex()
            lit_vertex[t] = v
            edges.add(normalize_edge(v, p[t]))
            edges.add(normalize_edge(v, pp[t]))
            key = cell_of(lit)
            for alpha, b in enumerate(var_bits(lit), start=1):
                edges.add(normalize_edge(v, hat[(key, alpha, 1 - b)]))
        gadget.append({"lits": lits, "ell": ell, "p": p, "pp": pp,
                       "lit_vertex": lit_vertex})

    n = nxt - 1
    graph = Graph(n=n, edges=frozenset(edges))
    weight = sum(bits_of.values()) + sum(2 + g["ell"] for g in gadget)

    # decomposition: one base bag per structure node with its own and its
    # parent's variable-gadget vertices; each clause gadget is a chain of
    # window bags (extended by the base bag) under the deeper scope node
    tree = instance.tree
    gvs: dict[int, set[int]] = {i: set() for i in tree.nodes()}
    for key in cell_keys:
        for alpha in range(1, bits_of[key] + 1):
            gvs[key[0]].update((hat[(key, alpha, 0)], hat[(key, alpha, 1)]))
    base = _parent_closed_bags(tree, gvs)
    extra = []
    for g in gadget:
        host = _host_node(tree, {cell_of(lit)[0] for lit in g["lits"] if lit is not None})
        parent = host
        for t in range(0, g["ell"] + 1):
            window = {g["p"][t], g["p"][t + 1]}
            for tt in (t, t + 1):
                if tt in g["pp"]:
                    window.add(g["pp"][tt])
                if tt in g["lit_vertex"]:
                    window.add(g["lit_vertex"][tt])
            extra.append((parent, frozenset(window | base[host])))
            parent = tree.n + len(extra)  # the window just added
    witness = _grow_decomposition(tree, base, extra)
    target = LogTwGraphInstance(graph=graph, decomposition=witness, target_weight=weight,
                                k=log_width_parameter(witness.width(), n), problem="is")

    def forward(true_vars: frozenset[int]) -> frozenset[int]:
        chosen: set[int] = set()
        for key in cell_keys:
            picked = sorted(true_vars & instance.partition[key])
            for alpha, b in enumerate(var_bits(picked[0]), start=1):
                chosen.add(hat[(key, alpha, b)])
        for g in gadget:
            pos = None
            for t, lit in enumerate(g["lits"], start=1):
                if lit is not None and lit in true_vars:
                    pos = t
                    break
            if pos is not None:
                chosen.add(g["lit_vertex"][pos])
            for kind, t in _clause_completion(g["ell"], pos):
                chosen.add(g["p"][t] if kind == "p" else g["pp"][t])
        return frozenset(chosen)

    def backward(solution: frozenset[int]) -> frozenset[int]:
        true_vars = set()
        for key in cell_keys:
            t = bits_of[key]
            index = sum(1 << (t - alpha) for alpha in range(1, t + 1)
                        if hat[(key, alpha, 1)] in solution)
            if index < len(cell_vars[key]):
                true_vars.add(cell_vars[key][index])
        return frozenset(true_vars)

    records = lambda: (
        (instance.var_names[v],
         tuple(f"v{hat[(cell_of(v), alpha, b)]}"
               for alpha, b in enumerate(var_bits(v), start=1)))
        for v in instance.all_variables())
    return ReductionArtifact(
        target=target, lift=LiftMap(records=records, forward=forward, backward=backward))


# =========================================== covering and domination chain


def reduce_is_to_vc(instance: LogTwGraphInstance) -> ReductionArtifact:
    """Same graph and witness; a vertex cover of size n - W exists iff an
    independent set of size W does.  Lift is set complement."""
    if instance.problem != "is":
        raise DomainError("is-vc needs an independent-set instance")
    target = LogTwGraphInstance(
        graph=instance.graph, decomposition=instance.decomposition,
        target_weight=instance.graph.n - instance.target_weight,
        k=instance.k, problem="vc")
    allv = frozenset(instance.graph.vertices())
    complement = lambda s: frozenset(allv - s)
    records = lambda: (("complement", ("complement",)),)
    return ReductionArtifact(
        target=target, lift=LiftMap(records=records, forward=complement, backward=complement))


def reduce_vc_to_rbds(instance: LogTwGraphInstance) -> ReductionArtifact:
    """Subdivide every edge: original vertices blue, subdivision vertices
    red; a set of K blue vertices dominating all red vertices is exactly a
    vertex cover of size K."""
    if instance.problem != "vc":
        raise DomainError("vc-rbds needs a vertex-cover instance")
    n = instance.graph.n
    sub_vertex = {}
    edges = set()
    labels = {v: "blue" for v in instance.graph.vertices()}
    nxt = n + 1
    for e in sorted(instance.graph.edges):
        u, v = e
        sub_vertex[e] = nxt
        labels[nxt] = "red"
        edges.add(normalize_edge(u, nxt))
        edges.add(normalize_edge(v, nxt))
        nxt += 1
    graph = Graph(n=nxt - 1, edges=frozenset(edges), labels=labels)

    dec = instance.decomposition
    occ = dec.occurrences
    # each red vertex hangs under the least tree node whose bag holds both ends
    extra = [(min(occ[u] & occ[v]), frozenset({u, v, r}))
             for (u, v), r in sub_vertex.items()]
    witness = _grow_decomposition(dec.tree, dec.bags, extra)
    k_out = log_width_parameter(witness.width(), graph.n)
    target = LogTwGraphInstance(graph=graph, decomposition=witness,
                                target_weight=instance.target_weight,
                                k=k_out, problem="rbds")
    records = lambda: ((f"e:{u}:{v}", (f"v{r}",)) for (u, v), r in sorted(sub_vertex.items()))
    return ReductionArtifact(
        target=target, lift=LiftMap(records=records, forward=frozenset, backward=frozenset))


def reduce_rbds_to_ds(instance: LogTwGraphInstance) -> ReductionArtifact:
    """Attach x1 adjacent to x0 and to all blue vertices; the minimum
    dominating set of the new graph is exactly one larger than the minimum
    red-blue dominating set."""
    if instance.problem != "rbds":
        raise DomainError("rbds-ds needs a red-blue dominating set instance")
    n = instance.graph.n
    x0, x1 = n + 1, n + 2
    edges = set(instance.graph.edges)
    edges.add(normalize_edge(x0, x1))
    blues = instance.blue_vertices()
    for b in blues:
        edges.add(normalize_edge(b, x1))
    labels = dict(instance.graph.labels)
    graph = Graph(n=n + 2, edges=frozenset(edges), labels=labels)

    dec = instance.decomposition
    witness = _grow_decomposition(
        dec.tree, {i: b | {x1} for i, b in dec.bags.items()},
        [(dec.tree.root, frozenset({x0, x1}))])
    k_out = log_width_parameter(witness.width(), graph.n)
    target = LogTwGraphInstance(graph=graph, decomposition=witness,
                                target_weight=instance.target_weight + 1,
                                k=k_out, problem="ds")

    def forward(s: frozenset[int]) -> frozenset[int]:
        return frozenset(s | {x1})

    def backward(s: frozenset[int]) -> frozenset[int]:
        # the blue vertices of s, then for each red vertex of s in turn that
        # none of those dominates, its least blue neighbour
        nbr, blue = instance.graph.neighbour_masks, sum(1 << b for b in blues)
        out = sum(1 << v for v in s if blue >> v & 1)
        for r in sorted(v for v in s if instance.graph.labels.get(v) == "red"):
            ends = nbr[r] & blue
            if not out & ends:
                out |= ends & -ends
        return frozenset(b for b in blues if out >> b & 1)

    records = lambda: (("x0", (f"v{x0}",)), ("x1", (f"v{x1}",)))
    return ReductionArtifact(
        target=target, lift=LiftMap(records=records, forward=forward, backward=backward))


REDUCTIONS = {
    "atm-tcmc": reduce_atm_to_tcmc,
    "tcmc-tcmis": complement_tcmc_to_tcmis,
    "tcmis-listcol": reduce_tcmis_to_listcoloring,
    "listcol-precol": reduce_listcoloring_to_precoloring,
    "tcmis-negcnf": reduce_tcmis_to_negcnf,
    "negcnf-poscnf": reduce_negcnf_to_poscnf,
    "part-gencnf": reduce_partitioned_to_general_cnf,
    "poscnf-logtwis": reduce_poscnf_to_logtw_is,
    "is-vc": reduce_is_to_vc,
    "vc-rbds": reduce_vc_to_rbds,
    "rbds-ds": reduce_rbds_to_ds,
}

REDUCTION_NAMES = tuple(REDUCTIONS)
