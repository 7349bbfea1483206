"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with `pytest tests/test_acceptance.py -s`
to see the lines on success."""

import pathlib
import time

import pytest

from conftest import make_machine
from xalpwb.corpus import CORPUS_BUDGET, load_corpus
from xalpwb.instances import Graph, OrderedTree, validate_decomposition
from xalpwb.machines import AtmInstance, shaped_run
from xalpwb.oracles import (
    independent_sets,
    optimum_subset,
    solve_cnf_bruteforce,
    solve_is_treedp,
    solve_tcmc_bruteforce,
)
from xalpwb.reductions import (
    REDUCTION_NAMES,
    reduce_atm_to_tcmc,
    reduce_poscnf_to_logtw_is,
    reduce_rbds_to_ds,
    reduce_tcmis_to_listcoloring,
)
from xalpwb.verify import (
    RATIO_C,
    generate_instance,
    verify_machine_equivalences,
    verify_reduction,
)

TRIALS = 50
BIGCAP = 1 << 44


def report(criterion: str, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_reduction_soundness_suite():
    t0 = time.time()
    summaries = []
    all_ok = True
    for name in REDUCTION_NAMES:
        rep = verify_reduction(name, trials=TRIALS, seed=1)
        ok = not rep.disagreements and len(rep.skips) <= 0.2 * TRIALS
        all_ok = all_ok and ok
        summaries.append(f"{name}:{rep.agreements}/{TRIALS}"
                         + (f"(skip {len(rep.skips)})" if rep.skips else ""))
    elapsed = time.time() - t0
    all_ok = all_ok and elapsed <= 300
    report("1 (reduction soundness)", all_ok,
           f"{len(REDUCTION_NAMES)} reductions x {TRIALS} trials in "
           f"{elapsed:.1f}s; " + " ".join(summaries))


def test_criterion_2_listcol_witness_bound():
    exact_with_k2 = 0
    violations = 0
    for t in range(TRIALS):
        inst = generate_instance("tcmis", {"k": 2}, seed=300 + t)
        art = reduce_tcmis_to_listcoloring(inst)
        check = validate_decomposition(art.target.graph, art.witness)
        bound = 2 * inst.k - 1
        if not check.ok or check.width > bound:
            violations += 1
        elif inst.k >= 2 and check.width == bound:
            exact_with_k2 += 1
    report("2 (list-coloring witness width <= 2k-1)",
           violations == 0 and exact_with_k2 >= 1,
           f"{TRIALS} trials, 0 expected violations (got {violations}), "
           f"exact equality with k>=2 on {exact_with_k2} trials")


def _isolated_clause_gadget(ell):
    edges = set()
    nxt = 1
    p, pp, v = {}, {}, {}
    for t in range(0, ell + 2):
        p[t] = nxt
        nxt += 1
    for t in range(1, ell + 1):
        pp[t] = nxt
        nxt += 1
    for t in range(1, ell + 1):
        v[t] = nxt
        nxt += 1
    add = lambda a, b: edges.add((min(a, b), max(a, b)))
    for t in range(0, ell + 1):
        add(p[t], p[t + 1])
    for t in range(1, ell):
        add(pp[t], pp[t + 1])
    for t in range(1, ell + 1):
        add(p[t], pp[t])
        add(v[t], p[t])
        add(v[t], pp[t])
    return Graph(n=nxt - 1, edges=frozenset(edges)), frozenset(v.values())


def test_criterion_3_clause_gadget_law():
    results = []
    ok = True
    for ell in (2, 4, 6):
        graph, lits = _isolated_clause_gadget(ell)
        best_with = 0
        all_max_have_lit = True
        for mask in independent_sets(graph):
            s = frozenset(v for v in graph.vertices() if mask >> v & 1)
            if s & lits:
                best_with = max(best_with, len(s))
            if len(s) >= ell + 2 and not (s & lits):
                all_max_have_lit = False
        good = best_with == ell + 2 and all_max_have_lit
        ok = ok and good
        results.append(f"l={ell}: max-with-literal={best_with}")
    report("3 (clause gadget law)", ok,
           "size l+2 iff a literal vertex is chosen; " + "; ".join(results))


def test_criterion_4_size_target_law():
    agree = 0
    for t in range(25):
        inst = generate_instance("poscnf", None, seed=400 + t)
        art = reduce_poscnf_to_logtw_is(inst)
        sat, _ = solve_cnf_bruteforce(inst)
        met, _ = solve_is_treedp(art.target)
        if sat == met:
            agree += 1
    report("4 (size-target law)", agree == 25,
           f"W = sum(t_ij) + sum(2+l_i) met iff satisfiable on {agree}/25 trials")


def test_criterion_5_corollary_chain_laws():
    is_vc_ok = 0
    for t in range(TRIALS):
        inst = generate_instance("logtw-is", None, seed=500 + t)
        best_is, _ = optimum_subset(inst.graph, "is")
        best_vc, _ = optimum_subset(inst.graph, "vc")
        if best_is == inst.graph.n - best_vc:
            is_vc_ok += 1
    ds_ok = 0
    for t in range(TRIALS):
        rbds = generate_instance("logtw-rbds", None, seed=550 + t)
        art = reduce_rbds_to_ds(rbds)
        best_rbds, _ = optimum_subset(rbds.graph, "rbds", cap=1 << 22)
        best_ds, _ = optimum_subset(art.target.graph, "ds", cap=1 << 22)
        if best_ds == best_rbds + 1:
            ds_ok += 1
    report("5 (corollary chain laws)",
           is_vc_ok == TRIALS and ds_ok == TRIALS,
           f"max IS = n - min VC on {is_vc_ok}/{TRIALS}; "
           f"min DS = min RBDS + 1 on {ds_ok}/{TRIALS}")


def test_criterion_6_machine_equivalence_suite():
    corpus = load_corpus()
    required = {"accept_now", "reject_now", "push_pop", "universal_pair",
                "palindrome"}
    ok = len(corpus) >= 10 and required <= set(corpus)
    rep = verify_machine_equivalences(corpus, CORPUS_BUDGET, max_len=6)
    ok = ok and rep.ok
    report("6 (machine equivalence suite)", ok,
           f"{len(corpus)} machines, {rep.trials} machine/input pairs, "
           f"{len(rep.disagreements)} failing (evaluators disagree, tree-size "
           f"ratio C={RATIO_C} or co-nondet bound 2*log2({CORPUS_BUDGET.tree_size})+4 "
           "violated)"
           + "".join(f"; {detail}" for _, detail in rep.disagreements[:3]))


def _hand_written_cases():
    """Five machines with shapes of <= 5 nodes, beta <= 2, blocks <= 2, in
    accepting and rejecting combinations."""
    accept_now = make_machine(["a"], "a", ["a"], {"a": "det"}, 1, "01", {})
    one_step = make_machine(
        ["s", "t"], "s", ["t"], {"s": "exist", "t": "det"}, 2, "01",
        {("s", "0", "0"): [("t", "0", 0, 0, None)]})
    univ_writer = make_machine(
        ["u", "l", "r", "acc"], "u", ["acc"],
        {"u": "univ", "l": "exist", "r": "exist", "acc": "det"}, 2, "01",
        {("u", "#", "0"): [("l", "1", 0, 0, None), ("r", "0", 1, 0, None)],
         ("l", "#", "1"): [("acc", "1", 0, 0, None)],
         ("r", "#", "0"): [("acc", "1", 0, 0, None)]})
    head_mover = make_machine(
        ["w", "m", "c", "acc"], "w", ["acc"],
        {"w": "exist", "m": "exist", "c": "exist", "acc": "det"}, 2, "01",
        {("w", "#", "0"): [("m", "1", 1, 0, None)],
         ("m", "#", "0"): [("c", "1", -1, 0, None)],
         ("c", "#", "1"): [("acc", "1", 0, 0, None)]})
    scanner = make_machine(
        ["s", "acc"], "s", ["acc"], {"s": "exist", "acc": "det"}, 2, "01",
        {("s", "0", "0"): [("s", "0", 0, 1, None)],
         ("s", "1", "0"): [("acc", "0", 0, 0, None)]})
    single = OrderedTree(n=1)
    path2 = OrderedTree(n=2, children={1: (2,)})
    path3 = OrderedTree(n=3, children={1: (2,), 2: (3,)})
    path4 = OrderedTree(n=4, children={1: (2,), 2: (3,), 3: (4,)})
    full5 = OrderedTree(n=5, children={1: (2, 3), 2: (4,), 3: (5,)})
    return [
        ("accept_now", accept_now, "", single, 1, 1),
        ("accept_now/path", accept_now, "", path2, 1, 1),
        ("one_step", one_step, "0", path2, 2, 1),
        ("one_step/mismatch", one_step, "0", single, 2, 1),
        ("univ_writer", univ_writer, "", full5, 2, 1),
        ("head_mover", head_mover, "", path4, 2, 1),
        ("head_mover/beta2", head_mover, "", path4, 1, 2),
        ("scanner/01", scanner, "01", path3, 2, 1),
        ("scanner/00", scanner, "00", path3, 2, 1),
    ]


def test_criterion_7_atm_end_to_end():
    agree = total = 0
    machines = set()
    for tag, machine, x, shape, blocks, beta in _hand_written_cases():
        assert shape.n <= 5 and beta <= 2 and blocks <= 2
        machines.add(tag.split("/")[0])
        art = reduce_atm_to_tcmc(AtmInstance(machine, x, shape, blocks, beta))
        brute, _ = solve_tcmc_bruteforce(art.target, "clique", cap=BIGCAP)
        shaped = shaped_run(machine, x, shape) is not None
        total += 1
        if brute == shaped:
            agree += 1
    report("7 (shaped acceptance end-to-end)",
           agree == total and len(machines) >= 5,
           f"{len(machines)} hand-written machines, {agree}/{total} "
           f"brute-force vs shaped-run agreements")


def test_criterion_8_fault_detection(tmp_path, monkeypatch):
    from xalpwb.cli import main
    from xalpwb.verify import replay_counterexample

    monkeypatch.chdir(tmp_path)
    code = main(["verify", "--chain",
                 "tcmis-negcnf,negcnf-poscnf!faulty,part-gencnf",
                 "--trials", "20", "--seed", "5", "--report", "rep.txt"])
    cex_files = sorted(pathlib.Path(".").glob("rep.txt.cex*.txt"))
    replayed = bool(cex_files) and replay_counterexample(cex_files[0].read_text())
    report("8 (fault detection)", code == 1 and replayed,
           f"fault-injected chain exits {code} with "
           f"{len(cex_files)} replayable counterexample(s)")
