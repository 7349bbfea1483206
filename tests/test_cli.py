"""CLI exit-status contract, file round trips, and report output."""

import pathlib
import re

import pytest

from conftest import deep_path_tcmc, ds_chain_target, path_coloring, run_cli
from xalpwb import oracles
from xalpwb.cli import main
from xalpwb.formats import parse_instance, serialize_instance
from xalpwb.reductions import reduce_rbds_to_ds
from xalpwb.verify import generate_instance, replay_counterexample, verify_reduction


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write_instance(path, family, seed=0, profile=None):
    inst = generate_instance(family, profile, seed=seed)
    pathlib.Path(path).write_text(serialize_instance(inst))
    return inst


def test_reduce_round_trip(workdir, capsys):
    _write_instance("src.tcmc", "tcmis", seed=6)
    code = main(["reduce", "--name", "tcmis-listcol", "-i", "src.tcmc",
                 "-o", "out.lc", "--lift", "lift.txt", "--witness", "wit.dec"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("k=2 k'=")
    assert "bound=k'<=2k-1" in out
    target = parse_instance("listcol", pathlib.Path("out.lc").read_text())
    assert target.palette
    parse_instance("decomposition", pathlib.Path("wit.dec").read_text())
    assert pathlib.Path("lift.txt").read_text().startswith("lift ")


def _parameters(out: str) -> tuple[int, int]:
    k, k_out = re.match(r"k=(\d+) k'=(\d+) ", out).groups()
    return int(k), int(k_out)


def test_reduce_listcol_precol_grows_the_decomposition_in_its_file(workdir, capsys):
    _write_instance("src.tcmc", "tcmis", seed=6)
    assert main(["reduce", "--name", "tcmis-listcol", "-i", "src.tcmc",
                 "-o", "mid.lc", "--witness", "mid.dec"]) == 0
    _, width = _parameters(capsys.readouterr().out)
    assert main(["reduce", "--name", "listcol-precol", "-i", "mid.lc",
                 "-o", "out.lc", "--witness", "out.dec"]) == 0
    k, k_out = _parameters(capsys.readouterr().out)
    assert k == width > 0 and width <= k_out <= width + 1
    target = parse_instance("listcol", pathlib.Path("out.lc").read_text())
    assert target.decomposition == parse_instance(
        "decomposition", pathlib.Path("out.dec").read_text())
    assert target.width == k_out


def test_reduce_listcol_with_a_bag_missing_a_vertex_exits_2(workdir, capsys):
    pathlib.Path("bad.lc").write_text(
        "xalpwb 1\nlistcol\np graph 2 1\ne 1 2\npalette 1 2\n"
        "list 1 1 2\nlist 2 1 2\nt 1\nbag 1 1\n")
    assert main(["reduce", "--name", "listcol-precol", "-i", "bad.lc", "-o", "out.lc"]) == 2
    assert "invalid decomposition: vertex uncovered: 2" in capsys.readouterr().err


def test_reduce_unknown_name_exits_2(workdir):
    pathlib.Path("x").write_text("")
    assert main(["reduce", "--name", "bogus", "-i", "x", "-o", "y"]) == 2


def test_reduce_atm_needs_blocks(workdir, corpus):
    # a bare machine file has no 'atm <blocks> <beta>' record
    pathlib.Path("m.mach").write_text(serialize_instance(corpus["accept_now"]))
    assert main(["reduce", "--name", "atm-tcmc", "-i", "m.mach", "-o", "t.tcmc"]) == 2


def test_solve_is_on_path(workdir, capsys):
    text = ("xalpwb 1\nlogtw 2 2\nproblem is\n"
            "p graph 3 2\ne 1 2\ne 2 3\n"
            "t 1\nbag 1 1 2 3\n")
    pathlib.Path("p3.logtw").write_text(text)
    assert main(["solve", "--problem", "is", "-i", "p3.logtw",
                 "-o", "sol.txt"]) == 0
    assert capsys.readouterr().out.strip() == "YES"
    assert pathlib.Path("sol.txt").read_text().startswith("sol ")


def test_solve_treedp_matches_brute(workdir, capsys):
    _write_instance("g.logtw", "logtw-is", seed=3)
    assert main(["solve", "--problem", "is", "-i", "g.logtw", "--solver", "brute"]) == 0
    brute = capsys.readouterr().out.strip()
    assert main(["solve", "--problem", "is", "-i", "g.logtw",
                 "--solver", "treedp"]) == 0
    assert capsys.readouterr().out.strip() == brute


def test_solve_ds_treedp_matches_brute(workdir, capsys):
    answers = set()
    for seed in range(6):
        target = reduce_rbds_to_ds(generate_instance("logtw-rbds", None, seed=seed)).target
        pathlib.Path("d.logtw").write_text(serialize_instance(target))
        assert main(["solve", "--problem", "ds", "-i", "d.logtw", "--solver", "brute"]) == 0
        brute = capsys.readouterr().out.strip()
        assert main(["solve", "--problem", "ds", "-i", "d.logtw",
                     "--solver", "treedp"]) == 0
        assert capsys.readouterr().out.strip() == brute, seed
        answers.add(brute)
    assert answers == {"YES", "NO"}


@pytest.mark.parametrize("problem", ["is", "vc", "ds", "rbds"])
def test_solve_treedp_honours_threshold_and_writes_witness(workdir, capsys,
                                                           monkeypatch, problem):
    family = "logtw-rbds" if problem == "rbds" else "logtw-vc"
    inst = _write_instance("g.logtw", family, seed=4)
    best, _ = oracles.optimum_subset(inst.graph, problem)
    missed = best + 1 if problem == "is" else best - 1

    def no_enumeration(*args, **kwargs):
        raise AssertionError("subset enumeration called")

    monkeypatch.setattr(oracles, "optimum_subset", no_enumeration)
    solve = ["solve", "--problem", problem, "-i", "g.logtw", "--solver", "treedp"]
    assert main(solve + [f"--threshold={missed}", "-o", "missed.txt"]) == 0
    assert capsys.readouterr().out.strip() == "NO"
    assert not pathlib.Path("missed.txt").exists()
    assert main(solve + [f"--threshold={best}", "-o", "sol.txt"]) == 0
    assert capsys.readouterr().out.strip() == "YES"
    head, *members = pathlib.Path("sol.txt").read_text().split()
    witness = frozenset(int(v) for v in members)
    assert head == "sol" and len(witness) == best
    assert oracles.check_subset_solution(inst.graph, problem, witness)


def test_solve_traversal_writes_witness(workdir, capsys):
    inst = _write_instance("t.tcmc", "tcmc", seed=0)
    expected, _ = oracles.solve_tcmc_bruteforce(inst, "clique")
    assert expected  # the witness path needs a solvable instance
    assert main(["solve", "--problem", "tcmc", "-i", "t.tcmc",
                 "--solver", "traversal", "-o", "sol.txt"]) == 0
    assert capsys.readouterr().out.strip() == "YES"
    text = pathlib.Path("sol.txt").read_text()
    choice = {tuple(int(c) for c in key.split(",")): int(v)
              for key, v in (item.split("=") for item in text.split()[1:])}
    assert text.startswith("sol ") and oracles.check_tcmc_solution(inst, "clique", choice)


def test_solve_tcmc_on_a_deep_path(workdir, capsys):
    n = 1200
    pathlib.Path("deep.tcmc").write_text(serialize_instance(deep_path_tcmc(n)))
    expected = "sol " + " ".join(f"{i},1={i}" for i in range(1, n + 1)) + "\n"
    for solver in ("brute", "traversal"):
        assert main(["solve", "--problem", "tcmc", "-i", "deep.tcmc",
                     "--solver", solver, "-o", "sol.txt"]) == 0
        assert capsys.readouterr().out.strip() == "YES"
        assert pathlib.Path("sol.txt").read_text() == expected


@pytest.mark.parametrize("problem, family, flags, accepted", [
    ("cnf", "poscnf", ["--solver", "treedp"], "brute"),
    ("is", "logtw-is", ["--solver", "traversal"], "brute or treedp"),
    ("tcmc", "tcmc", ["--solver", "treedp"], "brute or traversal"),
    ("cnf", "poscnf", ["--threshold", "3"], "is, vc, rbds, ds"),
])
def test_solve_rejects_flags_the_family_does_not_take(workdir, capsys, problem, family,
                                                      flags, accepted):
    _write_instance("inst.txt", family, seed=1)
    assert main(["solve", "--problem", problem, "-i", "inst.txt", "-o", "s"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and accepted in captured.err
    assert not pathlib.Path("s").exists()


def test_solve_has_no_mode_option_and_lists_the_problems(workdir, capsys):
    _write_instance("t.tcmc", "tcmc", seed=0)
    assert main(["solve", "--problem", "tcmis", "-i", "t.tcmc", "--mode", "clique"]) == 2
    capsys.readouterr()
    assert main(["solve", "--help"]) == 0
    assert "{tcmc,tcmis,listcol,cnf,is,vc,rbds,ds}" in capsys.readouterr().out


def test_solve_listcol_conflict_no(workdir, capsys):
    text = ("xalpwb 1\nlistcol\np graph 2 1\ne 1 2\n"
            "palette 1\nlist 1 1\nlist 2 1\n")
    pathlib.Path("c.lc").write_text(text)
    assert main(["solve", "--problem", "listcol", "-i", "c.lc"]) == 0
    assert capsys.readouterr().out.strip() == "NO"


@pytest.mark.parametrize("clash, verdict", [(False, "YES"), (True, "NO")])
def test_solve_listcol_on_a_deep_path(workdir, capsys, clash, verdict):
    pathlib.Path("p.lc").write_text(serialize_instance(path_coloring(1500, clash)))
    assert main(["solve", "--problem", "listcol", "-i", "p.lc"]) == 0
    assert capsys.readouterr() == (verdict + "\n", "")


@pytest.mark.parametrize("problem, line", [("ds", "dp width 3 (witness 5)\n"),
                                           ("is", "dp width 5 (witness 5)\n")])
def test_solve_treedp_reports_the_width_it_solves_on(workdir, capsys, problem, line):
    target = ds_chain_target(0)
    pathlib.Path("d.logtw").write_text(serialize_instance(target))
    best, _ = oracles.optimum_treedp(target, problem)
    verdict = "YES" if oracles.meets_target(problem, best, target.target_weight) else "NO"
    assert main(["solve", "--problem", problem, "-i", "d.logtw", "--solver", "treedp"]) == 0
    assert capsys.readouterr() == (verdict + "\n", line)


@pytest.mark.parametrize("problem", ["ds", "rbds"])
def test_solve_treedp_builds_the_elimination_once(workdir, monkeypatch, problem):
    # the width line and the DP share one min-degree elimination
    real, built = oracles.min_degree_decomposition, []
    monkeypatch.setattr(oracles, "min_degree_decomposition",
                        lambda graph: built.append(graph) or real(graph))
    target = ds_chain_target(0) if problem == "ds" else generate_instance("logtw-rbds")
    pathlib.Path("d.logtw").write_text(serialize_instance(target))
    assert main(["solve", "--problem", problem, "-i", "d.logtw", "--solver", "treedp"]) == 0
    assert len(built) == 1


def test_solve_treedp_refutes_ds_by_its_packing_before_the_dp(workdir, capsys, monkeypatch):
    # seed 5's end has a dominator packing of 15 against a threshold of 13:
    # the treedp solver answers NO from the packing, as verify's decide does
    target = ds_chain_target(5)
    assert oracles.dominator_packing(target.graph, "ds") > target.target_weight

    def dp(*args, **kwargs):
        raise AssertionError("optimum_treedp called")

    pathlib.Path("d.logtw").write_text(serialize_instance(target))
    monkeypatch.setattr(oracles, "optimum_treedp", dp)
    assert main(["solve", "--problem", "ds", "-i", "d.logtw", "--solver", "treedp"]) == 0
    assert capsys.readouterr() == ("NO\n", "dp width 3 (witness 5)\n")


def test_solve_cap_exit_3(workdir, capsys):
    _write_instance("g.logtw", "logtw-is", seed=3)
    assert main(["solve", "--problem", "is", "-i", "g.logtw",
                 "--cap", "2"]) == 3


def _path_logtw(n: int, problem: str, weight: int) -> str:
    """A valid n-vertex path as a logtw text of width 1: bag i holds i and
    i + 1, and bag i + 1 hangs under bag i."""
    return "".join(
        ["xalpwb 1\n", f"logtw 1 {weight}\n", f"problem {problem}\n", f"p graph {n} {n - 1}\n",
         *(f"e {v} {v + 1}\n" for v in range(1, n)), f"t {n - 1}\n",
         *(f"a {i} {i + 1} 1\n" for i in range(1, n - 1)),
         *(f"bag {i} {i} {i + 1}\n" for i in range(1, n))])


def test_solve_past_a_cap_too_long_to_print_exits_3(workdir, capsys):
    # a valid 15,000-vertex path: its subset space 2^15000 has no decimal text
    n = 15000
    pathlib.Path("path.logtw").write_text(_path_logtw(n, "ds", 1))
    assert main(["solve", "--problem", "ds", "--solver", "brute", "-i", "path.logtw",
                 "--cap", "10"]) == 3
    assert capsys.readouterr().err.endswith("subset space of 15001 bits > cap 10\n")


@pytest.mark.parametrize("weight, verdict", [(20, "YES"), (19, "NO")])
def test_solve_defaults_to_the_family_decide(workdir, capsys, weight, verdict):
    # 2^60 subsets are past the brute force's cap, so only the DP, the ds
    # family's first solver, answers; a 60-vertex path needs 20 dominators
    pathlib.Path("path.logtw").write_text(_path_logtw(60, "ds", weight))
    assert main(["solve", "--problem", "ds", "-i", "path.logtw"]) == 0
    assert capsys.readouterr() == (f"{verdict}\n", "dp width 1 (witness 1)\n")
    assert main(["solve", "--problem", "ds", "--solver", "brute", "-i", "path.logtw"]) == 3


@pytest.mark.parametrize("problem,text,message", [
    ("tcmc", "tcmc 1\np graph 1 0\nt 1000000000\nclass 1 1 1",
     "line 4: a tree of 1000000000 nodes needs 999999999 'a' records, found 0"),
    ("is", "logtw 1 1\nproblem is\np graph 1000000000 0\nt 1\nbag 1 1",
     "invalid decomposition: vertex uncovered: 2"),
])
def test_a_declared_size_the_text_does_not_witness_exits_2(workdir, capsys, problem, text,
                                                            message):
    pathlib.Path("big.txt").write_text(f"xalpwb 1\n{text}\n")
    assert main(["solve", "--problem", problem, "-i", "big.txt"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_list_coloring_declaring_more_vertices_than_lists_exits_2(workdir):
    # the lists are compared with the vertices by count and range, so the
    # declared size allocates nothing
    pathlib.Path("big.lc").write_text(
        "xalpwb 1\nlistcol\np graph 1000000000 0\npalette 1\nlist 1 1\n")
    done = run_cli("solve", "--problem", "listcol", "-i", "big.lc", timeout=30)
    assert (done.returncode, done.stderr) == (2, "error: every vertex needs a color list\n")


@pytest.mark.parametrize("value", ["1", "abc"])
def test_the_environment_sets_no_cap(workdir, monkeypatch, value):
    _write_instance("g.logtw", "logtw-is", seed=3)
    unset = verify_reduction("is-vc", 3, 0).serialize()
    monkeypatch.setenv("XALPWB_CAP", value)
    assert verify_reduction("is-vc", 3, 0).serialize() == unset
    assert main(["solve", "--problem", "is", "-i", "g.logtw"]) == 0


@pytest.mark.parametrize("command", [["verify", "--reduction", "is-vc", "--trials", "2"],
                                     ["solve", "--problem", "is", "-i", "g.logtw"]])
@pytest.mark.parametrize("value", ["-1", "abc"])
def test_cap_flag_takes_only_integers_at_least_0(workdir, capsys, command, value):
    _write_instance("g.logtw", "logtw-is", seed=3)
    assert main([*command, "--cap", value]) == 2
    assert f"--cap: must be an integer >= 0, not {value!r}" in capsys.readouterr().err


def test_verify_reduction_exit_0(workdir, capsys):
    assert main(["verify", "--reduction", "is-vc", "--trials", "15",
                 "--seed", "7", "--report", "rep.txt"]) == 0
    text = pathlib.Path("rep.txt").read_text()
    assert text.splitlines()[0].startswith("report is-vc")


def test_verify_zero_trials_usage_error(workdir):
    assert main(["verify", "--reduction", "is-vc", "--trials", "0"]) == 2


def test_verify_requires_one_mode(workdir):
    assert main(["verify", "--trials", "5"]) == 2


def test_verify_fault_chain_exit_1_with_replayable_counterexample(workdir):
    code = main(["verify", "--chain",
                 "tcmis-negcnf,negcnf-poscnf!faulty,part-gencnf",
                 "--trials", "20", "--seed", "5", "--report", "rep.txt"])
    assert code == 1
    cex_files = sorted(workdir.glob("rep.txt.cex*.txt"))
    assert cex_files
    assert replay_counterexample(cex_files[0].read_text())


def test_verify_names_each_skip_reason_and_the_skip_budget(workdir, capsys):
    assert main(["verify", "--reduction", "is-vc", "--trials", "50", "--seed", "0",
                 "--cap", "8"]) == 1
    lines = capsys.readouterr().out.splitlines()
    skipped = [ln.split()[1] for ln in lines if ln.startswith("trial ") and ln.endswith(" skip")]
    notes = [ln.removeprefix("note trial ").split(" skip: ") for ln in lines
             if ln.startswith("note trial ") and " skip: " in ln]
    assert len(skipped) == 24
    assert [t for t, _ in notes] == skipped
    assert all(reason.endswith("> cap 8") for _, reason in notes)
    assert lines[-1] == ("agreements=26 disagreements=0 skips=24 "
                         "(over the skip budget 10 = 0.2 x 50 trials)")


def test_default_atm_chain_passes_within_the_skip_budget(workdir, capsys):
    # atm-tcmc's empty classes reach the CNF end as unsolvable targets; the
    # skips left are the CNF brute force's cap
    chain = "atm-tcmc,tcmc-tcmis,tcmis-negcnf,negcnf-poscnf,part-gencnf"
    assert main(["verify", "--chain", chain, "--trials", "50", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    notes = [ln for ln in lines if ln.startswith("note trial ")]
    assert len(notes) == 5 and all("assignment space" in ln for ln in notes)
    assert lines[-1] == "agreements=45 disagreements=0 skips=5"


def test_verify_summary_names_no_budget_within_it(workdir, capsys):
    assert main(["verify", "--reduction", "is-vc", "--trials", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "agreements=5 disagreements=0 skips=0")


def test_verify_machines_exit_0(workdir, capsys):
    import xalpwb

    corpus_dir = pathlib.Path(xalpwb.__file__).parent / "corpus"
    assert main(["verify", "--machines", str(corpus_dir),
                 "--max-input-len", "3"]) == 0


def test_verify_missing_machines_dir_exit_2(workdir, capsys):
    assert main(["verify", "--machines", "no-such-dir"]) == 2
    assert "no-such-dir" in capsys.readouterr().err


def test_machine_eval_contract(workdir, corpus, capsys):
    pathlib.Path("acc.mach").write_text(serialize_instance(corpus["accept_now"]))
    for semantics in ("alt", "balanced", "altstack", "stack", "stackalt"):
        assert main(["machine", "eval", "--semantics", semantics,
                     "-m", "acc.mach"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ACCEPT treeNodes=")
    pathlib.Path("pp.mach").write_text(serialize_instance(corpus["push_pop"]))
    assert main(["machine", "eval", "--semantics", "stack", "-m", "pp.mach"]) == 0
    out = capsys.readouterr().out
    assert "stack=1" in out and out.startswith("ACCEPT")
    # alternating semantics on a stack machine is a usage error
    assert main(["machine", "eval", "--semantics", "alt", "-m", "pp.mach"]) == 2


def test_machine_eval_past_the_configuration_cap_exits_3(workdir, corpus, capsys,
                                                         monkeypatch):
    from xalpwb import machines

    pathlib.Path("find.mach").write_text(serialize_instance(corpus["find_one"]))
    monkeypatch.setattr(machines, "MAX_CONFIGS", 6)  # find_one on 000000 reaches 7
    for semantics in ("alt", "balanced", "altstack"):
        assert main(["machine", "eval", "--semantics", semantics, "-m", "find.mach",
                     "-x", "000000"]) == 3
        assert "configuration space too large" in capsys.readouterr().err


def test_python_m_runs_the_cli(workdir):
    machine = pathlib.Path(oracles.__file__).parent / "corpus" / "push_pop.mach"
    done = run_cli("machine", "eval", "--semantics", "stackalt", "-m", str(machine))
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ACCEPT treeNodes=6")


def test_machine_shaped_mismatch_rejects(workdir, corpus, capsys):
    pathlib.Path("uni.mach").write_text(serialize_instance(corpus["universal_pair"]))
    pathlib.Path("shape1.tree").write_text("xalpwb 1\nt 1\n")
    assert main(["machine", "eval", "--semantics", "shaped", "-m", "uni.mach",
                 "--shape", "shape1.tree"]) == 0
    assert capsys.readouterr().out.strip() == "REJECT"
    pathlib.Path("shape3.tree").write_text("xalpwb 1\nt 3\na 1 2 1\na 1 3 2\n")
    assert main(["machine", "eval", "--semantics", "shaped", "-m", "uni.mach",
                 "--shape", "shape3.tree"]) == 0
    assert capsys.readouterr().out.strip() == "ACCEPT"


def test_machine_shaped_accepts_a_3000_node_path(workdir, capsys):
    # an existential state that stays put or accepts: the only accepting run
    # of a path shape stays in e down to the leaf
    from xalpwb.machines import AtmInstance, check_shaped_run, shaped_run

    machine_text = ("xalpwb 1\nm states e acc\ninit e\naccept acc\n"
                    "mode e exist\nmode acc det\nwork 1 0\n"
                    "tr e # 0 -> e 0 0 0 none\ntr e # 0 -> acc 0 0 0 none\n")
    shape_text = "xalpwb 1\nt 3000\n" + "".join(f"a {i} {i + 1} 1\n" for i in range(1, 3000))
    pathlib.Path("e.mach").write_text(machine_text)
    pathlib.Path("path.tree").write_text(shape_text)
    assert main(["machine", "eval", "--semantics", "shaped", "-m", "e.mach",
                 "--shape", "path.tree"]) == 0
    assert capsys.readouterr().out.strip() == "ACCEPT"
    source = AtmInstance(parse_instance("machine", machine_text), "",
                         parse_instance("tree", shape_text), 1, 1)
    run = shaped_run(source.machine, source.x, source.shape)
    assert len(run) == 3000 and run[3000][0] == "acc"
    assert check_shaped_run(source, run)


def test_parse_failure_exit_2(workdir):
    pathlib.Path("junk.tcmc").write_text("not a header\n")
    assert main(["solve", "--problem", "tcmc", "-i", "junk.tcmc"]) == 2


def test_a_single_record_given_twice_exits_2_at_its_line(workdir, capsys):
    # the second header record was once read over the first
    pathlib.Path("twice.lt").write_text(
        "xalpwb 1\nlogtw 1 1\nproblem is\np graph 2 1\ne 1 2\nt 1\nbag 1 1 2\nlogtw 1 2\n")
    assert main(["solve", "--problem", "is", "-i", "twice.lt"]) == 2
    assert capsys.readouterr().err == "error: line 8: duplicate 'logtw' record\n"


def test_reduce_witnessless_reduction_rejects_witness_flag(workdir):
    _write_instance("src.tcmc", "tcmis", seed=6)
    assert main(["reduce", "--name", "tcmc-tcmis", "-i", "src.tcmc",
                 "-o", "out.tcmc", "--witness", "w.dec"]) == 2


def test_reduce_atm_tcmc_via_files(workdir, corpus, capsys):
    from xalpwb.machines import AtmInstance
    from xalpwb.oracles import solve_tcmc_bruteforce

    shape = parse_instance("tree", "xalpwb 1\nt 3\na 1 2 1\na 1 3 2\n")
    source = AtmInstance(corpus["universal_pair"], "0", shape, blocks=1, beta=1)
    pathlib.Path("src.atm").write_text(serialize_instance(source))
    code = main(["reduce", "--name", "atm-tcmc", "-i", "src.atm",
                 "-o", "out.tcmc", "--lift", "lift.txt"])
    assert code == 0
    assert capsys.readouterr().out.startswith("k=1 k'=1 bound=k'=k")
    target = parse_instance("tcmc", pathlib.Path("out.tcmc").read_text())
    ok, _ = solve_tcmc_bruteforce(target, "clique", cap=1 << 30)
    assert ok  # the universal pair accepts a root-plus-two-leaves shape


def test_corpus_files_round_trip(corpus):
    for name, machine in corpus.items():
        assert parse_instance("machine", serialize_instance(machine)) == machine
