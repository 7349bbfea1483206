"""Command-line surface binding all modules for batch use and CI.

Exit codes are a stable contract: 0 success/agreement, 1 verification
disagreement, 2 usage or parse error, 3 oracle resource cap.  The oracle
cap is oracles.DEFAULT_CAP unless solve or verify is given --cap.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import oracles, verify
from .corpus import CORPUS_BUDGET, MAX_INPUT_LEN, load_corpus
from .formats import parse_instance, serialize_instance
from .instances import CapExceeded, ResourceBudget, XalpwbError
from .machines import EVALUATORS, shaped_run
from .reductions import REDUCTION_NAMES, REDUCTIONS

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# --problem name -> its family entry; the three CNF families share the name
# and differ only in how trials draw them
_PROBLEMS = {f.problem: f for f in verify.FAMILIES.values() if f.problem}
_SOLVERS = tuple(sorted({name for f in _PROBLEMS.values() for name in f.solvers}))


class UsageError(XalpwbError):
    pass


def _cap(text: str) -> int:
    """A --cap value: decimal digits, an integer >= 0; else exit 2."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, not {text!r}")
    return int(text)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def cmd_reduce(args) -> int:
    contract = verify.CONTRACTS[args.name]
    instance = parse_instance(verify.FAMILIES[contract.sources[0]].format, _read(args.input))
    artifact = REDUCTIONS[args.name](instance)
    _write(args.output, serialize_instance(artifact.target))
    if args.lift:
        _write(args.lift, artifact.lift.serialize())
    if args.witness:
        if artifact.witness is None:
            raise UsageError(f"this {args.name} target carries no decomposition witness")
        _write(args.witness, serialize_instance(artifact.witness))
    k, k_out = contract.parameters(instance, artifact)
    print(f"k={k} k'={k_out} bound={', '.join(contract.rules)}")
    return EXIT_OK


def _solution_line(solution) -> str:
    """'sol' and the solution's items, each free of whitespace: members of
    a set, or key=value with a tuple key written i,j."""
    if isinstance(solution, dict):
        items = [(",".join(map(str, k)) if isinstance(k, tuple) else str(k)) + f"={v}"
                 for k, v in sorted(solution.items())]
    else:
        items = [str(v) for v in sorted(solution)]
    return "sol " + " ".join(items) + "\n"


def cmd_solve(args) -> int:
    family = _PROBLEMS[args.problem]
    # by default the family's first solver, the one Family.decide and verify run
    solver = args.solver or next(iter(family.solvers))
    solve = family.solvers.get(solver)
    if solve is None:
        raise UsageError(f"--problem {args.problem} takes --solver "
                         + " or ".join(sorted(family.solvers)))
    # only logtw instances carry a size target; a solver reads None as it
    if args.threshold is not None and family.format != "logtw":
        raise UsageError("--threshold applies to --problem "
                         + ", ".join(p for p, f in _PROBLEMS.items() if f.format == "logtw"))
    instance = parse_instance(family.format, _read(args.input))
    if solver == "treedp":
        # built once: the width line reports it, and the DP solves on it
        on = oracles.dp_decomposition(instance, args.problem)
        print(f"dp width {on[1]} (witness {instance.width})", file=sys.stderr)
        solve = functools.partial(solve, on=on)
    ok, sol = solve(instance, args.cap, args.threshold)
    print("YES" if ok else "NO")
    if ok and sol is not None and args.output:
        _write(args.output, _solution_line(sol))
    return EXIT_OK


def cmd_verify(args) -> int:
    chosen = [bool(args.reduction), bool(args.chain), bool(args.machines)]
    if sum(chosen) != 1:
        raise UsageError("pick exactly one of --reduction, --chain, --machines")
    if not args.machines and args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.reduction:
        report = verify.verify_reduction(args.reduction, args.trials, args.seed,
                                         cap=args.cap)
    elif args.chain:
        chain = [nm.strip() for nm in args.chain.split(",") if nm.strip()]
        report = verify.verify_chain(chain, args.trials, args.seed, cap=args.cap)
    else:
        corpus = load_corpus(args.machines)
        budget = ResourceBudget(time_steps=args.budget_steps,
                                tree_size=args.budget_tree)
        report = verify.verify_machine_equivalences(corpus, budget,
                                                    max_len=args.max_input_len)
    text = report.serialize()
    if args.report:
        _write(args.report, text)
        for idx, (i, cex) in enumerate(report.disagreements):
            _write(f"{args.report}.cex{i}.txt", cex)
    else:
        sys.stdout.write(text)
    summary = (f"agreements={report.agreements} disagreements={len(report.disagreements)} "
               f"skips={len(report.skips)}")
    if not report.ok and not report.disagreements:
        summary += (f" (over the skip budget {report.skip_budget:g} = "
                    f"{verify.SKIP_BUDGET:g} x {report.trials} trials)")
    print(summary)
    return EXIT_OK if report.ok else EXIT_DISAGREE


def cmd_machine(args) -> int:
    machine = parse_instance("machine", _read(args.machine))
    x = args.input_string or ""
    budget = ResourceBudget(time_steps=args.budget_steps,
                            tree_size=args.budget_tree,
                            stack_height_cap=args.budget_stack)
    if args.semantics == "shaped":
        if not args.shape:
            raise UsageError("shaped semantics needs --shape")
        shape = parse_instance("tree", _read(args.shape))
        accepted = shaped_run(machine, x, shape) is not None
        print("ACCEPT" if accepted else "REJECT")
        return EXIT_OK
    stats = EVALUATORS[args.semantics](machine, x, budget)
    verdict = "ACCEPT" if stats.accepted else "REJECT"
    print(f"{verdict} treeNodes={stats.tree_nodes} "
          f"coNondet={stats.max_co_nondet_on_path} "
          f"stack={stats.peak_stack_height} steps={stats.steps_used}"
          + (" exhausted" if stats.exhausted else ""))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xalpwb",
        description="Workbench for tree-chained reductions and "
                    "resource-bounded machine semantics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="apply a registered reduction")
    p.add_argument("--name", required=True, choices=REDUCTION_NAMES)
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--lift")
    p.add_argument("--witness")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("solve", help="run an exact oracle")
    p.add_argument("--problem", required=True, choices=tuple(_PROBLEMS))
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--threshold", type=int)
    p.add_argument("--solver", choices=_SOLVERS)
    p.add_argument("--cap", type=_cap)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="cross-validate reductions or machines")
    p.add_argument("--reduction")
    p.add_argument("--chain")
    p.add_argument("--machines")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=_cap)
    p.add_argument("--report")
    p.add_argument("--budget-steps", type=int, default=CORPUS_BUDGET.time_steps)
    p.add_argument("--budget-tree", type=int, default=CORPUS_BUDGET.tree_size)
    p.add_argument("--max-input-len", type=int, default=MAX_INPUT_LEN)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("machine", help="evaluate a machine")
    p.add_argument("action", choices=("eval",))
    p.add_argument("--semantics", required=True,
                   choices=(*EVALUATORS, "shaped"))
    p.add_argument("-m", "--machine", required=True)
    p.add_argument("-x", "--input-string", default="")
    p.add_argument("--shape")
    p.add_argument("--budget-steps", type=int, default=CORPUS_BUDGET.time_steps)
    p.add_argument("--budget-tree", type=int, default=CORPUS_BUDGET.tree_size)
    p.add_argument("--budget-stack", type=int)
    p.set_defaults(func=cmd_machine)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"oracle cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (XalpwbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
