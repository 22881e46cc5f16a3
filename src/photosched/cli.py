"""Command-line entry point: generate, solve, evaluate, export-lp,
experiment, gantt.

Exit codes: 0 success, 1 infeasible input or failed solve, 2 usage error.
"""

import argparse
import json
import os
import sys

from .core import Objective, load_instance, save_instance
from .evaluator import (
    check_feasibility,
    load_schedule,
    metrics,
    save_schedule,
)
from .exact import INFEASIBLE, SolverError, solve_exact, export_milp, write_lp
from .experiments import (
    DEFAULT_GRID,
    format_summary,
    run_grid,
    save_records,
    save_timings,
)
from .gantt import render_gantt
from .instgen import GenConfig, ReadyScenario, generate_instance
from .search import GAConfig, SPConfig, run_ga, run_sp


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photosched",
        description="Photolithography flowshop scheduling toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("generate", help="generate a random instance")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--ready", choices=["zero", "mixed"], default="zero")
    gen.add_argument("--tardiness-factor", type=float, default=0.3)
    gen.add_argument("--due-range", type=float, default=0.5)
    gen.add_argument("--equipment", type=int, choices=[1, 2], default=1)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="solve an instance")
    solve.add_argument("instance")
    solve.add_argument("--alg", choices=["sp", "ga", "exact"], required=True)
    solve.add_argument("--objective", choices=[k.value for k in Objective],
                       default="cmax")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--time-limit", type=float, default=60.0)
    solve.add_argument("--iterations", type=int, default=1000,
                       help="sp iteration budget")
    solve.add_argument("--out-schedule")
    solve.add_argument("--out-trace")

    ev = sub.add_parser("evaluate", help="check a schedule against an instance")
    ev.add_argument("schedule")
    ev.add_argument("instance")

    lp = sub.add_parser("export-lp", help="write the optimization model")
    lp.add_argument("instance")
    lp.add_argument("--objective", choices=[k.value for k in Objective],
                    default="cmax")
    lp.add_argument("--out")
    lp.add_argument("--counts", action="store_true",
                    help="print constraint/variable counts")

    exp = sub.add_parser("experiment", help="run a grid of experiments")
    exp.add_argument("--grid", help="JSON grid config file")
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--seed", type=int, required=True)
    exp.add_argument("--replications", type=int, default=10)
    exp.add_argument("--time-limit", type=float, default=60.0)
    exp.add_argument("--no-exact", action="store_true")

    ga = sub.add_parser("gantt", help="render a schedule as SVG")
    ga.add_argument("schedule")
    ga.add_argument("instance")
    ga.add_argument("--out", required=True)
    return parser


def _cmd_generate(args) -> int:
    config = GenConfig(n=args.n, ready_scenario=ReadyScenario(args.ready),
                       T=args.tardiness_factor, R=args.due_range,
                       equipment=args.equipment, seed=args.seed)
    save_instance(generate_instance(config), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    kind = Objective(args.objective)
    trace = None
    if args.alg == "sp":
        schedule, value, trace = run_sp(
            instance, kind, SPConfig(max_iterations=args.iterations,
                                     seed=args.seed))
        status = "heuristic"
    elif args.alg == "ga":
        schedule, value, trace = run_ga(instance, kind, GAConfig(seed=args.seed))
        status = "heuristic"
    else:
        result = solve_exact(instance, kind, time_limit=args.time_limit)
        if result.schedule is None:
            print("model is infeasible" if result.status == INFEASIBLE
                  else "no solution found within the time limit", file=sys.stderr)
            return 1
        schedule, value, status = result.schedule, result.value, result.status
    m = metrics(instance, schedule)
    print(f"status={status} {kind.value}={value} "
          f"cmax={m.cmax} wct={m.wct} twt={m.twt}")
    if args.out_schedule:
        save_schedule(instance, schedule, args.out_schedule)
    if args.out_trace and trace is not None:
        with open(args.out_trace, "w") as fh:
            fh.write("iteration,best\n")
            for i, best in enumerate(trace, start=1):
                fh.write(f"{i},{best}\n")
    return 0


def _load_feasible(args, stream):
    """`args`' instance and schedule; None once each violation is printed to `stream`."""
    instance = load_instance(args.instance)
    schedule = load_schedule(args.schedule, instance)
    violations = check_feasibility(instance, schedule)
    for v in violations:
        print(f"{v.constraint_id}: {v.detail}", file=stream)
    return None if violations else (instance, schedule)


def _cmd_evaluate(args) -> int:
    if not (loaded := _load_feasible(args, sys.stdout)):
        return 1
    m = metrics(*loaded)
    print(f"feasible cmax={m.cmax} wct={m.wct} twt={m.twt}")
    return 0


def _cmd_export_lp(args) -> int:
    instance = load_instance(args.instance)
    model = export_milp(instance, Objective(args.objective))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(write_lp(model))
        print(f"wrote {args.out}")
    if args.counts:
        nc, ncont, nbin, ntot = model.counts
        print(f"constraints={nc} continuous={ncont} binary={nbin} total={ntot}")
    if not args.out and not args.counts:
        sys.stdout.write(write_lp(model))
    return 0


def _cmd_experiment(args) -> int:
    grid = {}
    if args.grid:
        with open(args.grid) as fh:
            grid = json.load(fh)
        if not isinstance(grid, dict):
            raise ValueError(f"{args.grid}: grid must be a JSON object")
        unknown = sorted(set(grid) - set(DEFAULT_GRID) - {"objectives", "replications"})
        if unknown:
            raise ValueError(f"{args.grid}: unknown grid key(s): {', '.join(unknown)}")
        for key, value in grid.items():
            if key != "replications" and not (isinstance(value, list) and value):
                raise ValueError(f"{args.grid}: grid key '{key}' must be a non-empty list")
    grid = {**DEFAULT_GRID, **grid}
    try:
        objectives = [Objective(v) for v in grid.pop("objectives", ["cmax", "wct", "twt"])]
    except ValueError as exc:
        raise ValueError(f"{args.grid}: grid key 'objectives': {exc}") from None
    replications = grid.pop("replications", args.replications)
    os.makedirs(args.out, exist_ok=True)
    records = run_grid(grid, objectives, replications, args.seed,
                       exact_time_limit=args.time_limit,
                       run_exact=not args.no_exact)
    save_records(records, os.path.join(args.out, "records.csv"))
    save_timings(records, os.path.join(args.out, "timings.csv"))
    for ratio in ("hr", "pr"):
        summary = format_summary(records, ratio=ratio)
        with open(os.path.join(args.out, f"summary_{ratio}.txt"), "w") as fh:
            fh.write(summary + "\n")
    print(summary)
    return 0


def _cmd_gantt(args) -> int:
    if not (loaded := _load_feasible(args, sys.stderr)):
        return 1
    with open(args.out, "w") as fh:
        fh.write(render_gantt(*loaded))
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "export-lp": _cmd_export_lp,
    "experiment": _cmd_experiment,
    "gantt": _cmd_gantt,
}


def dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.verb](args)
    except (OSError, ValueError, KeyError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
