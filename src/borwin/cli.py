"""Command-line entry points: solve, gen, bench, export-lp, validate."""

from __future__ import annotations

import argparse
import json
import os
import sys
from io import StringIO
from pathlib import Path as FsPath

from .baselines import brute_force, rcsp_label_setting
from .bench import ALGOS, run_bench, stats_dict, write_csv, write_summary
from .generate import GeneratorConfig, InvalidConfig, generate
from .graph import GraphError, validate
from .huc import export_milp, reached_graph, solve_huc
from .io import InstanceFormatError, dump_json, load_instance, non_decimal_field
from .rational import NotDecimal, rat_str
from .solver import OPTIMAL, solve_awclpp

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


def _trace_enabled(args) -> bool:
    return bool(getattr(args, "trace", False) or os.environ.get("BORWIN_TRACE") == "1")


def _print_phase1(event) -> None:
    print(
        f"p1 iter={event.iteration} xA=({event.x_a[0]},{event.x_a[1]})"
        f" xB=({event.x_b[0]},{event.x_b[1]}) xC=({event.x_c[0]},{event.x_c[1]}) delta={event.delta}"
    )


def _print_phase2(event) -> None:
    if event.kind == "pop":
        print(f"p2 pop mu={event.mu} anchor={event.anchor} feasible={event.feasible} action={event.action}")
    else:
        print(f"p2 prune rule={event.rule} mu={event.mu} anchor={event.anchor} prefix={event.prefix}")


def cmd_solve(args) -> int:
    kind, obj = load_instance(args.input)
    trace = _trace_enabled(args)
    t1 = _print_phase1 if trace else None
    t2 = _print_phase2 if trace else None

    if kind == "huc":
        if args.algo == "borwin":
            sol = solve_huc(obj, trace_phase1=t1, trace_phase2=t2)
            if sol.status != OPTIMAL:
                return _emit(args, {"status": "infeasible"})
            return _emit(
                args,
                {
                    "status": "opt",
                    "value": rat_str(sol.revenue),
                    "schedule": sol.schedule,
                    "volumes": [rat_str(v) for v in sol.volumes],
                    "stats": stats_dict(sol.stats),
                },
            )
        dag, _ = reached_graph(obj)
    else:
        dag = obj
        report = validate(dag)
        if not report.ok:
            print(f"error: {report.code}: {report.detail}", file=sys.stderr)
            return EXIT_ERROR

    if args.algo == "borwin":
        sol = solve_awclpp(dag, trace_phase1=t1, trace_phase2=t2)
        if sol.status != OPTIMAL:
            return _emit(args, {"status": "infeasible"})
        return _emit(
            args,
            {
                "status": "opt",
                "value": rat_str(sol.value),
                "path": sol.path.labelled(dag),
                "stats": stats_dict(sol.stats),
            },
        )
    if args.algo == "rcsp":
        res = rcsp_label_setting(dag)
    elif args.algo == "oracle":
        res = brute_force(dag, strict=False)
    else:
        print(f"unknown algorithm {args.algo!r}", file=sys.stderr)
        return EXIT_ERROR
    if res.status != "optimal":
        return _emit(args, {"status": "infeasible"})
    return _emit(
        args,
        {"status": "opt", "value": rat_str(res.value), "path": res.witness.labelled(dag)},
    )


def _emit(args, payload: dict) -> int:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            if key == "stats":
                print("stats: " + " ".join(f"{k}={v}" for k, v in value.items()))
            elif isinstance(value, list):
                print(f"{key}: " + ",".join(str(x) for x in value))
            else:
                print(f"{key}: {value}")
    return EXIT_OK if payload["status"] == "opt" else EXIT_INFEASIBLE


def cmd_gen(args) -> int:
    config = GeneratorConfig(
        seed=args.seed,
        family=args.family,
        vertices=args.vertices,
        density=args.density,
        periods=args.periods,
        points=args.points,
        min_updown=args.min_updown,
        price_mode=args.price_mode,
    )
    text = dump_json(generate(config))
    FsPath(args.out).write_text(text)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    directory = FsPath(args.directory)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return EXIT_ERROR
    files = []
    for path in sorted(directory.glob("*.json")):
        try:
            kind, obj = load_instance(path)
        except (InstanceFormatError, OSError) as exc:
            print(f"skipping {path.name}: {exc}", file=sys.stderr)
            continue
        files.append((path.name, kind, obj))
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    records = run_bench(files, algos=algos, timeout_ms=args.timeout_ms)
    with open(args.csv, "w") as fh:
        write_csv(records, fh)
    summary_path = FsPath(args.csv).with_suffix(".summary.csv")
    with open(summary_path, "w") as fh:
        write_summary(records, fh)
    print(f"wrote {args.csv} and {summary_path} ({len(records)} rows)")
    return EXIT_OK


def cmd_export_lp(args) -> int:
    kind, obj = load_instance(args.input)
    if kind != "huc":
        print("export-lp needs a commitment instance", file=sys.stderr)
        return EXIT_ERROR
    # render first, so a model that cannot be written leaves no file
    text = StringIO()
    try:
        export_milp(obj, text)
    except NotDecimal as exc:
        # the failing number is a derived coefficient; decimals are closed
        # under sums and products, so some input field is not a decimal
        field = non_decimal_field(obj)
        if field is None:
            raise
        raise NotDecimal(f"{field[0]} = {field[1]} has no finite decimal representation") from exc
    FsPath(args.out).write_text(text.getvalue())
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    kind, obj = load_instance(args.input)
    report = validate(reached_graph(obj)[0] if kind == "huc" else obj)
    for warning in report.warnings:
        print(f"warning: {warning}")
    if report.ok:
        print("ok")
        return EXIT_OK
    print(f"{report.code}: {report.detail}")
    return EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="borwin", description="Exact window-constrained longest-path solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("input")
    p.add_argument("--algo", default="borwin", choices=list(ALGOS))
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("--family", required=True, choices=["dag", "huc"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vertices", type=int, default=10)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--periods", type=int, default=6)
    p.add_argument("--points", type=int, default=3)
    p.add_argument("--min-updown", dest="min_updown", type=int, default=2)
    p.add_argument("--price-mode", dest="price_mode", default="independent", choices=["independent", "near-flat"])
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run algorithms over an instance directory")
    p.add_argument("directory")
    p.add_argument("--csv", required=True)
    p.add_argument("--algos", default=",".join(ALGOS))
    p.add_argument("--timeout-ms", dest="timeout_ms", type=float, default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-lp", help="write the MILP formulation of a commitment instance")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_lp)

    p = sub.add_parser("validate", help="check instance invariants")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, OSError, InvalidConfig, NotDecimal) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except GraphError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
