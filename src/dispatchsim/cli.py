"""Command-line interface.

Subcommands mirror the library surface:

    fit-weibull         fit a size law to a mean and coefficient of variation
    gen-workload        synthesize a Poisson/Weibull workload to a trace CSV
    ingest-trace        validate a trace and report its shape
    card-thresholds     band boundaries and spill cutoffs for multi-band dispatch
    simulate            run one policy on one cluster configuration
    sweep               execute a sweep plan file
    optimize-two-stage  grid-search theta and n1 for a two-stage policy

All outputs are deterministic functions of the arguments: no timestamps, no
environment state, repr-formatted floats. Errors print a single
`error: <message>` line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .analysis import EmpiricalDistribution, card_thresholds
from .metrics import (
    DEFAULT_WARMUP_FRACTION,
    replicate_and_summarize,
    result_row,
    summary_row,
    write_results_csv,
    write_results_json,
)
from .policies import PolicySpec, parse_label
from .sweep import (
    DEFAULT_THETA_QUANTILES,
    RESULT_FIELDS_WITH_QUANTILE,
    SweepPlan,
    single_stage_spec,
    default_n1_candidates,
    make_source,
    optimize_two_stage,
    pivot_summary,
    run_sweep,
    write_pivot_csv,
    write_sweep_outputs,
)
from .workload import (
    ClusterConfig,
    TraceFormatError,
    fit_weibull,
    generate_poisson_weibull,
    ingest_trace,
    write_trace_csv,
)


def _kv(pairs) -> str:
    """Render key=value pairs with repr floats, space-separated."""
    parts = []
    for key, value in pairs:
        if value is None:
            continue
        if isinstance(value, float):
            parts.append(f"{key}={value!r}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _cmd_fit_weibull(args) -> int:
    params = fit_weibull(args.mean, args.cov)
    print(_kv([
        ("scale_a", params.scale_a),
        ("shape_b", params.shape_b),
        ("mean", params.mean),
        ("cov", params.cov),
        ("second_moment", params.second_moment),
    ]))
    return 0


def _cmd_gen_workload(args) -> int:
    params = fit_weibull(args.mean, args.cov)
    rate = args.rho * args.capacity / args.mean
    wl = generate_poisson_weibull(rate, params, args.jobs, args.seed)
    write_trace_csv(wl, args.out)
    print(_kv([
        ("jobs", wl.job_count),
        ("tasks", wl.task_count),
        ("horizon", wl.horizon),
        ("arrival_rate", rate),
        ("mean_size", wl.total_work / wl.task_count),
        ("out", args.out),
    ]))
    return 0


def _cmd_ingest_trace(args) -> int:
    wl = ingest_trace(args.trace)
    if args.out:
        write_trace_csv(wl, args.out)
    dist = EmpiricalDistribution.from_workload(wl)
    single = int(np.count_nonzero(np.diff(wl.task_offsets) == 1))
    print(_kv([
        ("jobs", wl.job_count),
        ("tasks", wl.task_count),
        ("horizon", wl.horizon),
        ("source", wl.source),
        ("mean_task_size", dist.mean),
        ("task_cov", dist.cov),
        ("single_task_fraction", single / wl.job_count),
        ("out", args.out),
    ]))
    return 0


def _cmd_card_thresholds(args) -> int:
    dist = make_source(args.cov, args.trace, mean_size=args.mean).distribution()
    th = card_thresholds(dist, args.n, args.rho)
    payload = {"n": args.n, "rho": args.rho, "m": list(th.m), "c": list(th.c)}
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _simulate_spec(args, dist, n, rho) -> PolicySpec:
    kind, two_stage = parse_label(args.policy)
    if two_stage:
        if (args.theta is None) == (args.theta_quantile is None):
            raise ValueError("two-stage policies need exactly one of --theta or --theta-quantile")
        if args.n1 is None:
            raise ValueError("two-stage policies need --n1")
        theta = args.theta if args.theta is not None else dist.quantile(args.theta_quantile)
        return PolicySpec(kind=kind, two_stage=True, n1=args.n1, theta=theta)
    if args.theta is not None or args.theta_quantile is not None or args.n1 is not None:
        raise ValueError("--theta/--theta-quantile/--n1 only apply to two_stage policies")
    return single_stage_spec(kind, dist, n, rho)


def _cmd_simulate(args) -> int:
    source = make_source(args.cov, args.trace, args.jobs, args.mean, args.capacity)
    if args.trace is None and args.mu is not None:
        raise ValueError("--mu only applies to trace-driven runs")
    if (args.mu is None) == (args.rho is None):
        raise ValueError("runs need exactly one of --rho (target load) or --mu "
                         "(explicit per-server speed, trace runs only)")
    if args.mu is None:
        config = source.config(args.n, args.rho)
    else:
        wl = source.workload(args.n, None, args.jobs, 0)
        config = ClusterConfig.for_workload(args.n, args.mu, wl)
    spec = _simulate_spec(args, source.distribution(), args.n, config.target_rho)
    [summary] = replicate_and_summarize(source, config, [spec], args.rho, args.jobs, args.seed,
                                        args.replications, args.warmup, task_log=args.task_log)
    rows = [result_row(r) for r in summary.results] + [summary_row(summary, args.seed)]
    if args.out:
        echo = {
            "command": "simulate", "policy": args.policy, "n": args.n,
            "rho": args.rho, "cov": args.cov, "trace": args.trace,
            "mu": args.mu, "jobs": args.jobs, "seed": args.seed,
            "replications": args.replications, "warmup": args.warmup,
            "theta": spec.theta, "n1": spec.n1, "mean": args.mean,
            "capacity": args.capacity,
        }
        write_results_csv(f"{args.out}.csv", rows, echo)
        write_results_json(f"{args.out}.json", rows, echo)
    pairs = [
        ("policy", spec.label),
        ("n", args.n),
        ("rho", config.target_rho),
        ("theta", spec.theta),
        ("n1", spec.n1),
        ("jobs_measured", sum(r.job_count for r in summary.results)),
        ("mrt_seconds", summary.mean_mrt_seconds),
    ]
    if args.trace is not None:
        pairs.append(("mrt_hours", summary.mean_mrt_seconds / 3600.0))
    pairs.extend([
        ("normalized_mrt", summary.mean_normalized_mrt),
        ("ci_half_width", summary.ci_half_width),
    ])
    print(_kv(pairs))
    return 0


def _cmd_sweep(args) -> int:
    if bool(args.figure) != bool(args.figure_out):
        raise ValueError("--figure needs --figure-out" if args.figure else
                         "--figure-out needs --figure")
    plan = SweepPlan.from_file(args.plan)
    run_rows, summary_rows = run_sweep(plan, workers=args.workers)
    out_prefix = args.out
    if out_prefix:
        for path in write_sweep_outputs(plan, run_rows, summary_rows, out_prefix):
            print(f"wrote {path}")
    if args.figure:
        axis = "rho" if args.figure == "rho-curve" else "n"
        header, rows = pivot_summary(summary_rows, axis)
        write_pivot_csv(args.figure_out, header, rows)
        print(f"wrote {args.figure_out}")
    if not out_prefix and not args.figure:
        for row in summary_rows:
            print(_kv([(f, row.get(f)) for f in (
                "policy", "n", "rho", "theta", "n1", "cov",
                "mrt_seconds", "normalized_mrt", "ci_half_width",
            )]))
    return 0


def _cmd_optimize_two_stage(args) -> int:
    source = make_source(args.cov, args.trace, args.jobs, args.mean, args.capacity)
    quantiles = DEFAULT_THETA_QUANTILES if args.quantiles is None else tuple(args.quantiles)
    candidates = None if args.n1_candidates is None else tuple(args.n1_candidates)
    opt = optimize_two_stage(
        args.inner, args.n, args.rho, source,
        theta_quantiles=quantiles,
        n1_candidates=candidates,
        replications=args.replications,
        jobs=args.jobs,
        base_seed=args.seed,
        warmup_fraction=args.warmup,
    )
    optimum = {
        "inner": opt.inner, "n": opt.n, "rho": opt.rho,
        "theta": opt.theta, "theta_quantile": opt.theta_quantile,
        "n1": opt.n1, "mrt_seconds": opt.summary.mean_mrt_seconds,
        "normalized_mrt": opt.summary.mean_normalized_mrt,
        "ci_half_width": opt.summary.ci_half_width,
    }
    if args.out:
        echo = {
            "command": "optimize-two-stage", "inner": args.inner, "n": args.n,
            "rho": args.rho, "cov": args.cov, "trace": args.trace,
            "jobs": args.jobs, "seed": args.seed,
            "replications": args.replications, "warmup": args.warmup,
            "quantiles": ",".join(repr(q) for q in quantiles),
            "n1_candidates": ",".join(
                str(c) for c in (candidates or default_n1_candidates(args.n))
            ),
        }
        write_results_csv(
            f"{args.out}_table.csv", opt.table, echo,
            fields=RESULT_FIELDS_WITH_QUANTILE,
        )
        with open(f"{args.out}_optimum.json", "w") as fh:
            json.dump({"config": echo, "optimum": optimum}, fh, indent=2)
            fh.write("\n")
    print(_kv(optimum.items()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispatchsim",
        description="Discrete-event simulation of job dispatching in FCFS clusters.",
    )
    parser.add_argument("--version", action="version", version=f"dispatchsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-weibull", help="fit a Weibull size law to mean and cov")
    p.add_argument("--mean", type=float, required=True)
    p.add_argument("--cov", type=float, required=True)
    p.set_defaults(func=_cmd_fit_weibull)

    p = sub.add_parser("gen-workload", help="synthesize a Poisson/Weibull workload")
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--cov", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--mean", type=float, default=1.0, help="mean task size (default 1.0)")
    p.add_argument("--capacity", type=float, default=1.0,
                   help="total cluster capacity the load targets (default 1.0)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="trace CSV to write")
    p.set_defaults(func=_cmd_gen_workload)

    p = sub.add_parser("ingest-trace", help="validate a trace CSV and report stats")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", help="write the canonical form back out")
    p.set_defaults(func=_cmd_ingest_trace)

    p = sub.add_parser("card-thresholds", help="band boundaries and spill cutoffs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--cov", type=float, help="analytic Weibull size law")
    p.add_argument("--mean", type=float, default=1.0)
    p.add_argument("--trace", help="empirical size law from a trace")
    p.add_argument("--out", help="also write the JSON here")
    p.set_defaults(func=_cmd_card_thresholds)

    p = sub.add_parser("simulate", help="run one policy on one configuration")
    p.add_argument("--policy", required=True,
                   help="rr | jiq | lwl | card | two_stage:{rr,jiq,lwl}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float,
                   help="target load (required unless --mu is given for a trace)")
    p.add_argument("--cov", type=float, help="synthetic Weibull workload")
    p.add_argument("--trace", help="trace-driven workload")
    p.add_argument("--mu", type=float,
                   help="explicit per-server speed (trace runs; overrides --rho calibration)")
    p.add_argument("--mean", type=float, default=1.0)
    p.add_argument("--capacity", type=float, default=1.0)
    p.add_argument("--jobs", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--warmup", type=float, default=DEFAULT_WARMUP_FRACTION)
    p.add_argument("--theta", type=float, help="two-stage cutoff in size units")
    p.add_argument("--theta-quantile", type=float, help="two-stage cutoff as a size-law quantile")
    p.add_argument("--n1", type=int, help="two-stage stage-0 server count")
    p.add_argument("--out", help="prefix for results CSV/JSON")
    p.add_argument("--task-log", help="per-task CSV log of replication 0")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="execute a sweep plan file")
    p.add_argument("--plan", required=True, help="JSON sweep plan")
    p.add_argument("--out", help="output prefix (runs/summary CSV + JSON)")
    p.add_argument("--workers", type=int, default=1, help="process pool size (default 1)")
    p.add_argument("--figure", choices=("rho-curve", "n-curve"),
                   help="pivot the summary into a figure-ready table")
    p.add_argument("--figure-out", help="path for the pivoted table")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize-two-stage", help="grid-search theta and n1")
    p.add_argument("--inner", required=True, choices=("rr", "jiq", "lwl"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--cov", type=float)
    p.add_argument("--trace")
    p.add_argument("--mean", type=float, default=1.0)
    p.add_argument("--capacity", type=float, default=1.0)
    p.add_argument("--jobs", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--replications", type=int, default=3)
    p.add_argument("--warmup", type=float, default=DEFAULT_WARMUP_FRACTION)
    p.add_argument("--quantiles", type=_float_list,
                   help="comma-separated theta quantiles")
    p.add_argument("--n1-candidates", type=_int_list,
                   help="comma-separated stage-0 sizes")
    p.add_argument("--out", help="prefix for the search table and optimum JSON")
    p.set_defaults(func=_cmd_optimize_two_stage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, TraceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
