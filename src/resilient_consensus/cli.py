"""Command-line front end: run scenarios, validate configs, emit traces.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 divergence
detected under --fail-on-divergence.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import os
import sys

import numpy as np

from .design import DesignError
from .graph import GraphError
from .scenarios import (BUNDLED_SCENARIOS, ConfigError, ScenarioConfig, list_scenarios,
                        load_config, run, validate)
from .trace import write_csv, write_plot_data, write_summary

OUTPUT_DIR_ENV = "RESILIENT_CONSENSUS_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_DIVERGENCE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resilient-consensus",
        description="Simulate multi-agent consensus under sensor/actuator attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list bundled scenarios")

    p_val = sub.add_parser("validate", help="statically check a scenario config")
    p_val.add_argument("config", help="bundled scenario name or JSON config path")

    for cmd, desc in (("run", "run one scenario"), ("run-all", "run every bundled scenario")):
        p = sub.add_parser(cmd, help=desc)
        if cmd == "run":
            p.add_argument("config", help="bundled scenario name or JSON config path")
        else:
            p.add_argument("--jobs", type=int, default=1,
                           help="parallel scenario workers (default 1)")
        p.add_argument("--horizon", type=int, default=None, help="override horizon")
        p.add_argument("--seed", type=int, default=None, help="override RNG seed")
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${OUTPUT_DIR_ENV} or ./out)")
        p.add_argument("--format", choices=("csv", "json", "both"), default="both")
        p.add_argument("--plot-data", action="store_true",
                       help="also write a downsampled plot-data CSV")
        p.add_argument("--fail-on-divergence", action="store_true")
    return parser


def _out_dir(args) -> str:
    if args.out:
        return args.out
    return os.environ.get(OUTPUT_DIR_ENV, "out")


def _apply_overrides(raw: dict, args) -> dict:
    raw = dict(raw)
    if args.horizon is not None:
        raw["horizon"] = args.horizon
    if args.seed is not None:
        raw["seed"] = args.seed
    return raw


def _emit(trace, out_dir: str, fmt: str, plot_data: bool) -> list:
    written = []
    if fmt in ("csv", "both"):
        path = os.path.join(out_dir, f"{trace.name}.csv")
        write_csv(trace, path)
        written.append(path)
    if fmt in ("json", "both"):
        path = os.path.join(out_dir, f"{trace.name}.summary.json")
        write_summary(trace, path)
        written.append(path)
    if plot_data:
        path = os.path.join(out_dir, f"{trace.name}.plot.csv")
        write_plot_data(trace, path)
        written.append(path)
    return written


def _run_one(raw: dict, out_dir: str, fmt: str, plot_data: bool):
    config = ScenarioConfig.from_dict(raw)
    trace = run(config)
    files = _emit(trace, out_dir, fmt, plot_data)
    return trace, files


def _run_listed(raw: dict, out_dir: str, fmt: str, plot_data: bool):
    """One run-all scenario: run and emit it, then return only its line and
    divergence flag, so that no trace outlives it or is sent back by a worker."""
    trace, _files = _run_one(raw, out_dir, fmt, plot_data)
    return _describe(trace), trace.diverged


def _print_lines(outcomes) -> bool:
    """Print each (line, diverged) as it arrives; True if any run diverged."""
    diverged_any = False
    for line, diverged in outcomes:
        print(line, flush=True)
        diverged_any = diverged_any or diverged
    return diverged_any


def _describe(trace) -> str:
    status = "DIVERGED" if trace.diverged else "bounded"
    return (f"{trace.name}: {status}, prediction={trace.prediction}, "
            f"steps={trace.steps_run}, tail gamma={trace.tail_gamma():.4g}, "
            f"tail consensus err={trace.tail_consensus_error():.4g}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for name in list_scenarios():
            print(name)
        return EXIT_OK

    if args.command == "validate":
        try:
            config = load_config(args.config)
            diags = validate(config)
        except (ConfigError, GraphError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        for diag in diags:
            print(f"{diag['level']}: {diag['field']}: {diag['message']}")
        if any(d["level"] == "error" for d in diags):
            return EXIT_CONFIG
        print(f"{config.name}: ok")
        return EXIT_OK

    out_dir = _out_dir(args)
    try:
        if args.command == "run":
            try:
                config = load_config(args.config)
            except ConfigError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_CONFIG
            raw = _apply_overrides(config.raw, args)
            trace, files = _run_one(raw, out_dir, args.format, args.plot_data)
            print(_describe(trace))
            for path in files:
                print(f"wrote {path}")
            if args.fail_on_divergence and trace.diverged:
                return EXIT_DIVERGENCE
            return EXIT_OK

        # run-all
        raws = [_apply_overrides(BUNDLED_SCENARIOS[name], args)
                for name in list_scenarios()]
        job = functools.partial(_run_listed, out_dir=out_dir, fmt=args.format,
                                plot_data=args.plot_data)
        if args.jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
                diverged_any = _print_lines(pool.map(job, raws))
        else:
            diverged_any = _print_lines(map(job, raws))
        if args.fail_on_divergence and diverged_any:
            return EXIT_DIVERGENCE
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DesignError, GraphError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
