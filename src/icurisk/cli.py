"""Command-line entry point.

Verbs:
  synth     generate a synthetic cohort CSV from the calibrated moments
  run       execute the full pipeline and write all artifacts
  report    re-derive CSV/SVG projections from an existing report.json
  selftest  run the acceptance battery and print one line per criterion

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure or a
worker process that died.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .cohort import save_cohort
from .errors import (ConfigError, ConvergenceError, DataError, IcuRiskError,
                     OrderingError, SchemaError, WorkerError)
from .pipeline import RunConfig, load_run_config, run
from .report import emit_report, write_artifacts, write_failed_manifest
from .synth import synth_default_cohort


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icurisk",
        description="Interpretable 30-day ICU mortality prediction pipeline")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_synth = sub.add_parser("synth", help="write a synthetic cohort CSV")
    p_synth.add_argument("--seed", type=int, default=0, metavar="U64")
    p_synth.add_argument("--out", metavar="PATH", default="cohort.csv",
                         help="output CSV path")
    p_synth.add_argument("--n", type=int, default=1301)
    p_synth.add_argument("--event-rate", type=float, default=0.196)
    p_synth.add_argument("--no-missing", action="store_true",
                         help="skip the missing-at-random mask")
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="full pipeline, all artifacts")
    p_run.add_argument("--config", metavar="PATH",
                       help="JSON file with RunConfig fields")
    p_run.add_argument("--seed", type=int, metavar="U64",
                       help="master seed (overrides the config file)")
    p_run.add_argument("--out", metavar="DIR",
                       help="output directory (overrides the config file)")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report",
                              help="re-emit projections from report.json")
    p_report.add_argument("--out", metavar="DIR", required=True,
                          help="directory containing report.json")
    p_report.set_defaults(func=cmd_report)

    p_self = sub.add_parser("selftest", help="run the acceptance battery")
    p_self.add_argument("--fast", action="store_true",
                        help="skip the full-size end-to-end criterion")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def _resolve_config(args) -> RunConfig:
    if args.config:
        config = load_run_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
    elif args.seed is not None:
        config = RunConfig(seed=args.seed)
    else:
        raise ConfigError("provide --config or --seed (the seed is mandatory)")
    if args.out:
        config = replace(config, out_dir=args.out)
    return config


def _run_with_manifest(config: RunConfig):
    try:
        result = run(config)
    except IcuRiskError as exc:
        write_failed_manifest(config.out_dir, config,
                              getattr(exc, "stage", "unknown"))
        raise
    return result, write_artifacts(result)


def cmd_synth(args) -> int:
    table = synth_default_cohort(n=args.n, event_rate=args.event_rate,
                                 seed=args.seed,
                                 with_missing=not args.no_missing)
    try:
        save_cohort(table, args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {args.out}: {exc}") from exc
    print(f"wrote {args.out}: n={table.n} d={table.d} "
          f"event_rate={table.y.mean():.3f}")
    return 0


def cmd_run(args) -> int:
    config = _resolve_config(args)
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create out_dir {config.out_dir}: {exc}") from exc
    result, manifest = _run_with_manifest(config)
    win = next(r for r in result.benchmark if r.label == result.winner)
    print(f"winner: {result.winner} "
          f"(cv auroc {win.cv_mean_auroc:.3f}, test auroc {win.metrics_test.auroc:.3f})")
    print(f"artifacts: {config.out_dir} ({len(manifest.artifacts)} files)")
    return 0


def cmd_report(args) -> int:
    manifest = emit_report(args.out)
    print(f"re-emitted {len(manifest.artifacts)} artifacts in {args.out}")
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    ok = run_selftest(fast=args.fast)
    return 0 if ok else 4


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SchemaError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OrderingError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ConvergenceError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except WorkerError as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
