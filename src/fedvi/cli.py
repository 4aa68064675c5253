"""Command line interface: run experiments, fit rates, verify problems.

Exit codes: 0 success, 2 config rejection, 3 invariant-suite failure.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .harness import (SCHEMA, ConfigError, ExperimentConfig, fit_rate,
                      run_experiment, verify_problem)


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.seed_override is not None:
        if not SCHEMA["seeds"][1]([args.seed_override]):
            raise ConfigError("--seed-override", "must be an integer >= 0")
        cfg.seeds = [args.seed_override]
    cfg.output = args.out or cfg.output
    rows = run_experiment(cfg)
    print(f"{len(rows)} rows from {len(cfg.expand_runs())} runs -> "
          f"{cfg.output or '<not written>'}")
    return 0


def _cmd_fit(args) -> int:
    group_by = [g for g in args.group.split(",") if g] if args.group else []
    try:
        with open(args.csv) as fh:
            rows = list(csv.DictReader(fh))
        fits = fit_rate(rows, group_by, args.x)
    except (OSError, ValueError) as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 2
    for key, fit in sorted(fits.items()):
        label = ",".join(f"{g}={v}" for g, v in zip(group_by, key)) or "all"
        lo, hi = fit.slope_ci
        print(f"{label}: slope={fit.slope:+.4f} ci95=[{lo:+.4f}, {hi:+.4f}] "
              f"r2={fit.r2:.4f} predicted={fit.predicted_slope:+.4f} "
              f"gap*etaKR={fit.normalized[0]:.4g}..{fit.normalized[1]:.4g} "
              f"n={len(fit.pairs)} excluded={fit.n_excluded}")
    return 0


def _cmd_verify(args) -> int:
    failures = verify_problem(ExperimentConfig.from_file(args.config))
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        return 3
    print("all property checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedvi",
        description="Federated variational-inequality benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config's sweep to CSV")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="CSV path; sets output")
    p_run.add_argument("--seed-override", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_fit = sub.add_parser("fit", help="log-log slope fit over a CSV")
    p_fit.add_argument("csv")
    p_fit.add_argument("--x", required=True, choices=list(SCHEMA["sweep"]))
    p_fit.add_argument("--group", default="")
    p_fit.set_defaults(func=_cmd_fit)

    p_ver = sub.add_parser("verify",
                           help="run the property suite for a config's problem")
    p_ver.add_argument("config")
    p_ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config rejected: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
