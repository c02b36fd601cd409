"""Command-line interface.

Subcommands: simulate, sweep, m95, bounds, plot1, check-moments.
Exit codes: 0 success, 2 invalid configuration or arguments, 3 MLE
enumeration budget exceeded.  Every command is deterministic given
--seed; the worker count only changes the wall-clock time, never a byte
of output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import __version__
from .bounds import BoundQuery, bound_report, curve_to_csv, mle_bound_curve
from .decode import MLE_BUDGET, BudgetExceededError
from .harness import (
    DECODERS,
    TrialConfig,
    estimate_m95,
    moment_check_logistic,
    moment_check_onebit,
    sweep,
)
from .model import CHANNELS, Model
from .svgplot import line_chart

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _add_model_args(sub: argparse.ArgumentParser, tags=tuple(c.tag for c in CHANNELS)) -> None:
    sub.add_argument("--model", required=True, choices=tags)
    sub.add_argument("--sigma2", type=float, default=None, help="noise variance (linear/onebit)")
    sub.add_argument("--beta", type=float, default=None, help="logistic noise level; 'inf' allowed")


def _model_from_args(args) -> Model:
    channel = next(c for c in CHANNELS if c.tag == args.model)
    for flag in ("sigma2", "beta"):
        if flag != channel.noise_name and getattr(args, flag) is not None:
            raise ValueError(
                f"--{flag} does not apply to the {channel.tag} model; use --{channel.noise_name}"
            )
    noise = getattr(args, channel.noise_name)
    return channel(1.0 if noise is None else noise)


def _add_trial_args(sub: argparse.ArgumentParser) -> None:
    _add_model_args(sub)
    sub.add_argument("--n", type=_positive_int, required=True)
    sub.add_argument("--k", type=_positive_int, required=True)
    sub.add_argument("--decoder", choices=DECODERS, default="topk")
    sub.add_argument("--seed", type=_nonneg_int, default=0)
    sub.add_argument("--workers", type=_positive_int, default=1)
    sub.add_argument("--mle-budget", type=_positive_int, default=MLE_BUDGET)
    sub.add_argument("--out", default=None, help="output path (stdout when omitted)")


def _emit(args, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)


def _parse_grid(text: str) -> list:
    """Parse 'lo:hi:step' into an ascending inclusive-when-aligned grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--m-grid must look like lo:hi:step, got {text!r}")
    lo, hi, step = (int(p) for p in parts)
    if lo < 1 or hi < lo or step < 1:
        raise ValueError(f"need 1 <= lo <= hi and step >= 1 in --m-grid, got {text!r}")
    return list(range(lo, hi + 1, step))


def _trial_config(args, m: int) -> TrialConfig:
    return TrialConfig(
        _model_from_args(args), args.n, args.k, m, args.decoder, args.seed, args.mle_budget
    )


def _cmd_simulate(args) -> int:
    config = _trial_config(args, args.m)
    result = sweep(config, [args.m], args.trials, workers=args.workers)
    _emit(args, result.to_csv())
    row = result.rows[0]
    print(
        f"simulate: {config.model.tag} n={config.n} k={config.k} m={config.m} "
        f"decoder={config.decoder}: {row.successes}/{row.trials} exact recoveries "
        f"(rate {row.success_rate:.4g}, 95% CI [{row.ci_low:.4g}, {row.ci_high:.4g}])",
        file=sys.stderr,
    )
    return 0


def _cmd_sweep(args) -> int:
    grid = _parse_grid(args.m_grid)
    result = sweep(_trial_config(args, grid[0]), grid, args.trials, workers=args.workers)
    _emit(args, result.to_csv())
    print(f"sweep: {len(result.rows)} grid points written", file=sys.stderr)
    return 0


def _cmd_m95(args) -> int:
    config = _trial_config(args, args.m_lo)
    result = estimate_m95(
        config,
        args.trials_per_probe,
        args.m_lo,
        args.m_hi,
        threshold=args.success_threshold,
        workers=args.workers,
    )
    payload = {
        "config": {
            "model": config.model.tag,
            "n": config.n,
            "k": config.k,
            **config.model.noise_fields(),
            "decoder": config.decoder,
            "seed": config.master_seed,
        },
        **asdict(result),
    }
    _emit(args, json.dumps(payload, indent=2) + "\n")
    print(f"m95: threshold reached at m={result.m95}", file=sys.stderr)
    return 0


def _cmd_bounds(args) -> int:
    query = BoundQuery(
        n=args.n,
        k=args.k,
        model=_model_from_args(args),
        delta=args.delta,
        mutual_info_cap=args.mutual_info_cap,
        c=args.c_const,
    )
    _emit(args, bound_report(query).to_json())
    return 0


def _cmd_plot1(args) -> int:
    k_values = range(args.k_min, args.k_max + 1, args.k_step)
    rows = mle_bound_curve(args.n, args.sigma2, k_values)
    _emit(args, curve_to_csv(rows))
    if args.svg is not None:
        ks = [row.k for row in rows]
        chart = line_chart(
            [("m1", ks, [row.m1 for row in rows]), ("m2", ks, [row.m2 for row in rows])],
            title=f"MLE sample bound, n={args.n}, sigma2={args.sigma2:g}",
            x_label="k",
            y_label="measurements",
        )
        with open(args.svg, "w", newline="") as fh:
            fh.write(chart)
    return 0


_MOMENT_CHECKS = {"onebit": moment_check_onebit, "logistic": moment_check_logistic}


def _cmd_check_moments(args) -> int:
    model = _model_from_args(args)
    noise = model.noise
    check = _MOMENT_CHECKS[model.tag](args.k, noise, args.samples, master_seed=args.seed)
    payload = {
        "model": model.tag, "k": args.k, model.noise_name: noise, "seed": args.seed, **asdict(check)
    }
    _emit(args, json.dumps(payload, indent=2) + "\n")
    print(
        f"check-moments: estimate {check.estimate:.6g} vs target {check.target:.6g} "
        f"(z = {check.z_score:.3f})",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binsense",
        description="Sparse binary signal recovery: simulation, decoding, and bounds",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="repeated trials at one measurement count")
    _add_trial_args(p)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--trials", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("sweep", help="success-rate curve over a grid of m")
    _add_trial_args(p)
    p.add_argument("--m-grid", required=True, help="lo:hi:step, inclusive when aligned")
    p.add_argument("--trials", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("m95", help="bisect for the smallest m reaching the success threshold")
    _add_trial_args(p)
    p.add_argument("--m-lo", type=_positive_int, required=True)
    p.add_argument("--m-hi", type=_positive_int, required=True)
    p.add_argument("--trials-per-probe", type=_positive_int, required=True)
    p.add_argument("--success-threshold", type=float, default=0.95)
    p.set_defaults(func=_cmd_m95)

    p = subs.add_parser("bounds", help="JSON catalog of sample-complexity bounds")
    _add_model_args(p)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--c-const", type=float, default=1.0)
    p.add_argument("--mutual-info-cap", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = subs.add_parser("plot1", help="CSV (and optional SVG) of the MLE bound curve m1/m2")
    p.add_argument("--n", type=_positive_int, default=50_000)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--k-min", type=_positive_int, default=1000)
    p.add_argument("--k-max", type=_positive_int, default=25_000)
    p.add_argument("--k-step", type=_positive_int, default=1000)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=_cmd_plot1)

    p = subs.add_parser("check-moments", help="Monte Carlo check of a closed-form moment")
    _add_model_args(p, tags=tuple(_MOMENT_CHECKS))
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check_moments)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
