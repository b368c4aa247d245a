"""Command-line front end.

Commands: returns, fit-adaptive, fit-static, sweep, tail-table, garch,
synth.  Every emitted report embeds a manifest (command, resolved
configuration, input content hash) as comment-prefixed header lines, and
identical inputs plus flags produce byte-identical outputs.

Exit codes: 0 success, 2 usage/config error (including a missing input
path), 3 data error (unparseable or unusable content), 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace

from .adaptive import AdaptiveConfig, run, seed_state_from_prefix
from .baselines import fit_garch_mle, garch_filter
from .data_io import (GarchScenario, ReturnSeries, Segment, _fmt,
                      generate_synthetic, read_csv, to_log_returns,
                      write_row_csv, write_series_csv, write_sweep_csv,
                      write_tail_csv, write_trajectory_csv)
from .distribution import NU_GAUSSIAN
from .errors import (DegenerateDataError, DomainError, MonotonicityError,
                     MovingTError, NonConvergenceError, ParseError,
                     SeriesTooShortError)
from .evaluation import mean_log_likelihood, nu_of_inv, nu_sweep, tail_table
from .static_estimators import (build_nu_table, compute_moments,
                                estimate_nu_adjusted, estimate_nu_raw,
                                estimate_sigma)

_USAGE_ERRORS = (DomainError, FileNotFoundError, IsADirectoryError,
                 PermissionError)
_DATA_ERRORS = (ParseError, DegenerateDataError, SeriesTooShortError)
_NUMERIC_ERRORS = (MonotonicityError, NonConvergenceError, FloatingPointError)


def _nu_value(text: str) -> float:
    if text.lower() in ("inf", "gauss", "gaussian"):
        return NU_GAUSSIAN
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a nu value: {text!r}") from None


def _digest_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _manifest(command: str, input_digest: str, config: dict,
              output: str) -> list:
    lines = [f"command = {command}", f"input_sha256 = {input_digest}"]
    lines += [f"{k} = {_fmt(v)}" for k, v in sorted(config.items())]
    lines.append(f"output = {output}")
    return lines


def _add_io_flags(p: argparse.ArgumentParser):
    p.add_argument("--input", "-i", required=True, help="input CSV path")
    p.add_argument("--output", "-o", required=True, help="output CSV path")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--prices", action="store_true",
                      help="input column holds prices (converted to log-returns)")
    mode.add_argument("--returns", action="store_true",
                      help="input column already holds log-returns")
    p.add_argument("--column", default="x",
                   help="value column: header name or 0-based index")
    p.add_argument("--date-column", default=None,
                   help="optional date column: header name or 0-based index")


def _add_estimator_flags(p: argparse.ArgumentParser, with_rates=True):
    if with_rates:
        p.add_argument("--eta1", type=float, default=0.003,
                       help="EMA rate for the center mu")
        p.add_argument("--eta2", type=float, default=0.05,
                       help="EMA rate for the sigma moment")
        p.add_argument("--eta3", type=float, default=0.005,
                       help="EMA rate for the two nu moments")
    p.add_argument("--p-sigma", type=float, default=1.0,
                   help="power behind the sigma estimate")
    p.add_argument("--p1", type=float, default=1.0,
                   help="first power behind the nu estimate")
    p.add_argument("--p2", type=float, default=0.5,
                   help="second power behind the nu estimate")
    p.add_argument("--nu-fixed", type=_nu_value, default=None,
                   help="hold nu fixed at this value ('inf' for Gaussian)")
    p.add_argument("--nu-adjust", type=float, default=0.9,
                   help="additive adjustment applied to the raw nu estimate")
    p.add_argument("--nu-min", type=float, default=1.1,
                   help="lower clamp of the nu inversion table")
    p.add_argument("--nu-cap", type=float, default=1000.0,
                   help="upper clamp of the nu estimate")


def _read_series(args) -> ReturnSeries:
    kind = "prices" if args.prices else "returns"
    series = read_csv(args.input, column=args.column,
                      date_column=args.date_column, kind=kind)
    if kind == "prices":
        series = to_log_returns(series)
    return series


def _io_config(args) -> dict:
    return {
        "input": args.input,
        "mode": "prices" if args.prices else "returns",
        "column": args.column,
        "date_column": args.date_column,
    }


def _adaptive_config(args) -> AdaptiveConfig:
    return AdaptiveConfig(
        eta1=args.eta1, eta2=args.eta2, eta3=args.eta3,
        p_sigma=args.p_sigma, p1=args.p1, p2=args.p2,
        nu_fixed=args.nu_fixed, nu_adjustment=args.nu_adjust,
        nu_min=args.nu_min, nu_cap=args.nu_cap,
        moment_floor=args.moment_floor, warmup=args.warmup)


def _config_dict(cfg: AdaptiveConfig) -> dict:
    return {
        "eta1": cfg.eta1, "eta2": cfg.eta2, "eta3": cfg.eta3,
        "p_sigma": cfg.p_sigma, "p1": cfg.p1, "p2": cfg.p2,
        "nu_fixed": cfg.nu_fixed, "nu_adjust": cfg.nu_adjustment,
        "nu_min": cfg.nu_min, "nu_cap": cfg.nu_cap,
        "moment_floor": cfg.moment_floor, "warmup": cfg.warmup,
    }


def _cmd_returns(args) -> int:
    series = _read_series(args)
    manifest = _manifest("returns", _digest_file(args.input),
                         _io_config(args), args.output)
    write_series_csv(args.output, series.values, series.labels, manifest)
    return 0


def _cmd_fit_adaptive(args) -> int:
    series = _read_series(args)
    cfg = _adaptive_config(args)
    if args.init_prefix < 1:
        raise DomainError(f"--init-prefix must be >= 1, got {args.init_prefix}")
    traj = run(series, cfg, init=args.init_prefix)
    score = mean_log_likelihood(traj, series, cfg.warmup)
    config = {**_io_config(args), **_config_dict(cfg),
              "init_prefix": args.init_prefix}
    manifest = _manifest("fit-adaptive", _digest_file(args.input),
                         config, args.output)
    manifest.append(f"mean_log_likelihood = {score!r}")
    write_trajectory_csv(args.output, traj, series.labels, manifest)
    print(f"mean_log_likelihood = {score!r}")
    return 0


def _cmd_fit_static(args) -> int:
    series = _read_series(args)
    values = series.values
    mu_policy = "mean" if args.mu == "mean" else float(args.mu)
    powers = []
    for p in (args.p_sigma, args.p1, args.p2):
        if p not in powers:
            powers.append(p)
    summary = compute_moments(values, powers, mu=mu_policy)
    if args.nu_fixed is not None:
        nu_raw = nu_adj = args.nu_fixed
    else:
        table = build_nu_table(args.p1, args.p2, nu_min=args.nu_min,
                               nu_cap=args.nu_cap)
        nu_raw = estimate_nu_raw(summary, table)
        nu_adj = estimate_nu_adjusted(nu_raw, args.nu_adjust, args.nu_cap)
    sigma_hat = estimate_sigma(summary, nu_adj, args.p_sigma)
    from .distribution import StudentTParams
    params = StudentTParams(summary.mu_hat, sigma_hat, nu_adj)
    score = mean_log_likelihood(params, values, args.warmup)
    config = {**_io_config(args), "mu": args.mu, "p_sigma": args.p_sigma,
              "p1": args.p1, "p2": args.p2, "nu_fixed": args.nu_fixed,
              "nu_adjust": args.nu_adjust, "nu_min": args.nu_min,
              "nu_cap": args.nu_cap, "warmup": args.warmup}
    manifest = _manifest("fit-static", _digest_file(args.input),
                         config, args.output)
    write_row_csv(args.output,
                  ["mu_hat", "sigma_hat", "nu_raw", "nu_adjusted",
                   "p_sigma", "mean_loglik", "n"],
                  [summary.mu_hat, sigma_hat, nu_raw, nu_adj,
                   args.p_sigma, score, len(values)],
                  manifest)
    print(f"mu_hat = {summary.mu_hat!r}")
    print(f"sigma_hat = {sigma_hat!r}")
    print(f"nu_adjusted = {nu_adj!r}")
    print(f"mean_log_likelihood = {score!r}")
    return 0


def _parse_inv_grid(text: str):
    cells = [c.strip() for c in text.split(",") if c.strip()]
    if not cells:
        raise DomainError("the 1/nu grid must not be empty")
    try:
        inv = [float(c) for c in cells]
    except ValueError as exc:
        raise DomainError(f"bad 1/nu grid: {exc}") from None
    return [nu_of_inv(v) for v in inv]


def _cmd_sweep(args) -> int:
    series = _read_series(args)
    # every row pins the center and fixes its own nu, lowering the power
    # where that nu has no finite moment of it, so only these settings
    # reach the rows; nu_fixed stands in for the per-row value
    cfg = AdaptiveConfig(eta2=args.eta2, p_sigma=args.p_sigma,
                         nu_fixed=NU_GAUSSIAN,
                         moment_floor=args.moment_floor, warmup=args.warmup)
    if args.inv_nu_grid is None:
        nu_grid = [nu_of_inv(i / 20.0) for i in range(21)]
    else:
        nu_grid = _parse_inv_grid(args.inv_nu_grid)
    report = nu_sweep(series, nu_grid, cfg, warmup=args.warmup)
    config = {**_io_config(args), "eta2": cfg.eta2, "p_sigma": cfg.p_sigma,
              "moment_floor": cfg.moment_floor, "warmup": cfg.warmup,
              "inv_nu_grid": args.inv_nu_grid or "default(0..1 step 0.05)"}
    manifest = _manifest("sweep", _digest_file(args.input), config,
                         args.output)
    write_sweep_csv(args.output, report, manifest)
    return 0


def _restrict_by_labels(series: ReturnSeries, start, end) -> ReturnSeries:
    if start is None and end is None:
        return series
    if series.labels is None:
        raise DomainError("--start-label/--end-label require --date-column")
    keep = [i for i, lab in enumerate(series.labels)
            if (start is None or lab[:len(start)] >= start)
            and (end is None or lab[:len(end)] <= end)]
    if not keep:
        raise DegenerateDataError("label range selects no rows")
    return ReturnSeries(series.values[keep], [series.labels[i] for i in keep],
                        series.source_id)


def _cmd_tail_table(args) -> int:
    series = _read_series(args)
    series = _restrict_by_labels(series, args.start_label, args.end_label)
    values = series.values
    nu_labels = [_nu_value(c.strip()) for c in args.nu_labels.split(",")
                 if c.strip()]
    if not nu_labels:
        raise DomainError("--nu-labels must not be empty")
    ks = range(1, args.k_max + 1)

    if args.normalization == "adaptive":
        cfg = _adaptive_config(args)
        k = min(args.init_prefix, len(values))
        state0 = seed_state_from_prefix(values, k, cfg)
        # explicit initial state: the fold starts at t=0 so every point
        # is normalized and counted
        traj = run(values, replace(cfg, warmup=0), init=state0)
        table = tail_table(values, traj, nu_labels, ks)
        extra = {"init_prefix": k}
    else:
        powers = []
        for p in (args.p_sigma, args.p1, args.p2):
            if p not in powers:
                powers.append(p)
        summary = compute_moments(values, powers, mu="mean")
        if args.nu_fixed is not None:
            nu_hat = args.nu_fixed
        else:
            inv_table = build_nu_table(args.p1, args.p2, nu_min=args.nu_min,
                                       nu_cap=args.nu_cap)
            nu_hat = estimate_nu_adjusted(estimate_nu_raw(summary, inv_table),
                                          args.nu_adjust, args.nu_cap)
        sigma_hat = estimate_sigma(summary, nu_hat, args.p_sigma)
        table = tail_table(values, (summary.mu_hat, sigma_hat), nu_labels, ks)
        extra = {"mu_hat": summary.mu_hat, "sigma_hat": sigma_hat,
                 "nu_hat": nu_hat}

    config = {**_io_config(args), **_config_dict(_adaptive_config(args)),
              "nu_labels": args.nu_labels, "k_max": args.k_max,
              "start_label": args.start_label, "end_label": args.end_label,
              **extra}
    manifest = _manifest("tail-table", _digest_file(args.input), config,
                         args.output)
    write_tail_csv(args.output, table, manifest)
    return 0


def _cmd_garch(args) -> int:
    series = _read_series(args)
    params = fit_garch_mle(series.values)
    _, score = garch_filter(series.values, params, warmup=args.warmup)
    config = {**_io_config(args), "warmup": args.warmup}
    manifest = _manifest("garch", _digest_file(args.input), config,
                         args.output)
    manifest.append(f"persistence_clamped = {params.persistence_clamped}")
    write_row_csv(args.output,
                  ["omega", "alpha", "beta", "initial_var",
                   "mean_loglik", "n"],
                  [params.omega, params.alpha, params.beta,
                   params.initial_var, score, len(series)],
                  manifest)
    print(f"omega = {params.omega!r}")
    print(f"alpha = {params.alpha!r}")
    print(f"beta = {params.beta!r}")
    print(f"mean_log_likelihood = {score!r}")
    return 0


def _parse_segment(text: str) -> Segment:
    parts = [c.strip() for c in text.split(",")]
    if len(parts) != 4:
        raise DomainError(f"--segment wants N,MU,SIGMA,NU, got {text!r}")
    try:
        return Segment(int(parts[0]), float(parts[1]), float(parts[2]),
                       _nu_value(parts[3]))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise DomainError(f"bad --segment {text!r}: {exc}") from None


def _parse_garch_scenario(text: str) -> GarchScenario:
    parts = [c.strip() for c in text.split(",")]
    if len(parts) not in (4, 5):
        raise DomainError(
            f"--garch wants N,OMEGA,ALPHA,BETA[,INITIAL_VAR], got {text!r}")
    try:
        init = float(parts[4]) if len(parts) == 5 else None
        return GarchScenario(int(parts[0]), float(parts[1]), float(parts[2]),
                             float(parts[3]), init)
    except ValueError as exc:
        raise DomainError(f"bad --garch {text!r}: {exc}") from None


def _cmd_synth(args) -> int:
    if args.garch is not None and args.segment:
        raise DomainError("--segment and --garch are mutually exclusive")
    if args.garch is not None:
        scenario = _parse_garch_scenario(args.garch)
        spec_text = f"garch:{args.garch}:seed={args.seed}"
    elif args.segment:
        scenario = [_parse_segment(s) for s in args.segment]
        spec_text = "segments:" + "|".join(args.segment) + f":seed={args.seed}"
    else:
        raise DomainError("synth needs at least one --segment or a --garch spec")
    series = generate_synthetic(scenario, args.seed)
    config = {"spec": spec_text, "seed": args.seed}
    manifest = _manifest("synth", _digest_text(spec_text), config, args.output)
    write_series_csv(args.output, series.values, None, manifest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="movingt",
        description="Adaptive method-of-moments estimation of Student-t "
                    "parameters for nonstationary time series.")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("returns", formatter_class=fmt,
                       help="convert a price CSV to log-returns (or pass "
                            "returns through)")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_returns)

    p = sub.add_parser("fit-adaptive", formatter_class=fmt,
                       help="moving estimation of (mu, sigma, nu); writes a "
                            "per-step trajectory CSV")
    _add_io_flags(p)
    _add_estimator_flags(p)
    p.add_argument("--moment-floor", type=float, default=1e-20)
    p.add_argument("--warmup", type=int, default=300,
                   help="steps excluded from the reported mean log-likelihood")
    p.add_argument("--init-prefix", type=int, default=300,
                   help="seed the state from this many leading points and "
                        "start the fold after them")
    p.set_defaults(func=_cmd_fit_adaptive)

    p = sub.add_parser("fit-static", formatter_class=fmt,
                       help="whole-sample moment estimates of (mu, sigma, nu)")
    _add_io_flags(p)
    _add_estimator_flags(p, with_rates=False)
    p.add_argument("--mu", default="mean",
                   help="'mean' or a fixed numeric center")
    p.add_argument("--warmup", type=int, default=0,
                   help="steps excluded from the reported mean log-likelihood")
    p.set_defaults(func=_cmd_fit_static)

    p = sub.add_parser("sweep", formatter_class=fmt,
                       help="fixed-nu likelihood sweep: static sigma-MLE vs "
                            "adaptive sigma, plus a GARCH(1,1) baseline")
    _add_io_flags(p)
    p.add_argument("--eta2", type=float, default=0.05,
                   help="EMA rate for the sigma moment")
    p.add_argument("--p-sigma", type=float, default=1.0,
                   help="power behind the sigma estimate; rows whose nu "
                        "has no finite moment of it use nu/2")
    p.add_argument("--moment-floor", type=float, default=1e-20)
    p.add_argument("--warmup", type=int, default=300)
    p.add_argument("--inv-nu-grid", default=None,
                   help="comma-separated 1/nu values (0 = Gaussian); "
                        "default 0,0.05,...,1")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("tail-table", formatter_class=fmt,
                       help="observed vs expected counts of |x-mu| > k*sigma")
    _add_io_flags(p)
    _add_estimator_flags(p)
    p.add_argument("--moment-floor", type=float, default=1e-20)
    p.add_argument("--warmup", type=int, default=300)
    p.add_argument("--init-prefix", type=int, default=300)
    p.add_argument("--normalization", choices=("adaptive", "static"),
                   default="adaptive")
    p.add_argument("--nu-labels", default="3,5,10,inf",
                   help="comma-separated nu values for the expected columns")
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--start-label", default=None,
                   help="keep rows whose date label is >= this prefix")
    p.add_argument("--end-label", default=None,
                   help="keep rows whose date label is <= this prefix")
    p.set_defaults(func=_cmd_tail_table)

    p = sub.add_parser("garch", formatter_class=fmt,
                       help="fit a Gaussian GARCH(1,1) baseline by MLE")
    _add_io_flags(p)
    p.add_argument("--warmup", type=int, default=300)
    p.set_defaults(func=_cmd_garch)

    p = sub.add_parser("synth", formatter_class=fmt,
                       help="generate a deterministic synthetic return series")
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--segment", action="append", default=[],
                   metavar="N,MU,SIGMA,NU",
                   help="append an i.i.d. segment (repeatable)")
    p.add_argument("--garch", default=None, metavar="N,OMEGA,ALPHA,BETA",
                   help="simulate a GARCH(1,1) path instead of segments")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MovingTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
