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
import math
import sys
from dataclasses import replace

import numpy as np

from .adaptive import (AdaptiveConfig, ParamTrajectory, run, run_pieces,
                       seed_state_from_prefix)
from .baselines import (GarchParams, fit_garch_mle, garch_filter,
                        simulate_garch)
from .data_io import (ReturnSeries, Segment, TrajectoryWriter, _fmt,
                      generate_synthetic, read_csv, read_returns,
                      write_row_csv, write_series_csv, write_sweep_csv,
                      write_tail_csv)
from .distribution import NU_GAUSSIAN, log_density
from .errors import (DegenerateDataError, DomainError, MonotonicityError,
                     MovingTError, NonConvergenceError, ParseError,
                     SeriesTooShortError)
from .evaluation import (ExactSum, check_warmup, mean_log_likelihood,
                         nu_of_inv, nu_sweep, tail_table)
from .static_estimators import compute_moments, static_fit

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
    """sha256 of the file's bytes, read in 64 KiB blocks: two live 1 MiB
    blocks would set fit-adaptive's peak memory, since the trajectory's
    text never passes through this process."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


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


def _add_estimator_flags(p):
    p.add_argument("--p-sigma", type=float, default=AdaptiveConfig.p_sigma,
                   help="power behind the sigma estimate")
    p.add_argument("--p1", type=float, default=AdaptiveConfig.p1,
                   help="first power behind the nu estimate")
    p.add_argument("--p2", type=float, default=AdaptiveConfig.p2,
                   help="second power behind the nu estimate")
    p.add_argument("--nu-fixed", type=_nu_value,
                   default=AdaptiveConfig.nu_fixed,
                   help="hold nu fixed at this value ('inf' for Gaussian)")
    p.add_argument("--nu-adjust", type=float,
                   default=AdaptiveConfig.nu_adjustment,
                   help="additive adjustment applied to the raw nu estimate")
    p.add_argument("--nu-min", type=float, default=AdaptiveConfig.nu_min,
                   help="lower clamp of the nu inversion table")
    p.add_argument("--nu-cap", type=float, default=AdaptiveConfig.nu_cap,
                   help="upper clamp of the nu estimate")


class _AdaptiveOnly(argparse.Action):
    """Store the value and note the flag, which static normalization refuses."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.adaptive_only += (option_string,)


def _add_adaptive_flags(p, init_help, action="store"):
    p.add_argument("--eta1", type=float, default=AdaptiveConfig.eta1,
                   action=action, help="EMA rate for the center mu")
    p.add_argument("--eta2", type=float, default=AdaptiveConfig.eta2,
                   action=action, help="EMA rate for the sigma moment")
    p.add_argument("--eta3", type=float, default=AdaptiveConfig.eta3,
                   action=action, help="EMA rate for the two nu moments")
    p.add_argument("--moment-floor", type=float,
                   default=AdaptiveConfig.moment_floor, action=action,
                   help="floor under the moment EMAs")
    p.add_argument("--init-prefix", type=int, default=300, action=action,
                   help=init_help)


def _kind(args) -> str:
    return "prices" if args.prices else "returns"


def _read_series(args) -> ReturnSeries:
    return read_csv(args.input, column=args.column,
                    date_column=args.date_column, kind=_kind(args))


def _input_manifest(args, config: dict) -> list:
    """Manifest of a command that reads --input: I/O flags plus `config`."""
    io = {"input": args.input, "mode": _kind(args),
          "column": args.column, "date_column": args.date_column}
    return _manifest(args.command, _digest_file(args.input),
                     {**io, **config}, args.output)


_ESTIMATOR_KEYS = ("p_sigma", "p1", "p2", "nu_fixed", "nu_adjust", "nu_min",
                   "nu_cap")
_ADAPTIVE_KEYS = ("eta1", "eta2", "eta3", "moment_floor")


def _flag_values(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys}


def _adaptive_config(args) -> AdaptiveConfig:
    """The moving estimator's config; also checks --init-prefix."""
    if args.init_prefix < 1:
        raise DomainError(f"--init-prefix must be >= 1, got {args.init_prefix}")
    return AdaptiveConfig(
        eta1=args.eta1, eta2=args.eta2, eta3=args.eta3,
        p_sigma=args.p_sigma, p1=args.p1, p2=args.p2,
        nu_fixed=args.nu_fixed, nu_adjustment=args.nu_adjust,
        nu_min=args.nu_min, nu_cap=args.nu_cap,
        moment_floor=args.moment_floor)


def _static_fit(values, args, mu="mean"):
    """The maps at the whole-sample moments, as the trajectory over
    values that never moves, and nu_raw.  Its log-density column is a
    NaN placeholder: `fit-static`, which scores, fills it in."""
    mu_hat, (m_sigma, m1, m2) = compute_moments(
        values, (args.p_sigma, args.p1, args.p2), mu=mu)
    sigma_hat, nu_raw, nu = static_fit(
        m_sigma, m1, m2, p_sigma=args.p_sigma, p1=args.p1, p2=args.p2,
        nu_fixed=args.nu_fixed, nu_adjustment=args.nu_adjust,
        nu_min=args.nu_min, nu_cap=args.nu_cap)
    n = len(values)
    traj = ParamTrajectory(0, *(np.broadcast_to(v, n) for v in
                                (mu_hat, sigma_hat, nu, math.nan)))
    return traj, nu_raw


def _cmd_returns(args) -> int:
    series = _read_series(args)
    manifest = _input_manifest(args, {})
    write_series_csv(args.output, series.values, series.labels, manifest)
    return 0


def _cmd_fit_adaptive(args) -> int:
    """One pass over the input in chunks: read, fold, score and format
    the rows; the manifest, which holds the score, is written last."""
    cfg = _adaptive_config(args)
    check_warmup(args.warmup, math.inf)  # its sign; n is known at the end
    pieces = read_returns(args.input, column=args.column,
                          date_column=args.date_column, kind=_kind(args))
    total, n = ExactSum(), 0
    with TrajectoryWriter(args.output) as out:
        for points, traj in run_pieces(pieces, cfg, args.init_prefix):
            total.add(traj.log_density[max(args.warmup - traj.start, 0):])
            out.write(traj, points.values, points.labels)
            n = traj.start + len(traj)
        check_warmup(args.warmup, n)
        score = total.mean()
        manifest = _input_manifest(args, {
            **_flag_values(args, _ESTIMATOR_KEYS + _ADAPTIVE_KEYS),
            "warmup": args.warmup, "init_prefix": args.init_prefix})
        manifest.append(f"mean_log_likelihood = {score!r}")
        out.commit(manifest)
    print(f"mean_log_likelihood = {score!r}")
    return 0


def _cmd_fit_static(args) -> int:
    series = _read_series(args)
    values = series.values
    try:
        mu = args.mu if args.mu == "mean" else float(args.mu)
    except ValueError:
        raise DomainError(
            f"--mu wants 'mean' or a number, got {args.mu!r}") from None
    traj, nu_raw = _static_fit(values, args, mu)
    mu_hat, sigma_hat, nu_adj = (v[0].item()
                                 for v in (traj.mu, traj.sigma, traj.nu))
    traj = replace(traj, log_density=log_density(values, mu_hat, sigma_hat,
                                                 nu_adj))
    score = mean_log_likelihood(traj, values, args.warmup)
    manifest = _input_manifest(args, {**_flag_values(args, _ESTIMATOR_KEYS),
                                      "mu": args.mu, "warmup": args.warmup})
    write_row_csv(args.output,
                  ["mu_hat", "sigma_hat", "nu_raw", "nu_adjusted",
                   "p_sigma", "mean_loglik", "n"],
                  [mu_hat, sigma_hat, nu_raw, nu_adj,
                   args.p_sigma, score, len(values)],
                  manifest)
    print(f"mu_hat = {mu_hat!r}")
    print(f"sigma_hat = {sigma_hat!r}")
    print(f"nu_adjusted = {nu_adj!r}")
    print(f"mean_log_likelihood = {score!r}")
    return 0


def _parse_list(text: str, convert, flag: str) -> list:
    """Comma-separated values; a bad cell or an empty list is a usage error."""
    try:
        values = [convert(c.strip()) for c in text.split(",") if c.strip()]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise DomainError(f"bad {flag}: {exc}") from None
    if not values:
        raise DomainError(f"{flag} must not be empty")
    return values


def _cmd_sweep(args) -> int:
    series = _read_series(args)
    if args.inv_nu_grid is None:
        nu_grid = [nu_of_inv(i / 20.0) for i in range(21)]
    else:
        nu_grid = [nu_of_inv(v) for v in
                   _parse_list(args.inv_nu_grid, float, "--inv-nu-grid")]
    report = nu_sweep(series, nu_grid, args.warmup, eta2=args.eta2,
                      p_sigma=args.p_sigma, moment_floor=args.moment_floor)
    manifest = _input_manifest(args, {
        **_flag_values(args, ("eta2", "p_sigma", "moment_floor", "warmup")),
        "inv_nu_grid": args.inv_nu_grid or "default(0..1 step 0.05)"})
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
    return ReturnSeries(series.values[keep], [series.labels[i] for i in keep])


def _cmd_tail_table(args) -> int:
    adaptive = args.normalization == "adaptive"
    if not adaptive and args.adaptive_only:
        raise DomainError(f"{args.adaptive_only[0]} applies only to "
                          "--normalization adaptive")
    series = _read_series(args)
    series = _restrict_by_labels(series, args.start_label, args.end_label)
    values = series.values
    nu_labels = _parse_list(args.nu_labels, _nu_value, "--nu-labels")
    ks = range(1, args.k_max + 1)
    config = {**_flag_values(args, _ESTIMATOR_KEYS),
              "nu_labels": args.nu_labels, "k_max": args.k_max,
              "start_label": args.start_label, "end_label": args.end_label}

    if adaptive:
        cfg = _adaptive_config(args)
        k = min(args.init_prefix, len(values))
        state0 = seed_state_from_prefix(values, k, cfg)
        # explicit initial state: the fold starts at t=0 so every point
        # is normalized and counted
        traj = run(values, cfg, init=state0)
        config.update(_flag_values(args, _ADAPTIVE_KEYS), init_prefix=k)
    else:
        traj, _ = _static_fit(values, args)
        config.update(mu_hat=traj.mu[0], sigma_hat=traj.sigma[0],
                      nu_hat=traj.nu[0])
    table = tail_table(values, traj, nu_labels, ks)

    write_tail_csv(args.output, table, _input_manifest(args, config) + [
        f"n_effective = {table.n_effective}",
        f"normalization = {args.normalization}"])
    return 0


def _cmd_garch(args) -> int:
    series = _read_series(args)
    check_warmup(args.warmup, len(series))
    params = fit_garch_mle(series.values)
    score = mean_log_likelihood(garch_filter(series.values, params),
                                series.values, args.warmup)
    manifest = _input_manifest(args, {"warmup": args.warmup})
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


def _parse_garch(text: str):
    """N,OMEGA,ALPHA,BETA[,INITIAL_VAR] -> (N, GarchParams); the start
    variance defaults to the stationary omega / (1 - alpha - beta)."""
    parts = [c.strip() for c in text.split(",")]
    if len(parts) not in (4, 5):
        raise DomainError(
            f"--garch wants N,OMEGA,ALPHA,BETA[,INITIAL_VAR], got {text!r}")
    try:
        init = float(parts[4]) if len(parts) == 5 else None
        n, omega, alpha, beta = (int(parts[0]), float(parts[1]),
                                 float(parts[2]), float(parts[3]))
        if n < 0:
            raise DomainError(f"length must be >= 0, got {n!r}")
        # checked with a stand-in start variance first, so alpha + beta < 1
        # holds before the stationary variance divides by 1 - alpha - beta
        params = GarchParams(omega, alpha, beta, 1.0 if init is None else init)
        if init is None:
            params = replace(params, initial_var=omega / (1.0 - alpha - beta))
        return n, params
    except ValueError as exc:
        raise DomainError(f"bad --garch {text!r}: {exc}") from None


def _cmd_synth(args) -> int:
    if args.garch is not None and args.segment:
        raise DomainError("--segment and --garch are mutually exclusive")
    if args.garch is not None:
        n, params = _parse_garch(args.garch)
        series = ReturnSeries(
            simulate_garch(np.random.default_rng(args.seed), n, params))
        spec_text = f"garch:{args.garch}:seed={args.seed}"
    elif args.segment:
        series = generate_synthetic([_parse_segment(s) for s in args.segment],
                                    args.seed)
        spec_text = "segments:" + "|".join(args.segment) + f":seed={args.seed}"
    else:
        raise DomainError("synth needs at least one --segment or a --garch spec")
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
    _add_adaptive_flags(p, "seed the state from this many leading points "
                           "and start the fold after them")
    p.add_argument("--warmup", type=int, default=300,
                   help="score steps with t >= this; the fold starts at "
                        "t = --init-prefix, so values up to it exclude nothing")
    p.set_defaults(func=_cmd_fit_adaptive)

    p = sub.add_parser("fit-static", formatter_class=fmt,
                       help="whole-sample moment estimates of (mu, sigma, nu)")
    _add_io_flags(p)
    _add_estimator_flags(p)
    p.add_argument("--mu", default="mean",
                   help="'mean' or a fixed numeric center")
    p.add_argument("--warmup", type=int, default=0,
                   help="steps excluded from the reported mean log-likelihood")
    p.set_defaults(func=_cmd_fit_static)

    p = sub.add_parser("sweep", formatter_class=fmt,
                       help="fixed-nu likelihood sweep: static sigma-MLE vs "
                            "adaptive sigma, plus a GARCH(1,1) baseline")
    _add_io_flags(p)
    p.add_argument("--eta2", type=float, default=AdaptiveConfig.eta2,
                   help="EMA rate for the sigma moment")
    p.add_argument("--p-sigma", type=float, default=AdaptiveConfig.p_sigma,
                   help="power behind the sigma estimate; rows whose nu "
                        "has no finite moment of it use nu/2")
    p.add_argument("--moment-floor", type=float,
                   default=AdaptiveConfig.moment_floor)
    p.add_argument("--warmup", type=int, default=300,
                   help="seed the adaptive state from this many leading "
                        "points and score every model from this index on")
    p.add_argument("--inv-nu-grid", default=None,
                   help="comma-separated 1/nu values (0 = Gaussian); "
                        "default 0,0.05,...,1")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("tail-table", formatter_class=fmt,
                       help="observed vs expected counts of |x-mu| > k*sigma")
    _add_io_flags(p)
    _add_estimator_flags(p)
    p.add_argument("--normalization", choices=("adaptive", "static"),
                   default="adaptive",
                   help="per-step moving estimate, or one whole-sample fit")
    _add_adaptive_flags(
        p.add_argument_group("adaptive normalization only",
                             "refused with --normalization static"),
        "seed the state from this many leading points; every point is "
        "still normalized", action=_AdaptiveOnly)
    p.add_argument("--nu-labels", default="3,5,10,inf",
                   help="comma-separated nu values for the expected columns")
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--start-label", default=None,
                   help="keep rows whose date label is >= this prefix")
    p.add_argument("--end-label", default=None,
                   help="keep rows whose date label is <= this prefix")
    p.set_defaults(func=_cmd_tail_table, adaptive_only=())

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
