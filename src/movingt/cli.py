"""Command-line front end.

Commands: returns, fit-adaptive, fit-static, sweep, tail-table, garch,
synth.  Every emitted report embeds a manifest (command, resolved
configuration, input content hash) as comment-prefixed header lines, and
identical inputs plus flags produce byte-identical outputs.

A command holds only what its report needs.  `returns`, `fit-adaptive`
and adaptive `tail-table` take the input in pieces (`read_returns`) and
hold one at a time (adaptive `tail-table` also the first --init-prefix
points, until they seed the state).  `fit-static` and static
`tail-table` hold the values, 8 bytes a point, since their moments are
taken over the whole series, and score or count them in chunks.
`sweep` and `garch` hold the whole series and what their fits build
from it.  No command but `returns` and `fit-adaptive` prints a date, so
the others keep no date label: they still find --date-column and check
that every row has its date cell, and `tail-table` reads the labels
only to apply --start-label/--end-label to each piece.

Exit codes: 0 success, 2 usage/config error (including an input path
that is missing or not a regular file), 3 data error (unparseable or
unusable content), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import math
import os
import random
import stat
import sys
import types
from dataclasses import replace

import numpy as np

from .adaptive import (AdaptiveConfig, run_pieces, seed_state_from_prefix,
                       update)
from .baselines import (GarchParams, fit_garch_mle, garch_filter,
                        simulate_garch)
from .data_io import (ReturnSeries, Segment, TrajectoryWriter, _fmt,
                      generate_synthetic, join_values, read_returns,
                      write_row_csv, write_series_csv, write_sweep_csv,
                      write_tail_csv)
from .distribution import NU_GAUSSIAN
from .errors import (DegenerateDataError, DomainError, MonotonicityError,
                     MovingTError, NonConvergenceError, ParseError,
                     SeriesTooShortError)
from .evaluation import (ExactSum, TailCounts, check_warmup,
                         mean_log_likelihood, nu_of_inv, nu_sweep, score)
from .static_estimators import compute_moments, static_fit

# CPython's own SHA-256 gives the digest hashlib's does, without loading
# OpenSSL's libcrypto, which would add about 3.6 MB to every process's
# peak memory; it hashes about a fifth as fast
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12 on
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10 and 3.11
    except ImportError:  # an interpreter built without them
        from hashlib import sha256 as _sha256

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
    digest = _sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _digest_text(text: str) -> str:
    return _sha256(text.encode("utf-8")).hexdigest()


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


def _read_pieces(args, keep_labels=True):
    """The input's series in pieces (`read_returns`).

    The input is read twice, once to parse it and once for its digest
    (`_digest_file`), so it must be a regular file: a pipe would reach
    the second read empty.  That is checked here, before either read.
    """
    if not stat.S_ISREG(os.stat(args.input).st_mode):
        raise DomainError(
            f"--input {args.input!r} must be a regular file: the input "
            "is read twice, once to parse it and once for its digest")
    return read_returns(args.input, column=args.column,
                        date_column=args.date_column, kind=_kind(args),
                        keep_labels=keep_labels)


def _read_values(args) -> np.ndarray:
    """The input's series whole, without the date labels, which the
    command does not print; the date column is still checked."""
    return join_values(piece.values
                       for piece in _read_pieces(args, keep_labels=False))


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
    """(mu_hat, sigma_hat, nu_raw, nu): the maps at the whole-sample
    moments."""
    mu_hat, (m_sigma, m1, m2) = compute_moments(
        values, (args.p_sigma, args.p1, args.p2), mu=mu)
    return (mu_hat, *static_fit(
        m_sigma, m1, m2, p_sigma=args.p_sigma, p1=args.p1, p2=args.p2,
        nu_fixed=args.nu_fixed, nu_adjustment=args.nu_adjust,
        nu_min=args.nu_min, nu_cap=args.nu_cap))


def _cmd_returns(args) -> int:
    """Each piece of the input is written as it is read."""
    pieces = _read_pieces(args)
    manifest = _input_manifest(args, {})
    dated = args.date_column is not None
    header = ["date", "x"] if dated else ["x"]
    with TrajectoryWriter(args.output, header) as out:
        for piece in pieces:
            out.write([piece.labels] if dated else [], [piece.values])
        out.commit(manifest)
    return 0


def _cmd_fit_adaptive(args) -> int:
    """One pass over the input in chunks: read, fold, score and format
    the rows; the manifest, which holds the score, is written last."""
    cfg = _adaptive_config(args)
    check_warmup(args.warmup, math.inf)  # its sign; n is known at the end
    pieces = _read_pieces(args)
    total, n = ExactSum(), 0
    with TrajectoryWriter(args.output, ["t", "date", "x", "mu", "sigma", "nu",
                                        "log_density"]) as out:
        for points, traj in run_pieces(pieces, cfg, args.init_prefix):
            t = range(traj.start, traj.start + len(traj))
            log_density = np.empty(len(t))
            score(points.values, traj.mu, traj.sigma, traj.nu, total,
                  skip=max(args.warmup - traj.start, 0), out=log_density)
            out.write([t, points.labels], [points.values, traj.mu,
                                           traj.sigma, traj.nu, log_density])
            n = t.stop
        check_warmup(args.warmup, n)
        loglik = total.mean()
        manifest = _input_manifest(args, {
            **_flag_values(args, _ESTIMATOR_KEYS + _ADAPTIVE_KEYS),
            "warmup": args.warmup, "init_prefix": args.init_prefix})
        manifest.append(f"mean_log_likelihood = {loglik!r}")
        out.commit(manifest)
    print(f"mean_log_likelihood = {loglik!r}")
    return 0


def _cmd_fit_static(args) -> int:
    """The moments need the whole series, so its values are held, at 8
    bytes a point; the points are scored in chunks."""
    values = _read_values(args)
    try:
        mu = args.mu if args.mu == "mean" else float(args.mu)
    except ValueError:
        raise DomainError(
            f"--mu wants 'mean' or a number, got {args.mu!r}") from None
    mu_hat, sigma_hat, nu_raw, nu_adj = _static_fit(values, args, mu)
    check_warmup(args.warmup, len(values))
    loglik = score(values, mu_hat, sigma_hat, nu_adj, skip=args.warmup).mean()
    manifest = _input_manifest(args, {**_flag_values(args, _ESTIMATOR_KEYS),
                                      "mu": args.mu, "warmup": args.warmup})
    write_row_csv(args.output,
                  ["mu_hat", "sigma_hat", "nu_raw", "nu_adjusted",
                   "p_sigma", "mean_loglik", "n"],
                  [mu_hat, sigma_hat, nu_raw, nu_adj,
                   args.p_sigma, loglik, len(values)],
                  manifest)
    print(f"mu_hat = {mu_hat!r}")
    print(f"sigma_hat = {sigma_hat!r}")
    print(f"nu_adjusted = {nu_adj!r}")
    print(f"mean_log_likelihood = {loglik!r}")
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
    values = _read_values(args)
    if args.inv_nu_grid is None:
        nu_grid = [nu_of_inv(i / 20.0) for i in range(21)]
    else:
        nu_grid = [nu_of_inv(v) for v in
                   _parse_list(args.inv_nu_grid, float, "--inv-nu-grid")]
    report = nu_sweep(values, nu_grid, args.warmup, eta2=args.eta2,
                      p_sigma=args.p_sigma, moment_floor=args.moment_floor)
    manifest = _input_manifest(args, {
        **_flag_values(args, ("eta2", "p_sigma", "moment_floor", "warmup")),
        "inv_nu_grid": args.inv_nu_grid or "default(0..1 step 0.05)"})
    write_sweep_csv(args.output, report, manifest)
    return 0


def _tail_values(args):
    """The values tail-table counts, in pieces.  Dates are read only for
    --start-label/--end-label, and dropped once a piece is restricted to
    the rows whose date label lies in the range."""
    start, end = args.start_label, args.end_label
    if start is None and end is None:
        for piece in _read_pieces(args, keep_labels=False):
            yield piece.values
        return
    if args.date_column is None:
        raise DomainError("--start-label/--end-label require --date-column")
    found = False
    for piece in _read_pieces(args):
        keep = [i for i, lab in enumerate(piece.labels)
                if (start is None or lab[:len(start)] >= start)
                and (end is None or lab[:len(end)] <= end)]
        if keep:
            found = True
            yield piece.values[keep]
    if not found:
        raise DegenerateDataError("label range selects no rows")


def _count_adaptive(pieces, cfg, init_prefix, counts) -> int:
    """Count the pieces' points against the moving estimate, one piece at
    a time, and return k = min(init_prefix, n).

    The state is seeded from the first k points, and the fold then
    starts at t = 0 from it, so every point is normalized and counted,
    the first k too, with moments they helped form.
    """
    head, n = [], 0
    for piece in pieces:
        head.append(piece)
        n += len(piece)
        if n >= init_prefix:
            break
    first = np.concatenate(head)
    k = min(init_prefix, first.size)
    state = seed_state_from_prefix(first, k, cfg)
    for values in itertools.chain([first], pieces):
        state, traj = update(state, values, cfg)
        counts.add(values, traj.mu, traj.sigma)
    return k


def _cmd_tail_table(args) -> int:
    """Adaptive normalization folds and counts piece by piece; static
    needs the whole-sample moments, so it holds the values, at 8 bytes a
    point, and counts them in chunks."""
    adaptive = args.normalization == "adaptive"
    if not adaptive and args.adaptive_only:
        raise DomainError(f"{args.adaptive_only[0]} applies only to "
                          "--normalization adaptive")
    nu_labels = _parse_list(args.nu_labels, _nu_value, "--nu-labels")
    counts = TailCounts(range(1, args.k_max + 1))
    config = {**_flag_values(args, _ESTIMATOR_KEYS),
              "nu_labels": args.nu_labels, "k_max": args.k_max,
              "start_label": args.start_label, "end_label": args.end_label}
    pieces = _tail_values(args)
    if adaptive:
        cfg = _adaptive_config(args)
        k = _count_adaptive(pieces, cfg, args.init_prefix, counts)
        config.update(_flag_values(args, _ADAPTIVE_KEYS), init_prefix=k)
    else:
        values = join_values(pieces)
        mu_hat, sigma_hat, _, nu = _static_fit(values, args)
        counts.add(values, mu_hat, sigma_hat)
        config.update(mu_hat=mu_hat, sigma_hat=sigma_hat, nu_hat=nu)
    table = counts.table(nu_labels)

    write_tail_csv(args.output, table, _input_manifest(args, config) + [
        f"n_effective = {table.n_effective}",
        f"normalization = {args.normalization}"])
    return 0


def _cmd_garch(args) -> int:
    values = _read_values(args)
    check_warmup(args.warmup, len(values))
    params = fit_garch_mle(values)
    loglik = mean_log_likelihood(garch_filter(values, params), values,
                                 args.warmup)
    manifest = _input_manifest(args, {"warmup": args.warmup})
    manifest.append(f"persistence_clamped = {params.persistence_clamped}")
    write_row_csv(args.output,
                  ["omega", "alpha", "beta", "initial_var",
                   "mean_loglik", "n"],
                  [params.omega, params.alpha, params.beta,
                   params.initial_var, loglik, len(values)],
                  manifest)
    print(f"omega = {params.omega!r}")
    print(f"alpha = {params.alpha!r}")
    print(f"beta = {params.beta!r}")
    print(f"mean_log_likelihood = {loglik!r}")
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


def _import_numpy_random():
    """Import numpy.random without OpenSSL.

    Its bit generators take `secrets.randbits` for unseeded entropy, and
    `secrets` imports hmac, which loads libcrypto (3 MB of a `synth`
    process's peak memory).  The import sees a stand-in `secrets` whose
    `randbits` is the one `secrets` defines,
    `random.SystemRandom().getrandbits`; the stand-in is gone once
    numpy.random is in.  A numpy that wants more of `secrets` fails
    here, and takes the real module when `np.random` is first used.
    """
    if "numpy.random" in sys.modules or "secrets" in sys.modules:
        return
    stand_in = types.ModuleType("secrets")
    stand_in.randbits = random.SystemRandom().getrandbits
    sys.modules["secrets"] = stand_in
    try:
        importlib.import_module("numpy.random")
    except ImportError:
        pass
    finally:
        del sys.modules["secrets"]


def _cmd_synth(args) -> int:
    _import_numpy_random()
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
    if len(series) == 0:  # a report with no rows reads back as an error
        raise DomainError("synth needs a length > 0, got 0 points")
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
