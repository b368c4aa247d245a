"""Seeded workload inputs and their reference values, made without movingt.

The program under test never generates its own benchmark inputs, so a
change to its synthetic-data code cannot change a workload.  Every file
is written once per seed into a cache directory and identified by its
SHA-256 from then on.  The directory name carries a digest of this file
and of reference.py, so a change to either makes new inputs and
references instead of reusing stale ones.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

import reference

# ~one century of trading days, the paper's scale
CENTURY_RETURNS = 27_000
# ~ten centuries: large enough that the fold and the writer dominate,
# small enough that a pure-Python fold finishes a run in seconds
LONG_RETURNS = 300_000
# observations fed one at a time to the streaming API, after the
# reference.INIT_PREFIX points that seed its state
STREAM_STEPS = 100_000
# streaming probe of the batch workloads: steps per pass
PROBE_STEPS = 20_000


def _student_t(rng, n, nu):
    if not np.isfinite(nu):
        return rng.standard_normal(n)
    return rng.standard_normal(n) / np.sqrt(rng.standard_gamma(0.5 * nu, n) / (0.5 * nu))


def _regimes(rng, n, n_regimes, sigma_range, nu_choices):
    """Piecewise i.i.d. Student-t returns with random regime boundaries."""
    cuts = np.sort(rng.choice(np.arange(1, n), n_regimes - 1, replace=False))
    bounds = np.concatenate(([0], cuts, [n]))
    lo, hi = np.log(sigma_range[0]), np.log(sigma_range[1])
    out = np.empty(n)
    for a, b in zip(bounds[:-1], bounds[1:]):
        sigma = float(np.exp(rng.uniform(lo, hi)))
        nu = float(rng.choice(nu_choices))
        out[a:b] = rng.uniform(-2e-4, 4e-4) + sigma * _student_t(rng, b - a, nu)
    return out


def century_prices(rng):
    """(dates, prices): heavy-tailed daily prices with volatility regimes.

    Log returns are piecewise i.i.d. Student-t, with the scale and the
    tail index switching at four random dates.
    """
    x = _regimes(rng, CENTURY_RETURNS, 5, (0.005, 0.03), (3.0, 4.0, 5.0, 8.0))
    prices = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(x))))
    days = np.busday_offset("1900-01-02", np.arange(prices.size), roll="forward")
    return np.datetime_as_string(days, unit="D").tolist(), prices


def long_returns(rng):
    """Returns with sigma/nu regime switches, exact-zero runs and outliers.

    One zero run (15000 steps, a long suspension) lasts until the center
    EMA, and with it the sigma moment EMA, decays under the default moment
    floor; the zero runs push the tail-moment ratio out of the inversion
    table, so both nu clamps are exercised.
    """
    n = LONG_RETURNS
    x = _regimes(rng, n, 12, (0.004, 0.04), (2.5, 3.0, 5.0, 10.0, 30.0, np.inf))
    spikes = rng.choice(np.arange(2000, n), 12, replace=False)
    local = np.array([np.abs(x[s - 2000:s]).mean() for s in spikes])
    x[spikes] = rng.choice([-1.0, 1.0], spikes.size) * rng.uniform(20.0, 60.0, spikes.size) * local
    starts = rng.choice(np.arange(1000, n - 20000), 21, replace=False)
    for i, s in enumerate(starts):
        x[s:s + (15000 if i == 0 else int(rng.integers(5, 400)))] = 0.0
    return x


def stream_returns(rng):
    return _regimes(rng, reference.INIT_PREFIX + STREAM_STEPS, 3, (0.005, 0.03),
                    (3.0, 5.0, 10.0))


def _write_series(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(rows)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


INPUT_FILES = ("prices.csv", "long.csv", "stream.csv")


def code_digest():
    """SHA-256 of the code that makes the inputs and the reference values."""
    here = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in ("inputs.py", "reference.py"):
        h.update(_sha256(os.path.join(here, name)).encode())
    return h.hexdigest()


def ensure_inputs(cache_dir, seed):
    """Write the seed's input files once; return (directory, {name: sha256}).

    A digest file is written last, so an interrupted generation is
    redone, and a file whose content no longer matches is rejected.
    """
    seed_dir = os.path.join(cache_dir, f"seed-{seed}-{code_digest()[:16]}")
    digest_path = os.path.join(seed_dir, "inputs.sha256.json")
    if os.path.exists(digest_path):
        with open(digest_path, encoding="utf-8") as fh:
            digests = json.load(fh)
        for name, want in digests.items():
            if _sha256(os.path.join(seed_dir, name)) != want:
                raise RuntimeError(f"cached input {name} for seed {seed} was modified")
        return seed_dir, digests

    os.makedirs(seed_dir, exist_ok=True)
    # one independent stream per file, so each file depends only on the seed
    r_prices, r_long, r_stream = (np.random.default_rng([seed, k]) for k in range(3))
    dates, prices = century_prices(r_prices)
    _write_series(os.path.join(seed_dir, "prices.csv"), "date,close",
                  (f"{d},{p!r}\n" for d, p in zip(dates, prices.tolist())))
    _write_series(os.path.join(seed_dir, "long.csv"), "x",
                  (f"{v!r}\n" for v in long_returns(r_long).tolist()))
    _write_series(os.path.join(seed_dir, "stream.csv"), "x",
                  (f"{v!r}\n" for v in stream_returns(r_stream).tolist()))
    digests = {name: _sha256(os.path.join(seed_dir, name)) for name in INPUT_FILES}
    with open(digest_path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
    return seed_dir, digests


def load_prices(seed_dir):
    dates, prices = [], []
    with open(os.path.join(seed_dir, "prices.csv"), encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            d, p = line.rstrip("\n").split(",")
            dates.append(d)
            prices.append(float(p))
    return dates, np.array(prices)


def load_returns(seed_dir, name):
    with open(os.path.join(seed_dir, name), encoding="utf-8") as fh:
        next(fh)
        return np.array([float(line) for line in fh])


def _returns(seed_dir, workload):
    """(dates, returns) the workload's program run sees."""
    if workload == "century-pipeline":
        dates, prices = load_prices(seed_dir)
        return dates[1:], np.log(prices[1:] / prices[:-1])
    name = "long.csv" if workload == "fit-long" else "stream.csv"
    return None, load_returns(seed_dir, name)


def _step_final(x, steps):
    """Estimate at the last of `steps` streamed points after the prefix."""
    p = reference.INIT_PREFIX
    mu, sigma, nu, _ = reference.fold(x[p:p + steps], reference.prefix_state(x, p))
    return [float(mu[-1]), float(sigma[-1]), float(nu[-1])]


def workload_reference(seed_dir, workload):
    """Reference values for the seed, computed once and kept with its inputs."""
    dates, x = _returns(seed_dir, workload)
    path = os.path.join(seed_dir, f"reference-{workload}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            ref = json.load(fh)
    else:
        if workload == "century-pipeline":
            ref = {"static": reference.fit_static(x), "adaptive": reference.fit_adaptive(x),
                   "tail": reference.tail_counts(x), "sweep": reference.sweep(x),
                   "step_final": _step_final(x, PROBE_STEPS)}
        elif workload == "fit-long":
            ref = {"adaptive": reference.fit_adaptive(x), "step_final": _step_final(x, PROBE_STEPS)}
        else:
            ref = {"step_final": _step_final(x, STREAM_STEPS)}
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(ref, fh)
        os.replace(path + ".tmp", path)
    ref["x"], ref["dates"] = x, dates
    return ref
