"""Child processes of the benchmark.

    python perfbench/child.py cli --spans OUT.json -- <movingt cli args>
    python perfbench/child.py stream --input CSV --steps N --seconds S \
        --out OUT.json [--spans SPANS.json] [--serve]
    python perfbench/child.py spawner

``cli`` is one traced CLI call, ``stream`` the streaming loop (traced
with --spans), and ``spawner`` starts the other children for the
harness.  Linux carries a parent's peak RSS into a forked child's
``ru_maxrss``, so children forked from the harness, which holds numpy,
scipy and the reference arrays, would report at least the harness's
size.  Forked from this bare interpreter instead, each child's peak is
its own.

Tracing wraps movingt's public functions in every module namespace they
are looked up from (``cli.run``, ``evaluation.run``, ``adaptive.run``,
...) and records one span per call: name, start, end, parent, rows and
bytes.  Spans stay in memory and are written when the process ends.
Times come from ``time.monotonic_ns`` (CLOCK_MONOTONIC on Linux, shared
with the parent), so the parent can place child spans on its own clock.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import subprocess
import sys
import threading
import time

# layer -> public functions whose calls become spans named "<layer>.<fn>"
LAYER_FUNCTIONS = {
    "data_io": ("read_csv", "to_log_returns", "write_series_csv",
                "write_trajectory_csv", "write_sweep_csv", "write_tail_csv",
                "write_row_csv"),
    "static_estimators": ("build_nu_table", "compute_moments", "estimate_sigma",
                          "estimate_nu_raw", "estimate_nu_adjusted"),
    "adaptive": ("run", "step", "seed_state_from_prefix"),
    "evaluation": ("mean_log_likelihood", "nu_sweep", "tail_table"),
    "baselines": ("fit_sigma_mle", "fit_garch_mle", "garch_filter"),
}
# solver work counted without spans: (module, name looked up there) -> counter
CALL_COUNTERS = {
    ("baselines", "_garch_mean_loglik"): "baselines.fit_garch_mle.nfev",
    ("baselines", "log_pdf"): "baselines.fit_sigma_mle.evals",
}
# rows handled by one call, from (args, result)
ROWS = {
    "data_io.read_csv": lambda args, result: len(result),
    "data_io.to_log_returns": lambda args, result: len(result),
    "data_io.write_series_csv": lambda args, result: len(args[1]),
    "data_io.write_trajectory_csv": lambda args, result: len(args[1]),
    "adaptive.run": lambda args, result: len(result),
}


class Tracer:
    """In-memory span recorder: [name, start_ns, end_ns, parent, rows, bytes]."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def span(self, name, fn):
        spans, stack = self.spans, self._stack
        rows = ROWS.get(name)
        writer = name.startswith("data_io.write_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.monotonic_ns(), 0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.monotonic_ns()
                stack.pop()
            if rows is not None:
                rec[4] = rows(args, result)
            if writer:
                rec[5] = os.path.getsize(args[0])
            return result
        return traced

    def counter(self, name, fn):
        counters = self.counters
        counters[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Patch every movingt module namespace that binds a traced function."""
        import movingt  # noqa: F401  (loads every library module)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "movingt" or n.startswith("movingt."))]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules.get(f"movingt.{layer}")
            for fn_name in names:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = self.span(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        for (module, attr), name in CALL_COUNTERS.items():
            mod = sys.modules.get(f"movingt.{module}")
            if mod is not None and hasattr(mod, attr):
                setattr(mod, attr, self.counter(name, getattr(mod, attr)))

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters, **extra}, fh)


def _cli(args):
    import movingt.cli as cli
    import_done = time.monotonic_ns()
    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(args.argv)
    finally:
        sys.stdout.flush()
        tracer.dump(args.spans, import_done=import_done)
    return rc


def _percentile(sorted_values, q):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _stream(args):
    """Feed observations one at a time to adaptive.step and time each call."""
    from movingt import adaptive, data_io
    import_done = time.monotonic_ns()
    # imported here, not at the top: the spawner must stay a bare interpreter
    from reference import INIT_PREFIX
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    values = data_io.read_csv(args.input).values
    cfg = adaptive.AdaptiveConfig()
    state0 = adaptive.seed_state_from_prefix(values, INIT_PREFIX, cfg)
    points = values[INIT_PREFIX:INIT_PREFIX + args.steps]
    xs = points.tolist()
    step, clock = adaptive.step, time.perf_counter_ns

    def one_pass():
        lat = [0] * len(xs)
        state, est = state0, None
        start = time.monotonic_ns()
        for i, x in enumerate(xs):
            t0 = clock()
            state, est = step(state, x, cfg)
            lat[i] = clock() - t0
        end = time.monotonic_ns()
        lat.sort()
        return {"start_ns": start, "end_ns": end, "steps": len(xs),
                "p50_us": _percentile(lat, 0.50) / 1e3,
                "p99_us": _percentile(lat, 0.99) / 1e3,
                "final": [est.mu, est.sigma, est.nu]}

    passes = []
    if args.serve:
        # one pass per request line, so the caller can spread passes over time
        print("ready", flush=True)
        for _ in sys.stdin:
            passes.append(one_pass())
            print("done", flush=True)
    else:
        deadline = time.monotonic() + args.seconds
        while not passes or time.monotonic() < deadline:
            passes.append(one_pass())
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(args.spans, import_done=import_done)
    # the batch fold over the same points, for the agreement check; after
    # the peak-memory reading and outside the trace, so it costs neither
    traj = adaptive.run(points, cfg, init=state0)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "peak_rss_kb": peak_rss_kb,
                   "run_final": [float(traj.mu[-1]), float(traj.sigma[-1]),
                                 float(traj.nu[-1])]}, fh)
    return 0


def _spawner():
    """Serve requests {argv, log, timeout} from stdin, one child at a time."""
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"] + ".out", "wb") as out, open(req["log"] + ".err", "wb") as err:
            start = time.monotonic_ns()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.monotonic_ns()
        print(json.dumps({"rc": os.waitstatus_to_exitcode(status), "start_ns": start,
                          "end_ns": end, "rss_kb": usage.ru_maxrss}), flush=True)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("stream")
    p.add_argument("--input", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--serve", action="store_true",
                   help="run one pass per line read from stdin, until EOF")
    sub.add_parser("spawner")
    args = ap.parse_args()
    if args.mode == "spawner":
        return _spawner()
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return _cli(args)
    return _stream(args)


if __name__ == "__main__":
    sys.exit(main())
