#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the movingt CLI and library.

Run from the repository root:

    python3 perfbench/run.py --workload century-pipeline --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json

Workloads (closed loop: one caller, one program process at a time, BLAS
and OpenMP threads pinned to 1 in every child):

  century-pipeline  ~27k-row daily price CSV with dates; five CLI processes
                    in sequence: returns, fit-static, fit-adaptive,
                    tail-table, sweep.  The paper user's run; import, the
                    21 sweep folds and the GARCH fit dominate.
  fit-long          one fit-adaptive process over 3e5 synthetic returns
                    with regime switches, exact-zero runs and outliers.
                    The fold, the trajectory writer and the reader dominate.
  stream-step       one process feeding 1e5 observations one at a time to
                    adaptive.step; per-call overhead dominates.

--trace 0 measures the end-to-end metrics of BENCHMARK.json with nothing
patched: untraced ``python -m movingt.cli`` processes (batch workloads)
or an untraced streaming process.  The batch workloads also run a
streaming probe over their own returns, in passes between the timed
processes, so every workload reports step latency.  --trace 1 alternates
untraced and traced iterations (perfbench/child.py wraps the library's
public functions) and reports the per-layer metrics, the tracing
overhead and the share of the traced wall time that no layer span covers.

Inputs come from the seed alone (perfbench/inputs.py); every run checks
the program's outputs against values computed independently
(perfbench/reference.py) and checks that reports are byte-identical
across iterations and runs of the same source.  An operation fails when
it exits non-zero or a check on its output fails; the run is incorrect
when an output is wrong or a process crashed, but not when the CLI
declines its input through its own error exit (that operation only
counts as failed).  The last stdout line is
one JSON object {correct, attempted, failed, metrics}; the lines above
it are a readable summary, and the full result (environment, input and
report digests, all samples) is written under .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402

ROOT = os.getcwd()
CACHE = os.path.join(".bench_build", "perfbench")
PY = sys.executable
WORKLOADS = ("century-pipeline", "fit-long", "stream-step")
REL_TOL = 1e-9
SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
# streaming probe of the batch workloads: passes between the timed
# processes, so its samples spread over the whole run; per iteration, at
# least one after each CLI process
PROBE_PASSES_PER_ITERATION = 2
CHILD_TIMEOUT_S = 150
# exit codes of the CLI's own error handler (usage, data, numeric): the
# program declined the input and said why, so the operation failed but no
# wrong output was produced; any other non-zero exit is a crash
CLI_ERROR_EXITS = (2, 3, 4)


class BenchError(Exception):
    """The benchmark cannot run here (no program, or it does not import)."""


# ---------------------------------------------------------------------------
# processes


def _child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


ENV = _child_env()


class Spawner:
    """Runs children through ``child.py spawner`` (see there for why)."""

    def __init__(self):
        self.proc = subprocess.Popen([PY, os.path.join(HERE, "child.py"), "spawner"],
                                     cwd=ROOT, env=ENV, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv, log):
        """Run one child to completion: rc, start/end (ns), peak RSS (KiB)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "log": log,
                                          "timeout": CHILD_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the spawner process ended unexpectedly")
        return {**json.loads(reply), "out": log + ".out", "err": log + ".err"}

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def environment(sp, log_dir):
    """Environment stamp; also the first import, which fills __pycache__."""
    code = ("import json, platform, movingt, numpy, scipy; print(json.dumps({"
            "'fold_backend': getattr(movingt, 'fold_backend', lambda: 'none')(), "
            "'python': platform.python_version(), 'numpy': numpy.__version__, "
            "'scipy': scipy.__version__, 'movingt_file': movingt.__file__}))")
    p = sp.run([PY, "-c", code], os.path.join(log_dir, "env"))
    if p["rc"] != 0:
        raise BenchError("movingt does not import from ./src:\n" + _read(p["err"])[-2000:])
    env = json.loads(_read(p["out"]).strip().splitlines()[-1])
    src = os.path.realpath(os.path.join(ROOT, "src")) + os.sep
    if not os.path.realpath(env.pop("movingt_file")).startswith(src):
        raise BenchError("movingt was imported from outside ./src")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    env.update(nproc=os.cpu_count(), cpu=cpu)
    return env


def setup_seconds(sp, log_dir, between):
    """Wall time from a fresh interpreter until `import movingt.cli` returns.

    between() runs after each sample (the batch workloads' probe passes).
    """
    code = "import time, movingt.cli; print(time.monotonic_ns())"
    samples = []
    for i in range(SETUP_SAMPLES):
        p = sp.run([PY, "-c", code], os.path.join(log_dir, f"setup{i}"))
        if p["rc"] != 0:
            raise BenchError("import movingt.cli failed:\n" + _read(p["err"])[-2000:])
        samples.append((int(_read(p["out"]).split()[-1]) - p["start_ns"]) / 1e9)
        between()
    return samples


def import_breakdown(sp, log_dir):
    """Split `python -X importtime -c "import movingt.cli"` (seconds)."""
    samples = []
    for i in range(IMPORTTIME_SAMPLES):
        p = sp.run([PY, "-X", "importtime", "-c", "import movingt.cli"],
                  os.path.join(log_dir, f"importtime{i}"))
        rows = []
        for line in _read(p["err"]).splitlines():
            cells = line.partition("import time:")[2].split("|")
            if len(cells) == 3 and cells[0].strip().isdigit():
                raw = cells[2].rstrip()
                rows.append((int(cells[0]), int(cells[1]), raw.strip(),
                             (len(raw) - len(raw.lstrip()) - 1) // 2))
        # top-level imports after `site` are the ones `import movingt.cli` made
        site = [k for k, r in enumerate(rows) if r[3] == 0 and r[2] == "site"]
        after_site = rows[site[-1] + 1:] if site else rows
        cum = {r[2]: r[1] for r in reversed(rows)}
        samples.append({
            "import.total_s": sum(r[1] for r in after_site if r[3] == 0) / 1e6,
            "import.scipy_optimize_s": cum.get("scipy.optimize", 0) / 1e6,
            "import.scipy_signal_s": cum.get("scipy.signal", 0) / 1e6,
            "import.movingt_s": sum(r[0] for r in rows if r[2] == "movingt"
                                    or r[2].startswith("movingt.")) / 1e6,
        })
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# ---------------------------------------------------------------------------
# reports and their checks


def parse_report(path):
    """(manifest, header, rows) of a CLI report; raises ValueError if malformed."""
    manifest, table = {}, []
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, sep, value = line[2:].partition(" = ")
                if not sep:
                    raise ValueError(f"bad manifest line {line!r}")
                manifest[key] = value
            elif line:
                table.append(line.split(","))
    if not table:
        raise ValueError("no header row")
    header, rows = table[0], table[1:]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged rows")
    return manifest, header, rows


def _num(text):
    try:
        return float(text)
    except ValueError:
        return math.nan


def _close(got, want):
    got, want = _num(got), float(want)
    return got == want or abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def _expect(problems, ok, what):
    if not ok:
        problems.append(what)


def _check_values(problems, label, got, want):
    for i, (g, w) in enumerate(zip(got, want)):
        if not _close(g, w):
            problems.append(f"{label}[{i}] = {g!r}, reference {w!r}")
            return
    _expect(problems, len(got) == len(want), f"{label}: {len(got)} values, want {len(want)}")


def check_report(op, path, stdout, ref):
    """Problems found in one CLI report (empty list: it passed)."""
    problems = []
    try:
        manifest, header, rows = parse_report(path)
    except (OSError, ValueError) as exc:
        return [f"{op}: report does not parse: {exc}"]
    if op == "returns":
        _expect(problems, header == ["date", "x"], f"returns header {header}")
        _expect(problems, [r[0] for r in rows] == ref["dates"], "returns dates differ")
        _check_values(problems, "returns x", [r[1] for r in rows], ref["x"])
    elif op == "fit-static":
        _expect(problems, len(rows) == 1, "fit-static wants one row")
        got = dict(zip(header, rows[0] if rows else []))
        for key, want in ref["static"].items():
            _check_values(problems, f"fit-static {key}", [got.get(key, "nan")], [want])
        _expect(problems, got.get("n") == str(len(ref["x"])), "fit-static n")
    elif op == "fit-adaptive":
        want = ref["adaptive"]
        printed = stdout.strip().rpartition("mean_log_likelihood = ")[2]
        _check_values(problems, "fit-adaptive mean_log_likelihood",
                      [manifest.get("mean_log_likelihood", "nan"), printed or "nan"],
                      [want["mean_log_likelihood"]] * 2)
        _expect(problems, len(rows) == want["rows"], f"fit-adaptive has {len(rows)} rows")
        if rows and len(rows) == want["rows"]:
            t0 = reference.INIT_PREFIX
            _expect(problems, [r[0] for r in rows] == [str(t) for t in range(t0, t0 + len(rows))],
                    "fit-adaptive t column")
            _expect(problems, np.array_equal(np.array([_num(r[2]) for r in rows]),
                                             ref["x"][t0:]), "fit-adaptive x column")
            _check_values(problems, "fit-adaptive last (mu, sigma, nu)", rows[-1][3:6], want["last"])
    elif op == "tail-table":
        want = ref["tail"]
        _expect(problems, manifest.get("n_effective") == str(want["n_effective"]),
                "tail-table n_effective")
        _expect(problems, [r[1] for r in rows] == [str(v) for v in want["observed"]],
                f"tail-table observed {[r[1] for r in rows]} != {want['observed']}")
        _expect(problems, all(_num(c) >= 0.0 for r in rows for c in r[2:]),
                "tail-table expected counts")
    elif op == "sweep":
        want = ref["sweep"]
        _expect(problems, len(rows) == len(want["rows"]), f"sweep has {len(rows)} rows")
        for r, w in zip(rows, want["rows"]):
            _check_values(problems, f"sweep row inv_nu={w[0]}", r, w)
        _check_values(problems, "sweep garch_loglik",
                      [manifest.get("garch_loglik", "nan")], [want["garch_loglik"]])
    return [f"{op}: {p}" for p in problems]


def check_stream(doc, want):
    finals = [p["final"] for p in doc["passes"]]
    if not finals:
        return ["no streaming passes ran"]
    problems = []
    _expect(problems, all(f == finals[0] for f in finals), "stream passes disagree")
    _check_values(problems, "stream final vs adaptive.run", finals[0], doc["run_final"])
    _check_values(problems, "stream final vs reference", finals[0], want)
    return problems


def source_digest():
    """SHA-256 over the program's sources, to key byte-identity records."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".so", ".pyd")):
                continue
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# workloads


def pipeline(workload, seed_dir, work):
    """(operation, CLI arguments, report path) of one batch iteration."""
    if workload == "fit-long":
        out = os.path.join(work, "trajectory.csv")
        return [("fit-adaptive", ["fit-adaptive", "--returns", "-i",
                                  os.path.join(seed_dir, "long.csv"), "-o", out], out)]
    returns = os.path.join(work, "returns.csv")
    ops = [("returns", ["returns", "--prices", "--column", "close", "--date-column", "date",
                        "-i", os.path.join(seed_dir, "prices.csv"), "-o", returns], returns)]
    for op, report in (("fit-static", "static.csv"), ("fit-adaptive", "trajectory.csv"),
                       ("tail-table", "tail.csv"), ("sweep", "sweep.csv")):
        out = os.path.join(work, report)
        ops.append((op, [op, "--returns", "--date-column", "date", "-i", returns, "-o", out], out))
    return ops


class Run:
    """State of one benchmark run: operation counts, failures, samples."""

    def __init__(self, args, seed_dir, log_dir, ref, sp):
        self.args, self.seed_dir, self.log_dir, self.ref, self.sp = args, seed_dir, log_dir, ref, sp
        self.work = os.path.join(CACHE, "work", args.workload)
        os.makedirs(self.work, exist_ok=True)
        self.attempted = self.failed = 0
        self.failures = []
        # problems that make the run incorrect: a wrong output or a crash
        self.wrong = []
        self.digests = None
        self.bad_digests = set()
        self.iterations = []
        self.probe_proc = None

    def record(self, problems, operations=1, wrong=True):
        """Count operations; all of them fail when any check found a problem.

        wrong=False marks a failure that produced no wrong output (a
        declined input): it counts as failed but leaves the run correct.
        """
        self.attempted += operations
        if problems:
            self.failed += operations
            self.failures.extend(problems)
            if wrong:
                self.wrong.extend(problems)

    def batch_iteration(self, traced):
        """One pass over the workload's CLI processes; returns its record."""
        ops = pipeline(self.args.workload, self.seed_dir, self.work)
        for _, _, out in ops:
            if os.path.exists(out):
                os.remove(out)
        procs, spans, digests = [], [], {}
        for op, cli_args, out in ops:
            tag = os.path.join(self.log_dir, f"{len(self.iterations)}-{op}")
            if traced:
                argv = [PY, os.path.join(HERE, "child.py"), "cli", "--spans",
                        tag + ".spans.json", "--", *cli_args]
            else:
                argv = [PY, "-m", "movingt.cli", *cli_args]
            p = self.sp.run(argv, tag)
            p["op"] = op
            procs.append(p)
            if traced:
                spans.append((p, tag + ".spans.json"))
            else:
                self.probe_passes(max(1, PROBE_PASSES_PER_ITERATION // len(ops)))
            if p["rc"] != 0:
                self.record([f"{op}: exit code {p['rc']}: " + _read(p["err"])[-500:].strip()],
                            wrong=p["rc"] not in CLI_ERROR_EXITS)
                continue
            digest = digests[op] = file_sha256(out)
            first = (self.digests or {}).get(op)
            if first is None:
                problems = check_report(op, out, _read(p["out"]), self.ref)
                if problems:
                    self.bad_digests.add(digest)
            elif digest != first:
                problems = [f"{op}: report differs from the first iteration's"]
            else:
                problems = [f"{op}: same report as a failed one"] if digest in self.bad_digests else []
            self.record(problems)
        self.digests = {**digests, **(self.digests or {})}
        rec = {"traced": traced, "wall_s": sum(p["end_ns"] - p["start_ns"] for p in procs) / 1e9,
               "window": (procs[0]["start_ns"], procs[-1]["end_ns"]),
               "rss_kb": max(p["rss_kb"] for p in procs),
               "ops": {p["op"]: (p["end_ns"] - p["start_ns"]) / 1e9 for p in procs},
               "spans": spans}
        self.iterations.append(rec)
        return rec

    def stream_iteration(self, traced, seconds):
        """One streaming process, passes for `seconds`; a record per pass."""
        tag = os.path.join(self.log_dir, f"{len(self.iterations)}-stream")
        argv = [PY, os.path.join(HERE, "child.py"), "stream",
                "--input", os.path.join(self.seed_dir, "stream.csv"),
                "--steps", str(inputs.STREAM_STEPS),
                "--seconds", str(seconds), "--out", tag + ".json"]
        if traced:
            argv += ["--spans", tag + ".spans.json"]
        p = self.sp.run(argv, tag)
        if p["rc"] != 0:
            self.record([f"stream: exit code {p['rc']}: " + _read(p["err"])[-500:].strip()])
            return []
        with open(tag + ".json", encoding="utf-8") as fh:
            doc = json.load(fh)
        self.record([f"stream: {m}" for m in check_stream(doc, self.ref["step_final"])],
                    len(doc["passes"]))
        recs = []
        for ps in doc["passes"]:
            rec = {"traced": traced, "wall_s": (ps["end_ns"] - ps["start_ns"]) / 1e9,
                   "window": (ps["start_ns"], ps["end_ns"]), "rss_kb": doc["peak_rss_kb"],
                   "p50_us": ps["p50_us"], "p99_us": ps["p99_us"], "steps": ps["steps"],
                   "ops": {}, "spans": [(p, tag + ".spans.json")] if traced else []}
            self.iterations.append(rec)
            recs.append(rec)
        return recs

    def probe_open(self):
        """Start the step-latency probe over the workload's own returns.

        It imports once, then runs one pass per request; the requests fall
        between the timed processes (setup samples and CLI processes).
        """
        path = os.path.join(self.seed_dir, "long.csv")
        if self.args.workload == "century-pipeline":
            path = os.path.join(self.work, "probe.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("x\n" + "".join(f"{v!r}\n" for v in self.ref["x"].tolist()))
        self.probe_out = os.path.join(self.log_dir, "probe.json")
        self.probe_proc = subprocess.Popen(
            [PY, os.path.join(HERE, "child.py"), "stream", "--serve", "--input", path,
             "--steps", str(inputs.PROBE_STEPS),
             "--out", self.probe_out], cwd=ROOT, env=ENV, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        # wait until it has imported, so it never overlaps a timed process
        if not self.probe_proc.stdout.readline():
            self.probe_close()

    def probe_passes(self, count):
        for _ in range(count):
            if self.probe_proc is None:
                return
            self.probe_proc.stdin.write("\n")
            self.probe_proc.stdin.flush()
            if not self.probe_proc.stdout.readline():
                self.probe_close()

    def probe_close(self):
        """Stop the probe; its passes, checked, or None if it failed."""
        proc, self.probe_proc = self.probe_proc, None
        if proc is None:
            return None
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            rc = proc.wait()
        proc.stdout.close()
        if rc != 0:
            self.record([f"probe: exit code {rc}"])
            return None
        with open(self.probe_out, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.record([f"probe: {m}" for m in check_stream(doc, self.ref["step_final"])])
        return doc


# ---------------------------------------------------------------------------
# spans -> per-layer metrics


def _layer(name):
    return name.split(".", 1)[0]


def merge_spans(rec):
    """All spans of one traced iteration on the harness clock."""
    spans = []
    for p, path in rec["spans"]:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            continue
        parent = -1
        if "op" in p:
            parent = len(spans)
            spans.append([f"cli.{p['op']}", p["start_ns"], p["end_ns"], -1, 0, 0])
        spans.append(["import", p["start_ns"], doc["import_done"], parent, 0, 0])
        base = len(spans)
        for name, start, end, par, rows, nbytes in doc["spans"]:
            spans.append([name, start, end, parent if par < 0 else base + par, rows, nbytes])
        rec.setdefault("counters", {})
        for k, v in doc["counters"].items():
            rec["counters"][k] = rec["counters"].get(k, 0) + v
    return spans


def layer_metrics(rec):
    spans = merge_spans(rec)
    dur = [s[2] - s[1] for s in spans]
    child_sum = [0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child_sum[s[3]] += d
    m = dict(rec.get("counters", {}))

    def add(key, v):
        m[key] = m.get(key, 0) + v

    def ancestors(i):
        i = spans[i][3]
        while i >= 0:
            yield spans[i]
            i = spans[i][3]

    w0, w1 = rec["window"]
    covered = 0
    for i, (s, d) in enumerate(zip(spans, dur)):
        name, layer = s[0], _layer(s[0])
        add(f"{name}.calls", 1)
        add(f"{name}.busy_s", d / 1e9)
        add(f"{name}.rows", s[4])
        add(f"{name}.bytes", s[5])
        add(f"layer.{layer}.calls", 1)
        add(f"layer.{layer}.self_s", (d - child_sum[i]) / 1e9)
        if all(_layer(a[0]) != layer for a in ancestors(i)):
            add(f"layer.{layer}.busy_s", d / 1e9)
        if name == "adaptive.run" and any(a[0] == "evaluation.nu_sweep" for a in ancestors(i)):
            add("adaptive.run.calls_in_sweep", 1)
        if layer != "cli" and (s[3] < 0 or _layer(spans[s[3]][0]) == "cli"):
            covered += max(0, min(s[2], w1) - max(s[1], w0))
    for name in ("data_io.read_csv", "data_io.write_trajectory_csv"):
        if m.get(f"{name}.busy_s"):
            m[f"{name}.rows_per_s"] = m[f"{name}.rows"] / m[f"{name}.busy_s"]
    if m.get("adaptive.run.busy_s"):
        m["adaptive.run.steps_per_s"] = m["adaptive.run.rows"] / m["adaptive.run.busy_s"]
    if m.get("evaluation.nu_sweep.calls"):
        m["adaptive.run.calls_per_sweep"] = (m.get("adaptive.run.calls_in_sweep", 0)
                                             / m["evaluation.nu_sweep.calls"])
    m["trace.uncovered_frac"] = 1.0 - covered / (rec["wall_s"] * 1e9)
    m["trace.spans"] = len(spans)
    return m


# ---------------------------------------------------------------------------
# the run


def _median(values):
    return statistics.median(values) if values else 0.0


def _repeat(seconds, minimum, step):
    """Call step() at least `minimum` times, then again while at least half
    of an average call still fits in `seconds`, so a run lasts about
    `seconds` instead of up to one call longer."""
    deadline = time.monotonic() + seconds
    spent = []
    while len(spent) < minimum or time.monotonic() + statistics.fmean(spent) / 2 < deadline:
        t0 = time.monotonic()
        step()
        spent.append(time.monotonic() - t0)


def measure(args, seed_dir, log_dir, ref, sp):
    run = Run(args, seed_dir, log_dir, ref, sp)
    metrics, notes = {}, []
    stream = args.workload == "stream-step"
    if not args.trace:
        if stream:
            setup = setup_seconds(sp, log_dir, lambda: None)
            recs = passes = run.stream_iteration(False, args.seconds)
        else:
            recs = []
            # the probe also runs between the setup samples: more, and more
            # widely spread, samples of the machine's speed
            run.probe_open()
            try:
                setup = setup_seconds(sp, log_dir, lambda: run.probe_passes(1))
                _repeat(args.seconds, 2, lambda: recs.append(run.batch_iteration(False)))
            finally:
                doc = run.probe_close()
            passes = doc["passes"] if doc else []
        metrics["setup_s"] = _median(setup)
        notes.append(f"setup_s: median of {len(setup)} fresh interpreters")
        # wall_s is the mean, i.e. measured time over completed workload runs:
        # on a shared host the CPU speed can switch between two levels for
        # seconds at a time, and the median of a few runs jumps between them
        walls = [r["wall_s"] for r in recs]
        metrics["wall_s"] = statistics.fmean(walls) if walls else 0.0
        rows = (inputs.STREAM_STEPS if stream else
                inputs.CENTURY_RETURNS + 1 if args.workload == "century-pipeline"
                else inputs.LONG_RETURNS)
        metrics["rows_per_s"] = rows / metrics["wall_s"] if metrics["wall_s"] else 0.0
        metrics["peak_rss_mb"] = max((r["rss_kb"] for r in recs), default=0) / 1024
        notes.append(f"wall_s: mean of {len(walls)} {'passes' if stream else 'iterations'}"
                     f" (min {min(walls, default=0):.4f}, max {max(walls, default=0):.4f})")
        # per-pass percentiles are bimodal for the same reason: their mean
        # moves with the share of slow time, their median jumps
        if passes:
            metrics["step_p50_us"] = statistics.fmean(p["p50_us"] for p in passes)
            metrics["step_p99_us"] = statistics.fmean(p["p99_us"] for p in passes)
        notes.append(f"step latency: mean over {len(passes)} passes of the per-pass "
                     f"percentiles, {passes[0]['steps'] if passes else 0} steps per pass"
                     + ("" if stream else ", probe passes between the timed processes"))
    else:
        metrics.update(import_breakdown(sp, log_dir))
        untraced, traced = [], []

        def pair():
            for flag, bucket in ((False, untraced), (True, traced)):
                if stream:
                    bucket.extend(run.stream_iteration(flag, 0))
                else:
                    bucket.append(run.batch_iteration(flag))
        _repeat(args.seconds, 1, pair)
        per_iter = [layer_metrics(r) for r in traced]
        for key in sorted({k for m in per_iter for k in m}):
            metrics[key] = _median([m.get(key, 0) for m in per_iter])
        for key in [k for k in metrics if k.endswith((".calls", ".nfev", ".evals"))]:
            values = {m.get(key, 0) for m in per_iter}
            if len(values) > 1:
                run.record([f"counter {key} differs between identical iterations: {values}"])
        # per-process wall time without the tracer's install and span dump
        for op in (untraced[0]["ops"] if untraced else {}):
            metrics[f"cli.{op}.wall_s"] = _median([r["ops"][op] for r in untraced])
        u_wall = _median([r["wall_s"] for r in untraced])
        metrics["trace.wall_s"] = _median([r["wall_s"] for r in traced])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - u_wall
        notes.append(f"per-layer: median of {len(traced)} traced iterations; overhead vs "
                     f"median of {len(untraced)} untraced ({u_wall:.4f} s)")
    return run, metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar="RESULT_JSON",
                    help="compare two result files written by earlier runs")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        if not os.path.isfile(os.path.join(ROOT, "src", "movingt", "__init__.py")):
            raise BenchError("no program here: src/movingt is missing")
        sp = Spawner()
        try:
            return run_benchmark(args, spec, sp)
        finally:
            sp.close()
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def run_benchmark(args, spec, sp):
    seed_dir, input_digests = inputs.ensure_inputs(os.path.join(CACHE, "inputs"), args.seed)
    log_dir = os.path.join(CACHE, "logs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(log_dir, exist_ok=True)
    env = environment(sp, log_dir)
    ref = inputs.workload_reference(seed_dir, args.workload)
    run, measured, notes = measure(args, seed_dir, log_dir, ref, sp)

    src = source_digest()
    if run.digests:
        record = os.path.join(seed_dir, f"reports-{args.workload}.json")
        if os.path.exists(record):
            with open(record, encoding="utf-8") as fh:
                prev = json.load(fh)
            if prev["source"] == src:
                differ = [f"{op}: report differs from an earlier run of the same source"
                          for op, d in run.digests.items() if prev["digests"].get(op) != d]
                run.failed += len(differ)
                run.failures += differ
                run.wrong += differ
        if not run.wrong:
            with open(record, "w", encoding="utf-8") as fh:
                json.dump({"source": src, "digests": run.digests}, fh, indent=1)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    attempted = max(run.attempted, 1)
    failed = min(run.failed, attempted)
    correct = (not run.wrong and run.failed < run.attempted
               and all(math.isfinite(m["value"]) for m in metrics.values()))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    os.makedirs(os.path.join(CACHE, "results"), exist_ok=True)
    path = os.path.join(CACHE, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "env": env,
                   "source_sha256": src, "inputs_sha256": input_digests,
                   "reports_sha256": run.digests, "failures": run.failures,
                   "all_metrics": measured, "notes": notes,
                   "iterations": [{k: v for k, v in r.items() if k != "spans"}
                                  for r in run.iterations]}, fh, indent=1)

    print(f"# movingt benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, digest in sorted(input_digests.items()):
        print(f"# input  {name}  sha256={digest}")
    for name, m in metrics.items():
        print(f"# {name:<44} {m['value']:>16.6f} {m['unit']}")
    print(f"# {'failed_frac':<44} {failed / attempted:>16.6f} ratio  ({failed}/{attempted})")
    for note in notes:
        print(f"# note  {note}")
    for problem in run.failures[:20]:
        print(f"# FAILED  {problem}")
    print(f"# result file  {path}")
    print(json.dumps(result))
    return 0


def compare(path_a, path_b):
    """Print both results' metrics side by side.

    Refuses results of different fold backends, workloads, modes, seeds
    or input files: their figures are not comparable.
    """
    docs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    a, b = docs
    if a["env"]["fold_backend"] != b["env"]["fold_backend"]:
        print(f"perfbench: refusing to compare fold backend "
              f"{a['env']['fold_backend']!r} with {b['env']['fold_backend']!r}", file=sys.stderr)
        return 2
    for key in ("workload", "trace", "seed", "inputs_sha256"):
        if a[key] != b[key]:
            print(f"perfbench: refusing to compare results with different {key}", file=sys.stderr)
            return 2
    print(f"# {'metric':<44} {'A':>14} {'B':>14} {'B/A-1':>9}")
    for name, ma in a["metrics"].items():
        va, vb = ma["value"], b["metrics"].get(name, {}).get("value", float("nan"))
        delta = f"{vb / va - 1.0:+9.4f}" if va else "      n/a"
        print(f"  {name:<44} {va:>14.6g} {vb:>14.6g} {delta}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
