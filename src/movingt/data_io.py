"""CSV ingestion, log-return transformation, synthetic data, report writers.

CSV dialect: comma separated, UTF-8 (a leading byte-order mark is
skipped), optional single header line, lines starting with '#' skipped
(reports embed their run manifest that way, so outputs can be
re-ingested).  The writers emit LF and format floats with repr, which
round-trips bit-exactly through float().

Everything moves in chunks of `_CHUNK` (8192) rows.  One row parser
yields the value column in float64 chunks (with the date cells when
asked): `read_csv` joins them into one series, and `read_returns`
hands them on as return pieces, so a caller can fold and write a
series without holding it.  The series and trajectory writers format
chunks with one function.  Shortest round-trip repr is most of a large
write, so once `_PARALLEL_MIN_ROWS` rows are written, when the process
may run on two or more CPUs and can fork, a `TrajectoryWriter` sends
each later chunk's arrays to a pool of worker processes and writes
their strings in order.  A chunk's string depends only on its rows, so
the bytes do not depend on which path ran, on how many workers there
were, or on the chunk size.
"""

from __future__ import annotations

import csv
import io
import math
import os
import shutil
import tempfile
from array import array
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from .distribution import StudentTParams, draw
from .errors import (DegenerateDataError, DomainError, ParseError,
                     SeriesTooShortError)

__all__ = [
    "PriceSeries",
    "ReturnSeries",
    "Segment",
    "to_log_returns",
    "read_csv",
    "read_returns",
    "generate_synthetic",
    "write_series_csv",
    "write_trajectory_csv",
    "TrajectoryWriter",
    "write_sweep_csv",
    "write_tail_csv",
    "write_row_csv",
]


@dataclass(frozen=True)
class PriceSeries:
    """Ordered daily close prices, all strictly positive."""

    values: np.ndarray
    labels: Optional[List[str]] = None

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=np.float64))
        if self.values.size < 2:
            raise _too_few_prices(self.values.size)
        _check_prices(self.values)
        if self.labels is not None and len(self.labels) != self.values.size:
            raise DomainError("labels and values must have equal length")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class ReturnSeries:
    """Ordered log-returns with optional opaque date labels."""

    values: np.ndarray
    labels: Optional[List[str]] = None

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=np.float64))
        if not np.all(np.isfinite(self.values)):
            raise DegenerateDataError("return series contains non-finite values")
        if self.labels is not None and len(self.labels) != self.values.size:
            raise DomainError("labels and values must have equal length")

    def __len__(self) -> int:
        return int(self.values.size)

    def __getitem__(self, index: slice) -> "ReturnSeries":
        """The points of a slice, with their labels."""
        if not isinstance(index, slice):
            raise TypeError("a ReturnSeries takes slices, not indices")
        return ReturnSeries(self.values[index], None if self.labels is None
                            else self.labels[index])


def _too_few_prices(n):
    return SeriesTooShortError(
        f"a price series needs at least 2 points, got {n}")


def _check_prices(values, offset=0):
    """DegenerateDataError naming the first price that is not > 0, as
    point offset + i of the series."""
    bad = np.flatnonzero(~(values > 0.0))
    if bad.size:
        raise DegenerateDataError(
            f"nonpositive price {values[bad[0]]!r} at index {offset + bad[0]}")


def to_log_returns(prices: PriceSeries) -> ReturnSeries:
    """x_t = ln(v_{t+1} / v_t); the label of x_t is the later date."""
    v = prices.values
    returns = np.log(v[1:] / v[:-1])
    labels = prices.labels[1:] if prices.labels is not None else None
    return ReturnSeries(returns, labels)


def _resolve_column(spec: Union[int, str]):
    """A 0-based column index (int or digit string) or a header name."""
    if isinstance(spec, int) or str(spec).lstrip("+-").isdigit():
        index = int(spec)
        if index < 0:
            raise DomainError(f"column index must be >= 0, got {spec!r}")
        return index, None
    return None, str(spec)


def read_csv(path, column: Union[int, str] = "x",
             date_column: Union[int, str, None] = None,
             kind: str = "returns"):
    """Read one numeric column (plus an optional date column) from a CSV.

    ``column``/``date_column`` may be header names or 0-based indices.
    NaN, infinite and empty cells are rejected with their line number.
    Returns a PriceSeries or ReturnSeries according to ``kind``: the
    chunks of `_read_chunks`, joined.
    """
    _check_kind(kind)
    values = array("d")
    labels: List[str] = []
    for chunk, chunk_labels in _read_chunks(path, column, date_column):
        values.frombytes(chunk.tobytes())
        if chunk_labels is not None:
            labels += chunk_labels
    arr = np.frombuffer(values, dtype=np.float64)
    label_list = labels if date_column is not None else None
    if kind == "prices":
        return PriceSeries(arr, label_list)
    return ReturnSeries(arr, label_list)


def read_returns(path, column: Union[int, str] = "x",
                 date_column: Union[int, str, None] = None,
                 kind: str = "returns"):
    """The ReturnSeries of `read_csv` (then `to_log_returns` for prices)
    in consecutive pieces of at most `_CHUNK` points, read as they are
    needed.

    A price column's last price carries into the next piece, so each
    return is the one the whole series gives, bit for bit.  Errors are
    those of `read_csv`, raised where the file first shows them.
    """
    _check_kind(kind)
    seen, last = 0, None
    for chunk, labels in _read_chunks(path, column, date_column):
        if kind == "returns":
            yield ReturnSeries(chunk, labels)
            continue
        _check_prices(chunk, seen)
        seen += chunk.size
        if last is not None:
            chunk = np.concatenate(([last[0]], chunk))
            labels = None if labels is None else [last[1]] + labels
        last = (chunk[-1], None if labels is None else labels[-1])
        if chunk.size > 1:
            yield to_log_returns(PriceSeries(chunk, labels))
    if kind == "prices" and seen < 2:
        raise _too_few_prices(seen)


def _check_kind(kind):
    if kind not in ("prices", "returns"):
        raise DomainError(f"kind must be 'prices' or 'returns', got {kind!r}")


def _read_chunks(path, column, date_column):
    """(values, labels) of consecutive runs of at most `_CHUNK` data rows:
    a float64 array and, with a date column, the date cells as a list
    (else None).  The one row parser of the CSV dialect."""
    col_idx, col_name = _resolve_column(column)
    date_idx, date_name = (None, None)
    if date_column is not None:
        date_idx, date_name = _resolve_column(date_column)

    want_dates = date_column is not None
    values = array("d")
    labels: Optional[List[str]] = [] if want_dates else None
    found = False

    # utf-8-sig skips a byte-order mark instead of reading it as text
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header_done = False
        for line_no, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if row[0].lstrip().startswith("#"):
                continue
            if not header_done:
                header_done = True
                names = [cell.strip() for cell in row]
                looks_numeric = _cell_is_number(
                    row[col_idx] if col_idx is not None and col_idx < len(row)
                    else "")
                if col_name is not None or date_name is not None or not looks_numeric:
                    # treat the first content row as a header
                    if col_name is not None:
                        if col_name not in names:
                            raise ParseError(
                                f"{path}: no column named {col_name!r} in "
                                f"header {names} (line {line_no})")
                        col_idx = names.index(col_name)
                    if date_name is not None:
                        if date_name not in names:
                            raise ParseError(
                                f"{path}: no column named {date_name!r} in "
                                f"header {names} (line {line_no})")
                        date_idx = names.index(date_name)
                    if col_idx is None:
                        raise ParseError(
                            f"{path}: cannot locate the value column "
                            f"(line {line_no})")
                    continue
                # headerless numeric file: fall through and parse this row
            values.append(_parse_cell(path, row, col_idx, line_no))
            if want_dates:
                if date_idx is None or date_idx >= len(row):
                    raise ParseError(
                        f"{path}: missing date cell at line {line_no}")
                labels.append(row[date_idx].strip())
            if len(values) == _CHUNK:
                yield np.frombuffer(values, dtype=np.float64), labels
                found = True
                values, labels = array("d"), [] if want_dates else None

    if values:
        yield np.frombuffer(values, dtype=np.float64), labels
    elif not found:
        raise ParseError(f"{path}: no data rows found")


def _cell_is_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell.strip()))
    except ValueError:
        return False


def _parse_cell(path, row, col_idx, line_no) -> float:
    if col_idx is None or col_idx >= len(row):
        raise ParseError(f"{path}: missing value cell at line {line_no}")
    text = row[col_idx].strip()
    if not text:
        raise ParseError(f"{path}: empty value cell at line {line_no}, "
                         f"column {col_idx}")
    try:
        v = float(text)
    except ValueError:
        raise ParseError(f"{path}: cannot parse {text!r} at line {line_no}, "
                         f"column {col_idx}") from None
    if not math.isfinite(v):
        raise ParseError(f"{path}: non-finite value {text!r} at line "
                         f"{line_no}, column {col_idx}")
    return v


@dataclass(frozen=True)
class Segment:
    """One i.i.d. Student-t stretch of a synthetic series."""

    n: int
    mu: float
    sigma: float
    nu: float

    def __post_init__(self):
        if self.n < 0:
            raise DomainError(f"segment length must be >= 0, got {self.n!r}")
        StudentTParams(self.mu, self.sigma, self.nu)  # validates


def generate_synthetic(segments: Sequence[Segment], seed: int) -> ReturnSeries:
    """Deterministic synthetic return series: the segments drawn in order."""
    segments = list(segments)
    if not segments:
        raise DomainError("scenario must contain at least one segment")
    if not all(isinstance(s, Segment) for s in segments):
        raise DomainError("segment scenario must be a sequence of Segment")
    rng = np.random.default_rng(seed)
    parts = [draw(rng, StudentTParams(s.mu, s.sigma, s.nu), s.n)
             for s in segments]
    return ReturnSeries(np.concatenate(parts))


# ---------------------------------------------------------------------------
# writers


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _open_out(path):
    return open(path, "w", encoding="utf-8", newline="")


def _emit(fh, manifest_lines, header, rows):
    for line in manifest_lines:
        fh.write(f"# {line}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def _csv_cell(text: str) -> str:
    """A text cell as csv.writer writes it inside a row of several cells."""
    if any(c in text for c in ',"\r\n'):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([text, ""])
        return buf.getvalue()[:-2]
    return text


_CHUNK = 8192
# Rows written in this process before a trajectory writer may start
# workers.  Whole fit-adaptive runs on a 2-CPU host, serial against a
# 2-worker pool (medians): 27k rows 0.365 s vs 0.415 s, 40k 0.412 vs
# 0.418, 65536 0.649 vs 0.550.  Below the break-even the pool only adds
# its workers' memory (about 1 MB of peak RSS).
_PARALLEL_MIN_ROWS = 65536


def _format_rows(text_columns, float_columns):
    """CSV lines, one per row, as `_emit` writes them: the text cells as
    given, then each float by repr (shortest round-trip).

    An iterator, so a serial write holds one line at a time.
    """
    line = ",".join(["{}"] * len(text_columns)
                    + ["{!r}"] * len(float_columns)) + "\n"
    return map(line.format, *text_columns,
               *(c.tolist() for c in float_columns))


def _trajectory_rows(start, labels, *float_columns):
    """Lines of trajectory rows t = start, start + 1, ...: the date from
    ``labels`` (empty without them), then x, mu, sigma, nu, log_density."""
    n = float_columns[0].size
    dates = ([_csv_cell(label) for label in labels] if labels is not None
             else [""] * n)
    return _format_rows([map(str, range(start, start + n)), dates],
                        float_columns)


def _trajectory_text(*chunk):
    # what a worker process returns for one chunk
    return "".join(_trajectory_rows(*chunk))


def _writer_processes(rows: int) -> int:
    """Worker processes for a trajectory writer that has written ``rows``
    rows in this process; 0 means it stays serial.

    Parallel needs two or more usable CPUs and the fork start method,
    which starts a worker without importing the package again.  The
    output does not depend on the choice: both paths write the same
    chunk strings in the same order.
    """
    if not hasattr(os, "sched_getaffinity"):
        return 0
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2:
        return 0
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return 0
    return min(cpus, -(-rows // _CHUNK))


class TrajectoryWriter:
    """A trajectory CSV written chunk by chunk, before its manifest is
    known.

    Columns: t, date, x, mu, sigma, nu, log_density.  `write` formats
    rows into an unnamed temporary file in the directory of ``path``;
    `commit` writes the manifest and header to ``path`` and copies the
    rows after them.  Leaving the ``with`` block stops the workers and
    drops the temporary file, so a run that fails before `commit`
    leaves no file, and any file at ``path`` as it was.

    From `_PARALLEL_MIN_ROWS` rows written, when `_writer_processes`
    allows, each later chunk's arrays go to a pool of worker processes,
    started then, and their strings are written in order.  At most one
    chunk per worker is in flight: this process folds the next chunk
    while the workers format, so a deeper queue would only hold more
    strings.  A chunk's string depends only on its rows, so the bytes do
    not depend on which path ran.
    """

    def __init__(self, path):
        self._path = path
        # write-only text: a readable one resets its decoder on every write
        self._tmp = tempfile.TemporaryFile(
            "w", encoding="utf-8", newline="",
            dir=os.path.dirname(os.path.abspath(path)))
        self._rows = 0
        self._workers = None  # decided at the row threshold
        self._pool = None
        self._pending = deque()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self._tmp.close()

    def write(self, traj, values, labels=None):
        """Append the rows of ``traj``: row i is point traj.start + i,
        whose value is values[i] and date labels[i]."""
        n = len(traj)
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            chunk = (traj.start + lo,
                     None if labels is None else labels[lo:hi],
                     *(c[lo:hi] for c in (values, traj.mu, traj.sigma,
                                          traj.nu, traj.log_density)))
            if self._pool is not None:
                self._pending.append(
                    self._pool.apply_async(_trajectory_text, chunk))
                if len(self._pending) > self._workers:
                    self._tmp.write(self._pending.popleft().get())
                continue
            self._tmp.writelines(_trajectory_rows(*chunk))
            self._rows += hi - lo
            if self._workers is None and self._rows >= _PARALLEL_MIN_ROWS:
                self._workers = _writer_processes(self._rows)
                if self._workers:
                    import multiprocessing
                    # a forked child must not inherit bytes still buffered
                    self._tmp.flush()
                    self._pool = multiprocessing.get_context("fork").Pool(
                        self._workers)

    def commit(self, manifest_lines=()):
        """Write ``path``: the manifest, the header, then every row."""
        while self._pending:
            self._tmp.write(self._pending.popleft().get())
        self._tmp.flush()
        with _open_out(self._path) as out, \
                open(self._tmp.fileno(), "rb", closefd=False) as rows:
            _emit(out, manifest_lines,
                  ["t", "date", "x", "mu", "sigma", "nu", "log_density"], ())
            out.flush()
            rows.seek(0)
            shutil.copyfileobj(rows, out.buffer, 1 << 20)


def write_series_csv(path, values, labels=None, manifest_lines=()):
    """Columns: date (when labelled), x.

    Same bytes as writing each row through `_emit`.
    """
    def chunk(lo):
        hi = lo + _CHUNK
        text = ([] if labels is None
                else [[_csv_cell(label) for label in labels[lo:hi]]])
        return _format_rows(text, [values[lo:hi]])

    values = np.asarray(values)
    with _open_out(path) as fh:
        _emit(fh, manifest_lines, ["x"] if labels is None else ["date", "x"],
              ())
        for lo in range(0, len(values), _CHUNK):
            fh.writelines(chunk(lo))


def write_trajectory_csv(path, traj, series, manifest_lines=()):
    """Columns: t, date, x, mu, sigma, nu, log_density.

    Row i is point t = traj.start + i of the ReturnSeries ``series``,
    which supplies x and the date, and its estimate; DomainError, before
    the file is opened, when the trajectory runs past the series.  Same
    bytes as writing each row through `_emit`; a `TrajectoryWriter`
    writes them.
    """
    start, n = traj.start, len(traj)
    if not 0 <= start <= len(series) - n:
        raise DomainError(f"a trajectory of {n} points from t={start} "
                          f"runs past a series of {len(series)}")
    points = series[start:start + n]
    with TrajectoryWriter(path) as out:
        out.write(traj, points.values, points.labels)
        out.commit(manifest_lines)


def write_sweep_csv(path, report, manifest_lines=()):
    """Columns: inv_nu, static_loglik, adaptive_loglik; the manifest block
    adds the GARCH baseline and the p = nu/2 fallbacks (p_eff_overrides)."""
    garch = report.garch
    meta = list(manifest_lines) + [
        f"garch_loglik = {_fmt(report.garch_loglik)}",
        f"garch_omega = {_fmt(garch.omega)}",
        f"garch_alpha = {_fmt(garch.alpha)}",
        f"garch_beta = {_fmt(garch.beta)}",
        f"garch_persistence_clamped = {garch.persistence_clamped}",
        "garch_fit = in-sample MLE on the full series"]
    if report.p_eff_overrides:
        meta.append("p_eff_overrides = "
                    + ";".join(f"{_fmt(k)}:{_fmt(v)}" for k, v in
                               sorted(report.p_eff_overrides.items())))
    rows = ([r.inv_nu, r.static_loglik, r.adaptive_loglik] for r in report.rows)
    with _open_out(path) as fh:
        _emit(fh, meta, ["inv_nu", "static_loglik", "adaptive_loglik"], rows)


def write_tail_csv(path, table, manifest_lines=()):
    """Columns: k, observed, expected_nu_<label>..."""
    meta = list(manifest_lines)
    meta.append(f"n_effective = {table.n_effective}")
    meta.append(f"normalization = {table.normalization}")
    labels = list(table.expected.keys())
    header = ["k", "observed"] + [f"expected_nu_{lab}" for lab in labels]

    def rows():
        for i, k in enumerate(table.k_values):
            yield [k, table.observed[i]] + [table.expected[lab][i]
                                            for lab in labels]
    with _open_out(path) as fh:
        _emit(fh, meta, header, rows())


def write_row_csv(path, header, row, manifest_lines=()):
    with _open_out(path) as fh:
        _emit(fh, manifest_lines, list(header), [list(row)])
