"""CSV ingestion, log-return transformation, synthetic data, report writers.

CSV dialect: comma separated, UTF-8 (a leading byte-order mark is
skipped), optional single header line, lines starting with '#' skipped
(reports embed their run manifest that way, so outputs can be
re-ingested).  The writers emit LF, format floats with repr, which
round-trips bit-exactly through float(), and quote a text cell that
holds a comma, a quote, CR or LF.

Everything moves in chunks of `_CHUNK` (8192) rows.  One row parser,
the csv module's reader plus the dialect's checks, defines what a file
holds; `_read_chunks` yields the value column in float64 chunks (with
the date cells when asked).  After the header it takes the lines in
blocks, and converts a block that holds no quote and no '#' with one
float() per cell, the row parser's own conversion, without the csv
module; any block that this does not read cleanly (a blank or short
line, a cell that is not a finite float, a very long line) goes through
the row parser, which raises its error at its line.  `read_returns`
hands the chunks on as return pieces (log-returns, for a price column),
so a caller can fold and write a series without holding it, and
`read_csv` joins those pieces into one series.  The series and
trajectory writers format chunks with one function.  Shortest
round-trip repr is most of a large write, so once `_PARALLEL_MIN_ROWS`
rows are written, when the process may run on two or more CPUs and can
fork, a `TrajectoryWriter` reserves a span of its temporary file for
each later chunk and sends the chunk's arrays to a pool of worker
processes, which write its text into that span themselves; the text
never passes through this process.  `commit` copies the spans in
order.  A chunk's text depends only on its rows, so the bytes do not
depend on which path ran, on how many workers there were, or on the
chunk size.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import tempfile
from array import array
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import List, Optional, Sequence, Union

import numpy as np

from .distribution import StudentTParams, draw
from .errors import (DegenerateDataError, DomainError, ParseError,
                     SeriesTooShortError)

__all__ = [
    "ReturnSeries",
    "Segment",
    "to_log_returns",
    "read_csv",
    "read_returns",
    "generate_synthetic",
    "write_series_csv",
    "TrajectoryWriter",
    "write_sweep_csv",
    "write_tail_csv",
    "write_row_csv",
]


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


def to_log_returns(prices, labels=None, offset=0) -> ReturnSeries:
    """x_t = ln(v_{t+1} / v_t) of a price array; the label of x_t is the
    later date.

    DegenerateDataError names the first price that is not > 0, or else
    the first return that leaves float64's range (a price ratio that
    overflows or underflows), by its index offset + i in the series.
    """
    v = np.asarray(prices, dtype=np.float64)
    bad = np.flatnonzero(~(v > 0.0))
    if bad.size:
        i = int(bad[0])
        raise DegenerateDataError(
            f"nonpositive price {v[i].item()!r} at index {offset + i}")
    with np.errstate(all="ignore"):
        returns = np.log(v[1:] / v[:-1])
    bad = np.flatnonzero(~np.isfinite(returns))
    if bad.size:
        i = int(bad[0])
        raise DegenerateDataError(
            f"non-finite log-return at index {offset + i}: price "
            f"{v[i + 1].item()!r} after {v[i].item()!r}")
    return ReturnSeries(returns, None if labels is None else labels[1:])


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
             kind: str = "returns") -> ReturnSeries:
    """Read one numeric column (plus an optional date column) from a CSV
    as a ReturnSeries: the pieces of `read_returns`, joined.

    ``column``/``date_column`` may be header names or 0-based indices.
    NaN, infinite and empty cells are rejected with their line number.
    With ``kind="prices"`` the column holds prices, and the series is
    their log-returns (`to_log_returns`).
    """
    values = array("d")
    labels: Optional[List[str]] = [] if date_column is not None else None
    for piece in read_returns(path, column, date_column, kind):
        values.frombytes(piece.values.tobytes())
        if labels is not None:
            labels += piece.labels
    return ReturnSeries(np.frombuffer(values, dtype=np.float64), labels)


def read_returns(path, column: Union[int, str] = "x",
                 date_column: Union[int, str, None] = None,
                 kind: str = "returns"):
    """The ReturnSeries of a CSV column in consecutive pieces of at most
    `_CHUNK` points, read as they are needed; `read_csv` joins them.

    A price column's pieces go through `to_log_returns`, and each
    piece's last price carries into the next, so each return is the one
    the whole series gives, bit for bit.  Errors are raised in file
    order: a bad price stops the read before a bad cell in a later
    chunk is parsed.
    """
    _check_kind(kind)
    start, last = 0, None  # start: the series index of the piece's first price
    for chunk, labels in _read_chunks(path, column, date_column):
        if kind == "returns":
            yield ReturnSeries(chunk, labels)
            continue
        if last is not None:
            chunk = np.concatenate(([last[0]], chunk))
            labels = None if labels is None else [last[1]] + labels
        last = (chunk[-1], None if labels is None else labels[-1])
        returns = to_log_returns(chunk, labels, start)
        start += len(returns)
        if len(returns):
            yield returns
    if kind == "prices" and start == 0:
        raise SeriesTooShortError(
            "a price series needs at least 2 points, got 1")


def _check_kind(kind):
    if kind not in ("prices", "returns"):
        raise DomainError(f"kind must be 'prices' or 'returns', got {kind!r}")


def _read_chunks(path, column, date_column):
    """(values, labels) of consecutive runs of `_CHUNK` data rows (the
    last may be shorter): a float64 array and, with a date column, the
    date cells as a list (else None).

    The row parser of the CSV dialect is the csv module's reader plus
    `_append_row`; it reads the rows up to the header.  After that, the
    lines come in blocks of at most `_BLOCK`.  A block with no quote and
    no '#' is split at its commas, and each value cell goes through one
    float(), which is what the row parser does with such a line; then
    the block's values get one finiteness check.  A block that fails
    any of this (a blank or short line, a cell float() refuses or reads
    as NaN or infinite, a line longer than the csv module's field limit)
    goes through the row parser instead, which raises its ParseError at
    its line.  From the first block with a quote on, the row parser reads
    the rest of the file, since a quoted cell may span lines and blocks.
    """
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
        line_no = 0
        for line_no, row in _rows(path, fh, 1):
            if not _is_content(row):
                continue
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
            else:
                # headerless numeric file: this row is data
                _append_row(path, row, line_no, col_idx, date_idx, values,
                            labels)
            break

        rows = None  # numbered rows left for the row parser
        while True:
            if len(values) == _CHUNK:
                yield np.frombuffer(values, dtype=np.float64), labels
                found = True
                values, labels = array("d"), [] if want_dates else None
            if rows is not None:
                for line_no, row in rows:
                    if _is_content(row):
                        _append_row(path, row, line_no, col_idx, date_idx,
                                    values, labels)
                        if len(values) == _CHUNK:
                            break  # yield the chunk, then read on
                else:
                    rows = None
                continue
            lines = list(itertools.islice(fh, min(_BLOCK,
                                                  _CHUNK - len(values))))
            if not lines:
                break
            text = "".join(lines)
            if '"' in text:
                rows = _rows(path, itertools.chain(lines, fh), line_no + 1)
            elif "#" in text or not _append_block(lines, text, col_idx,
                                                  date_idx, values, labels):
                rows = _rows(path, lines, line_no + 1)
            else:
                line_no += len(lines)

    if values:
        yield np.frombuffer(values, dtype=np.float64), labels
    elif not found:
        raise ParseError(f"{path}: no data rows found")


def _rows(path, lines, first):
    """(line number, row) of the csv module's reader over ``lines``, whose
    first line is line ``first`` of the file.  A row is numbered by its
    last line, since a quoted cell may span lines; the reader's own error
    (a cell longer than its field limit) is a ParseError at its line."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield first - 1 + reader.line_num, row
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc} at line "
                         f"{first - 1 + reader.line_num}") from None


def _is_content(row) -> bool:
    """False for the rows the dialect skips: blank, whitespace-only and
    comment rows."""
    return (bool(row) and not (len(row) == 1 and not row[0].strip())
            and not row[0].lstrip().startswith("#"))


def _append_row(path, row, line_no, col_idx, date_idx, values, labels):
    """Append a data row's value, and its date when labels is a list."""
    values.append(_parse_cell(path, row, col_idx, line_no))
    if labels is not None:
        if date_idx is None or date_idx >= len(row):
            raise ParseError(f"{path}: missing date cell at line {line_no}")
        labels.append(row[date_idx].strip())


def _append_block(lines, text, col_idx, date_idx, values, labels) -> bool:
    """Append the rows of ``lines`` (joined: ``text``), which hold no
    quote and no '#', as the row parser would, and return True; or append
    nothing and return False when the row parser must read them.

    Without a quote each line is one row, and its cells are the line's
    pieces between commas, the last one with the line end, which the
    strip() and float() of the row parser remove.
    """
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return False  # the csv module may refuse a cell
    n = len(values)
    try:
        if col_idx == 0 and labels is None and "," not in text:
            values.extend(map(float, lines))
        else:
            rows = [line.split(",") for line in lines]
            values.extend(map(float, map(itemgetter(col_idx), rows)))
            dates = (None if labels is None
                     else [row[date_idx].strip() for row in rows])
    except (ValueError, IndexError):
        del values[n:]
        return False
    if not np.isfinite(np.frombuffer(values, dtype=np.float64)[n:]).all():
        del values[n:]
        return False
    if labels is not None:
        labels += dates
    return True


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
    for row in itertools.chain([header], rows):
        fh.write(",".join([_csv_cell(_fmt(v)) for v in row]) + "\n")


def _csv_cell(text: str) -> str:
    """A text cell of a report row: quoted, with its quotes doubled, when
    it holds a comma, a quote, CR or LF, so the row parser reads it back."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_cells(texts):
    """`_csv_cell` of each text cell of a chunk: the chunk's joined text is
    searched once for the characters that need quoting, and only a chunk
    that holds one is quoted cell by cell."""
    joined = "".join(texts)
    if any(c in joined for c in ',"\r\n'):
        return [_csv_cell(text) for text in texts]
    return texts


_CHUNK = 8192
# Lines the reader takes at a time after the header (`_read_chunks`); a
# block is held as lines and as one string, so it is kept small.
_BLOCK = 256
# Rows written in this process before a trajectory writer may start
# workers; a century-sized run (26,700 rows) stays below it.  Whole
# fit-adaptive runs on a 2-CPU host, medians of 12 interleaved: a pool
# from row 16084 against none added 24 ms at 27k rows and saved 9, 26
# and 39 ms at 41k, 50k and 66k, about 13 ms a chunk it formats.  This
# threshold (the pool starts at row 40660 after the default prefix)
# against 65536: +17 ms at 41k rows, +22 ms at 50k, -43 ms at 1e5 and
# -30 ms at 3e5.  The pool adds about 1 MB of peak RSS: fit-adaptive at
# 3e5 points peaked at 36.4 MB on one CPU and 37.3-37.6 MB on two.
_PARALLEL_MIN_ROWS = 32768
# Bytes of a trajectory row beyond its date cell, at most: t (at most 20
# digits), five float reprs (at most 24 characters each, as in
# -2.2250738585072014e-308), six commas and LF take 147.
_ROW_BYTES = 150
# Largest read when the trajectory's spans are copied into the report
_COPY_BLOCK = 1 << 16


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
    dates = _csv_cells(labels) if labels is not None else [""] * n
    return _format_rows([map(str, range(start, start + n)), dates],
                        float_columns)


def _span_bound(labels, n) -> int:
    """Bytes that n trajectory rows with these date labels (or None) take
    at most, encoded: `_ROW_BYTES` a row, plus 4 len + 2 for a label,
    since `_csv_cell` may quote it, doubling its quotes, and UTF-8
    takes at most 4 bytes a character."""
    if labels is None:
        return _ROW_BYTES * n
    return _ROW_BYTES * n + 4 * sum(map(len, labels)) + 2 * len(labels)


def _write_span(fd, offset, size, *chunk):
    """Format the rows of one chunk and write them into file ``fd`` at
    ``offset``, within the ``size`` bytes reserved there: what a worker
    process does.  Returns (offset, length of the text)."""
    data = "".join(_trajectory_rows(*chunk)).encode()
    if len(data) > size:
        raise RuntimeError(f"{len(data)} bytes of trajectory rows overrun "
                           f"the {size} reserved for them")
    view, done = memoryview(data), 0
    while done < len(data):
        done += os.pwrite(fd, view[done:], offset + done)
    return offset, len(data)


def _copy_spans(src, dst, spans):
    """Append the byte spans of file ``src`` to file ``dst`` in order, in
    reads of at most `_COPY_BLOCK` bytes; both are binary files, and
    ``spans`` holds (offset, length) pairs flat."""
    for offset, length in zip(spans[::2], spans[1::2]):
        end = offset + length
        while offset < end:
            src.seek(offset)
            sent = dst.write(src.read(min(end - offset, _COPY_BLOCK)))
            if not sent:
                raise OSError(f"temporary trajectory file ends at byte "
                              f"{offset}, before {end}")
            offset += sent


def _writer_processes(rows: int) -> int:
    """Worker processes for a trajectory writer that has written ``rows``
    rows in this process; 0 means it stays serial.

    Parallel needs two or more usable CPUs and the fork start method,
    which starts a worker without importing the package again.  The
    output does not depend on the choice: both paths write the same
    bytes in the same order.
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
    rows into an unnamed temporary file in the directory of ``path``,
    each chunk into a span of it; `commit` writes the manifest and
    header to ``path`` and copies the spans after them, in order.
    Leaving the ``with`` block stops the workers and drops the
    temporary file, so a run that fails before `commit` leaves no file,
    and any file at ``path`` as it was.

    In this process the rows are written line by line, and the spans
    follow one another.  From `_PARALLEL_MIN_ROWS` rows written, when
    `_writer_processes` allows, each later chunk gets a span of
    `_span_bound` bytes, and its arrays go to a pool of worker
    processes, started with the first of them, which write its text
    there and return only the span's offset and the text's length.  The
    text fills about three quarters of its span; the rest is a hole,
    which most file systems (ext4, xfs, tmpfs) do not store.  At most one chunk per
    worker is in flight: this process folds the next chunk while the
    workers format.  A chunk's text depends only on its rows, so the
    bytes do not depend on which path ran.
    """

    def __init__(self, path):
        self._path = path
        self._tmp = tempfile.TemporaryFile(
            dir=os.path.dirname(os.path.abspath(path)))
        self._rows = 0
        self._end = 0  # where the next chunk's span starts
        self._spans = array("q")  # (offset, length) of the spans, flat
        self._workers = None  # decided at the row threshold
        self._pool = None
        self._pending = deque()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        if self._pool is not None:
            # terminate() kills the workers, and one killed while it sends
            # a chunk's result can leave the pool's result queue locked
            # for good, so that terminate() never returns: let the chunks
            # in flight arrive first (the workers ignore SIGINT, so an
            # interrupt does not lose one)
            for result in self._pending:
                result.wait()
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self._tmp.close()

    def write(self, traj, values, labels=None):
        """Append the rows of ``traj``: row i is point traj.start + i,
        whose value is values[i] and date labels[i].  DomainError, before
        a row is written, unless values (and labels) hold one entry a
        row."""
        n = len(traj)
        if len(values) != n or (labels is not None and len(labels) != n):
            raise DomainError(
                f"{n} trajectory rows from t={traj.start} need as many "
                f"values and labels, got {len(values)} values"
                + ("" if labels is None else f" and {len(labels)} labels"))
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            chunk = (traj.start + lo,
                     None if labels is None else labels[lo:hi],
                     *(c[lo:hi] for c in (values, traj.mu, traj.sigma,
                                          traj.nu, traj.log_density)))
            if self._workers:
                if self._pool is None:  # started for the chunk in hand
                    import multiprocessing
                    import signal
                    # a forked child must not inherit bytes still buffered
                    self._tmp.flush()
                    self._pool = multiprocessing.get_context("fork").Pool(
                        self._workers, signal.signal,
                        (signal.SIGINT, signal.SIG_IGN))
                size = _span_bound(chunk[1], hi - lo)
                self._pending.append(self._pool.apply_async(
                    _write_span, (self._tmp.fileno(), self._end, size,
                                  *chunk)))
                self._end += size
                if len(self._pending) > self._workers:
                    self._spans.extend(self._pending.popleft().get())
                continue
            # line by line: the chunk's text at once would add about
            # 2 MB to this process's peak
            self._tmp.writelines(map(str.encode, _trajectory_rows(*chunk)))
            end = self._tmp.tell()
            self._spans.extend((self._end, end - self._end))
            self._end = end
            self._rows += hi - lo
            if self._workers is None and self._rows >= _PARALLEL_MIN_ROWS:
                self._workers = _writer_processes(self._rows)

    def commit(self, manifest_lines=()):
        """Write ``path``: the manifest, the header, then every row."""
        while self._pending:
            self._spans.extend(self._pending.popleft().get())
        self._tmp.flush()
        with _open_out(self._path) as out:
            _emit(out, manifest_lines,
                  ["t", "date", "x", "mu", "sigma", "nu", "log_density"], ())
            out.flush()
            _copy_spans(self._tmp, out.buffer, self._spans)


def write_series_csv(path, values, labels=None, manifest_lines=()):
    """Columns: date (when labelled), x.

    Same bytes as writing each row through `_emit`.
    """
    def chunk(lo):
        hi = lo + _CHUNK
        text = [] if labels is None else [_csv_cells(labels[lo:hi])]
        return _format_rows(text, [values[lo:hi]])

    values = np.asarray(values)
    with _open_out(path) as fh:
        _emit(fh, manifest_lines, ["x"] if labels is None else ["date", "x"],
              ())
        for lo in range(0, len(values), _CHUNK):
            fh.writelines(chunk(lo))


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
    labels = list(table.expected.keys())
    header = ["k", "observed"] + [f"expected_nu_{lab}" for lab in labels]

    def rows():
        for i, k in enumerate(table.k_values):
            yield [k, table.observed[i]] + [table.expected[lab][i]
                                            for lab in labels]
    with _open_out(path) as fh:
        _emit(fh, manifest_lines, header, rows())


def write_row_csv(path, header, row, manifest_lines=()):
    with _open_out(path) as fh:
        _emit(fh, manifest_lines, list(header), [list(row)])
