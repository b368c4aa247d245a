"""CSV ingestion, log-return transformation, synthetic data, report writers.

CSV dialect: comma separated, UTF-8 (a leading byte-order mark is
skipped), optional single header line, lines starting with '#' skipped
(reports embed their run manifest that way, so outputs can be
re-ingested).  The reader collects the value column in a float64
`array`, 8 bytes a value where a list of Python floats takes 32.  The
writer emits LF and formats floats with repr, which round-trips
bit-exactly through float().
"""

from __future__ import annotations

import csv
import io
import math
from array import array
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
    "generate_synthetic",
    "write_series_csv",
    "write_trajectory_csv",
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
            raise SeriesTooShortError(
                f"a price series needs at least 2 points, got {self.values.size}")
        bad = np.flatnonzero(~(self.values > 0.0))
        if bad.size:
            raise DegenerateDataError(
                f"nonpositive price {self.values[bad[0]]!r} at index {bad[0]}")
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
    Returns a PriceSeries or ReturnSeries according to ``kind``.
    """
    if kind not in ("prices", "returns"):
        raise DomainError(f"kind must be 'prices' or 'returns', got {kind!r}")
    col_idx, col_name = _resolve_column(column)
    date_idx, date_name = (None, None)
    if date_column is not None:
        date_idx, date_name = _resolve_column(date_column)

    values = array("d")
    labels: List[str] = []
    want_dates = date_column is not None

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

    if not values:
        raise ParseError(f"{path}: no data rows found")
    arr = np.frombuffer(values, dtype=np.float64)
    label_list = labels if want_dates else None
    if kind == "prices":
        return PriceSeries(arr, label_list)
    return ReturnSeries(arr, label_list)


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


def write_series_csv(path, values, labels=None, manifest_lines=()):
    with _open_out(path) as fh:
        if labels is not None:
            _emit(fh, manifest_lines, ["date", "x"], zip(labels, values))
        else:
            _emit(fh, manifest_lines, ["x"], ([v] for v in values))


def _csv_cell(text: str) -> str:
    """A text cell as csv.writer writes it inside a row of several cells."""
    if any(c in text for c in ',"\r\n'):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([text, ""])
        return buf.getvalue()[:-2]
    return text


_TRAJECTORY_CHUNK = 8192


def write_trajectory_csv(path, traj, labels=None, manifest_lines=()):
    """Columns: t, date, x, mu, sigma, nu, log_density.

    Same bytes as writing each row through `_emit`, but formatted from
    column chunks converted with tolist().
    """
    with _open_out(path) as fh:
        _emit(fh, manifest_lines,
              ["t", "date", "x", "mu", "sigma", "nu", "log_density"], ())
        for lo in range(0, len(traj), _TRAJECTORY_CHUNK):
            hi = lo + _TRAJECTORY_CHUNK
            ts = traj.t[lo:hi].tolist()
            dates = ([_csv_cell(labels[t]) for t in ts] if labels is not None
                     else [""] * len(ts))
            columns = [a[lo:hi].tolist() for a in (traj.x, traj.mu, traj.sigma,
                                                   traj.nu, traj.log_density)]
            fh.writelines(f"{t},{date},{x!r},{mu!r},{sigma!r},{nu!r},{logd!r}\n"
                          for t, date, x, mu, sigma, nu, logd
                          in zip(ts, dates, *columns))


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
