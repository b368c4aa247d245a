import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movingt.baselines import GarchParams, simulate_garch
from movingt.data_io import (PriceSeries, ReturnSeries, Segment,
                             generate_synthetic, read_csv, read_returns,
                             to_log_returns, write_series_csv,
                             write_trajectory_csv)
from movingt.distribution import abs_central_moment
from movingt.errors import (DegenerateDataError, DomainError, ParseError,
                            SeriesTooShortError)


class TestSeriesTypes:
    def test_prices_must_be_positive(self):
        with pytest.raises(DegenerateDataError):
            PriceSeries(np.array([1.0, -2.0, 3.0]))
        with pytest.raises(DegenerateDataError):
            PriceSeries(np.array([1.0, 0.0]))

    def test_prices_need_two_points(self):
        with pytest.raises(SeriesTooShortError):
            PriceSeries(np.array([1.0]))

    def test_returns_must_be_finite(self):
        with pytest.raises(DegenerateDataError):
            ReturnSeries(np.array([0.0, math.inf]))

    def test_label_length(self):
        with pytest.raises(DomainError):
            ReturnSeries(np.array([0.0, 1.0]), labels=["a"])


class TestToLogReturns:
    def test_e_ratio(self):
        rs = to_log_returns(PriceSeries(np.array([1.0, math.e])))
        assert rs.values == pytest.approx([1.0], abs=1e-15)

    def test_constant_prices(self):
        rs = to_log_returns(PriceSeries(np.array([2.0, 2.0, 2.0])))
        assert np.array_equal(rs.values, [0.0, 0.0])

    def test_length(self):
        prices = PriceSeries(np.linspace(1.0, 2.0, 2518))
        assert len(to_log_returns(prices)) == 2517

    def test_labels_shift_to_later_date(self):
        prices = PriceSeries(np.array([1.0, 2.0, 3.0]),
                             labels=["d0", "d1", "d2"])
        rs = to_log_returns(prices)
        assert rs.labels == ["d1", "d2"]

    @given(st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, returns):
        returns = np.asarray(returns)
        prices = np.concatenate([[1.0], np.exp(np.cumsum(returns))])
        back = to_log_returns(PriceSeries(prices)).values
        assert np.allclose(back, returns, atol=1e-12)


class TestReadCsv:
    def test_two_column_with_header(self, tmp_path):
        f = tmp_path / "prices.csv"
        f.write_text("date,close\n2020-01-01,1.5\n2020-01-02,1.7\n")
        series = read_csv(f, column="close", date_column="date", kind="prices")
        assert isinstance(series, PriceSeries)
        assert series.values == pytest.approx([1.5, 1.7])
        assert series.labels == ["2020-01-01", "2020-01-02"]

    def test_headerless_single_column(self, tmp_path):
        f = tmp_path / "vals.csv"
        f.write_text("0.5\n-0.25\n")
        series = read_csv(f, column=0, kind="returns")
        assert series.values == pytest.approx([0.5, -0.25])

    def test_parse_error_names_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("x\n1.0\n2.0\n3.0\n4.0\n5.0\nabc\n")
        with pytest.raises(ParseError, match="line 7"):
            read_csv(f, column="x", kind="returns")

    def test_rejects_nan_cell(self, tmp_path):
        f = tmp_path / "nan.csv"
        f.write_text("x\n1.0\nnan\n")
        with pytest.raises(ParseError, match="line 3"):
            read_csv(f, column="x", kind="returns")

    def test_rejects_empty_cell(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("a,b\n1.0,2.0\n1.0,\n")
        with pytest.raises(ParseError, match="line 3"):
            read_csv(f, column="b", kind="returns")

    def test_missing_named_column(self, tmp_path):
        f = tmp_path / "cols.csv"
        f.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ParseError, match="no column named"):
            read_csv(f, column="zzz", kind="returns")

    def test_skips_comment_lines(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("# manifest line\nx\n1.25\n")
        series = read_csv(f, column="x", kind="returns")
        assert series.values == pytest.approx([1.25])

    def test_crlf(self, tmp_path):
        f = tmp_path / "crlf.csv"
        f.write_bytes(b"x\r\n0.5\r\n1.5\r\n")
        series = read_csv(f, column="x", kind="returns")
        assert series.values == pytest.approx([0.5, 1.5])

    def test_index_column_of_two(self, tmp_path):
        f = tmp_path / "two.csv"
        f.write_text("2020-01-01,1.0\n2020-01-02,2.0\n")
        series = read_csv(f, column=1, date_column=0, kind="prices")
        assert series.values == pytest.approx([1.0, 2.0])
        assert series.labels == ["2020-01-01", "2020-01-02"]

    def test_byte_order_mark_before_header(self, tmp_path):
        f = tmp_path / "bom.csv"
        f.write_bytes(b"\xef\xbb\xbfdate,close\n2020-01-01,1.5\n2020-01-02,1.7\n")
        series = read_csv(f, column="close", date_column="date", kind="prices")
        assert series.values == pytest.approx([1.5, 1.7])
        assert series.labels == ["2020-01-01", "2020-01-02"]

    def test_byte_order_mark_before_headerless_value(self, tmp_path):
        # the first row must still read as data, not as a header
        f = tmp_path / "bom.csv"
        f.write_bytes(b"\xef\xbb\xbf0.5\n-0.25\n1.0\n2.0\n")
        series = read_csv(f, column=0, kind="returns")
        assert series.values.tolist() == [0.5, -0.25, 1.0, 2.0]

    @pytest.mark.parametrize("spec", [-1, "-5"])
    @pytest.mark.parametrize("which", ["column", "date_column"])
    def test_negative_index_refused(self, tmp_path, spec, which):
        f = tmp_path / "two.csv"
        f.write_text("2020-01-01,1.0\n2020-01-02,2.0\n")
        kwargs = {"column": 1, "date_column": 0, which: spec}
        with pytest.raises(DomainError, match="column index must be >= 0"):
            read_csv(f, kind="prices", **kwargs)


# (case, file bytes, column, the values read or the ParseError message,
# with {f} for the path)
_READER_CASES = [
    ("plain", b"x\n0.5\n-0.25\n1e-3\n", "x", [0.5, -0.25, 1e-3]),
    ("mid-line #", b"x\n0.5 # note\n1.0\n", "x",
     "{f}: cannot parse '0.5 # note' at line 2, column 0"),
    ("comment after the header", b"x\n0.5\n# note\n1.0\n", "x", [0.5, 1.0]),
    ("comment row, value in column 1", b"a,x\n1,0.5\n#c,9\n2,0.75\n", "x",
     [0.5, 0.75]),
    ("# in another column", b"a,b\n0.5,# note\n1.0,2.0\n", "a", [0.5, 1.0]),
    ("nan cell", b"x\n1.0\nnan\n", "x",
     "{f}: non-finite value 'nan' at line 3, column 0"),
    ("inf cell", b"x\n1.0\n-inf\n", "x",
     "{f}: non-finite value '-inf' at line 3, column 0"),
    ("overflowing cell", b"x\n1.0\n1e999\n", "x",
     "{f}: non-finite value '1e999' at line 3, column 0"),
    ("empty cell", b"a,b\n1.0,2.0\n1.0,\n", "b",
     "{f}: empty value cell at line 3, column 1"),
    ("quoted cell", b'x\n"1.5"\n2.0\n', "x", [1.5, 2.0]),
    ("quoted commas", b'a,b\n1.0,2.0\n"3.0,4.0,5.0"\n', "b",
     "{f}: missing value cell at line 3"),
    ("padded cells", b"x\n  0.5 \n\t+1e-3\n", "x", [0.5, 1e-3]),
    ("underscore", b"x\n1_0\n2.0\n", "x", [10.0, 2.0]),
    ("CRLF and a BOM", b"\xef\xbb\xbfx\r\n0.5\r\n1.5\r\n", "x", [0.5, 1.5]),
    ("CR line endings", b"x\r0.5\r1.5\r", "x", [0.5, 1.5]),
    ("headerless", b"0.5\n-0.25\n", 0, [0.5, -0.25]),
    ("headerless after a comment", b"# m\n\n0.5\n-0.25\n", 0, [0.5, -0.25]),
    ("named column of several", b"# k = v\na,x,b\n1,0.5,2\n3,-0.25,4\n",
     "x", [0.5, -0.25]),
    ("ragged row, short", b"a,x\n1,0.5\n2\n", "x",
     "{f}: missing value cell at line 3"),
    ("ragged row, long", b"a,x\n1,0.5\n2,0.75,9\n", "x", [0.5, 0.75]),
    ("blank lines", b"x\n0.5\n\n1.5\n\n", "x", [0.5, 1.5]),
    ("whitespace-only line", b"x\n0.5\n   \n1.5\n", "x", [0.5, 1.5]),
    ("no data row", b"# m\nx\n# n\n", "x", "{f}: no data rows found"),
]


class TestReaderCases:
    @pytest.mark.parametrize("data, column, want",
                             [c[1:] for c in _READER_CASES],
                             ids=[c[0] for c in _READER_CASES])
    def test_values_or_parse_error(self, tmp_path, data, column, want):
        f = tmp_path / "in.csv"
        f.write_bytes(data)
        if isinstance(want, str):
            with pytest.raises(ParseError) as exc:
                read_csv(f, column=column)
            assert str(exc.value) == want.format(f=f)
        else:
            values = read_csv(f, column=column).values
            assert values.dtype == np.float64 and values.flags.writeable
            assert values.tobytes() == np.array(want).tobytes()


class TestReadReturns:
    """`read_returns` hands on the series `read_csv` reads, in pieces."""

    @staticmethod
    def _write(path, n):
        # prices over 200 orders of magnitude, awkward date cells; CRLF
        # line ends, so csv quotes the cell that holds a CR
        import csv
        rng = np.random.default_rng(63)
        values = (np.exp(rng.standard_normal(n))
                  * 10.0 ** rng.integers(-100, 100, n))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\r\n")
            writer.writerow(["date", "x"])
            writer.writerows(zip(_with_awkward_labels(n, 5),
                                 map(repr, values.tolist())))

    @pytest.mark.parametrize("chunk", [1, 2, 7, 8192])
    @pytest.mark.parametrize("kind", ["returns", "prices"])
    def test_pieces_join_to_the_whole_series(self, tmp_path, monkeypatch,
                                             chunk, kind):
        from movingt import data_io
        f = tmp_path / "in.csv"
        self._write(f, 50)
        whole = read_csv(f, date_column="date", kind=kind)
        if kind == "prices":
            whole = to_log_returns(whole)
        monkeypatch.setattr(data_io, "_CHUNK", chunk)
        pieces = list(read_returns(f, date_column="date", kind=kind))
        assert all(0 < len(p) <= chunk for p in pieces)
        assert (np.concatenate([p.values for p in pieces]).tobytes()
                == whole.values.tobytes())
        assert sum((p.labels for p in pieces), []) == whole.labels

    def test_price_errors_as_read_csv_gives_them(self, tmp_path,
                                                 monkeypatch):
        from movingt import data_io
        monkeypatch.setattr(data_io, "_CHUNK", 4)
        f = tmp_path / "in.csv"
        for text, error in (("x\n" + "1.0\n" * 9 + "-2.0\n1.0\n",
                             DegenerateDataError),
                            ("x\n1.0\n", SeriesTooShortError)):
            f.write_text(text)
            with pytest.raises(error) as whole:
                read_csv(f, kind="prices")
            with pytest.raises(error) as pieces:
                list(read_returns(f, kind="prices"))
            assert str(pieces.value) == str(whole.value)


class TestRoundTrips:
    def test_series_csv_bit_exact(self, tmp_path):
        values = np.array([0.1, -1.0 / 3.0, 1e-17, 123456.789012345678,
                           -2.2250738585072014e-308])
        f = tmp_path / "series.csv"
        write_series_csv(f, values, None, ["k = v"])
        back = read_csv(f, column="x", kind="returns")
        assert np.array_equal(back.values, values)

    def test_trajectory_csv_bit_exact(self, tmp_path):
        from movingt.adaptive import AdaptiveConfig, run
        xs = generate_synthetic([Segment(500, 0, 1, 5)], seed=60)
        traj = run(xs, AdaptiveConfig(), init=300)
        f = tmp_path / "traj.csv"
        write_trajectory_csv(f, traj, xs, ["k = v"])
        import csv
        with open(f, newline="") as fh:
            rows = [r for r in csv.reader(fh)
                    if r and not r[0].startswith("#")]
        header, data = rows[0], rows[1:]
        assert header == ["t", "date", "x", "mu", "sigma", "nu", "log_density"]
        got = np.array([[float(r[i]) for i in (2, 3, 4, 5, 6)] for r in data])
        assert np.array_equal(got[:, 0], xs.values[300:])
        assert np.array_equal(got[:, 1], traj.mu)
        assert np.array_equal(got[:, 2], traj.sigma)
        assert np.array_equal(got[:, 3], traj.nu)
        assert np.array_equal(got[:, 4], traj.log_density)


class TestGenerateSynthetic:
    def test_single_gaussian_segment(self):
        series = generate_synthetic([Segment(100, 0.0, 1.0, 1e6)], seed=1)
        assert len(series) == 100

    def test_segment_lengths_concatenate(self):
        series = generate_synthetic(
            [Segment(40, 0, 1, 5), Segment(60, 0, 3, 5)], seed=2)
        assert len(series) == 100

    def test_deterministic(self):
        a = generate_synthetic([Segment(50, 0, 1, 5)], seed=3)
        b = generate_synthetic([Segment(50, 0, 1, 5)], seed=3)
        assert np.array_equal(a.values, b.values)

    def test_moment_matches_formula(self):
        series = generate_synthetic([Segment(10 ** 6, 0.0, 1.0, 5.0)], seed=4)
        target = abs_central_moment(5.0, 1.0)
        assert float(np.abs(series.values).mean()) == pytest.approx(
            target, rel=0.01)

    def test_garch_scenario(self):
        # started at the long-run variance omega / (1 - alpha - beta)
        xs = simulate_garch(np.random.default_rng(5), 5000, GarchParams(
            1e-6, 0.08, 0.90, 1e-6 / (1.0 - 0.08 - 0.90)))
        assert len(xs) == 5000
        assert float(np.var(xs)) == pytest.approx(1e-6 / 0.02, rel=0.25)

    def test_invalid_scenarios(self):
        with pytest.raises(DomainError):
            generate_synthetic([], seed=0)
        with pytest.raises(DomainError):
            Segment(10, 0.0, -1.0, 5.0)
        with pytest.raises(DomainError):
            GarchParams(1e-6, 0.6, 0.5, 1e-6)
        with pytest.raises(DomainError):
            simulate_garch(np.random.default_rng(0), -1,
                           GarchParams(1e-6, 0.08, 0.90, 1e-6))


def _per_row_trajectory_csv(path, traj, series, manifest_lines):
    # the writer as it was before it formatted column chunks: one
    # csv.writer row per step, floats through repr
    import csv

    def fmt(v):
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in manifest_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "date", "x", "mu", "sigma", "nu", "log_density"])
        for i in range(len(traj)):
            t = traj.start + i
            date = series.labels[t] if series.labels is not None else ""
            writer.writerow([fmt(v) for v in (
                t, date, series.values[t], traj.mu[i], traj.sigma[i],
                traj.nu[i], traj.log_density[i])])


def _per_row_series_csv(path, values, labels, manifest_lines):
    # the series writer as it was before it formatted column chunks
    import csv
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in manifest_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        if labels is None:
            writer.writerow(["x"])
            writer.writerows([repr(float(v))] for v in values)
        else:
            writer.writerow(["date", "x"])
            writer.writerows([d, repr(float(v))] for d, v in zip(labels, values))


_AWKWARD_LABELS = ["a,b", 'say "x"', "two\nlines", "cr\rhere", " padded ",
                   "'q'", ""]


def _with_awkward_labels(n, first):
    labels = [f"2001-01-{i % 28 + 1:02d}" for i in range(n)]
    for i, awkward in enumerate(_AWKWARD_LABELS):
        labels[first + 3 * i] = awkward
    return labels


def _awkward_floats(n):
    """Five rows of floats over the whole exponent range, each led by
    0.0, -0.0, 1e-320 and -inf."""
    rng = np.random.default_rng(61)
    cols = rng.standard_normal((5, n)) * 10.0 ** rng.integers(-300, 300, (5, n))
    cols[:, :3] = [0.0, -0.0, 1e-320]
    cols[:, 3] = -np.inf
    return cols


class TestTrajectoryWriterBytes:
    @staticmethod
    def _trajectory(n, t0, labelled=False):
        """(trajectory, series): entry i estimates point t0 + i of a
        series that ends with the trajectory's last point."""
        from movingt.adaptive import ParamTrajectory
        x, *estimates = _awkward_floats(n)
        x[3] = 1.0  # a series holds finite points only
        values = np.concatenate([np.ones(t0), x])
        labels = _with_awkward_labels(t0 + n, t0) if labelled else None
        return (ParamTrajectory(t0, *estimates),
                ReturnSeries(values, labels))

    @staticmethod
    def _long_enough():
        # above the parallel threshold and not a whole number of chunks
        from movingt import data_io
        return data_io._PARALLEL_MIN_ROWS + 1234

    @pytest.mark.parametrize("labelled", [False, True])
    def test_same_bytes_as_per_row_writer(self, tmp_path, writer_path,
                                          labelled):
        path, taken = writer_path
        traj, series = self._trajectory(self._long_enough(), 7, labelled)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_trajectory_csv(new, traj, series, ["k = v"])
        _per_row_trajectory_csv(old, traj, series, ["k = v"])
        assert new.read_bytes() == old.read_bytes()
        assert (taken[0] > 1) == (path == "parallel")

    def test_short_labels_raise_on_either_path(self, tmp_path, writer_path):
        # the series ends before the last step: the writer refuses
        # before it opens the file or chooses a path, so nothing is
        # written and no worker starts (the fixture checks after the call)
        _, taken = writer_path
        for labelled in (False, True):
            traj, series = self._trajectory(self._long_enough(), 7, labelled)
            short = ReturnSeries(series.values[:-100],
                                 None if series.labels is None
                                 else series.labels[:-100])
            out = tmp_path / "t.csv"
            with pytest.raises(DomainError):
                write_trajectory_csv(out, traj, short)
            assert not out.exists()
        assert taken == []


class TestSeriesWriterBytes:
    @pytest.mark.parametrize("labelled", [False, True])
    def test_same_bytes_as_per_row_writer(self, tmp_path, labelled):
        # crosses a chunk boundary of the writer
        values = _awkward_floats(20_000)[0]
        labels = _with_awkward_labels(values.size, 8190) if labelled else None
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_series_csv(new, values, labels, ["k = v"])
        _per_row_series_csv(old, values, labels, ["k = v"])
        assert new.read_bytes() == old.read_bytes()


class TestRowCountsOfTracedCalls:
    """perfbench/child.py counts the rows of a traced call as
    ``len(args[1])`` for both writers and ``len(result)`` for
    `adaptive.run`; these pin the argument order and the lengths."""

    @staticmethod
    def _data_lines(path):
        lines = [line for line in path.read_text().splitlines()
                 if not line.startswith("#")]
        return lines[1:]  # below the header

    def test_second_positional_argument_has_one_entry_per_row(self, tmp_path):
        import inspect
        from movingt.adaptive import AdaptiveConfig, run
        for writer, first_two in ((write_trajectory_csv, ["path", "traj"]),
                                  (write_series_csv, ["path", "values"])):
            params = list(inspect.signature(writer).parameters)
            assert params[:2] == first_two, writer.__name__
        xs = generate_synthetic([Segment(700, 0, 1, 5)], seed=62)
        traj = run(xs, AdaptiveConfig(), init=300)
        assert len(traj) == 400  # the folded points, after the prefix
        calls = ((write_trajectory_csv, tmp_path / "t.csv", traj, xs),
                 (write_series_csv, tmp_path / "s.csv", xs.values, None))
        for writer, *args in calls:
            writer(*args, ["k = v"])
            assert len(self._data_lines(args[0])) == len(args[1])
