import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movingt.data_io import (GarchScenario, PriceSeries, ReturnSeries,
                             Segment, generate_synthetic, read_csv,
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
        write_trajectory_csv(f, traj, None, ["k = v"])
        import csv
        with open(f, newline="") as fh:
            rows = [r for r in csv.reader(fh)
                    if r and not r[0].startswith("#")]
        header, data = rows[0], rows[1:]
        assert header == ["t", "date", "x", "mu", "sigma", "nu", "log_density"]
        got = np.array([[float(r[i]) for i in (2, 3, 4, 5, 6)] for r in data])
        assert np.array_equal(got[:, 0], traj.x)
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
        sc = GarchScenario(5000, 1e-6, 0.08, 0.90)
        series = generate_synthetic(sc, seed=5)
        assert len(series) == 5000
        # long-run variance near omega / (1 - alpha - beta)
        target = 1e-6 / 0.02
        assert float(np.var(series.values)) == pytest.approx(target, rel=0.25)

    def test_invalid_scenarios(self):
        with pytest.raises(DomainError):
            generate_synthetic([], seed=0)
        with pytest.raises(DomainError):
            Segment(10, 0.0, -1.0, 5.0)
        with pytest.raises(DomainError):
            GarchScenario(10, 1e-6, 0.6, 0.5)


def _per_row_trajectory_csv(path, traj, labels, manifest_lines):
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
            t = int(traj.t[i])
            date = labels[t] if labels is not None else ""
            writer.writerow([fmt(v) for v in (
                t, date, traj.x[i], traj.mu[i], traj.sigma[i], traj.nu[i],
                traj.log_density[i])])


class TestTrajectoryWriterBytes:
    @staticmethod
    def _trajectory(n, t0):
        from movingt.adaptive import ParamTrajectory
        rng = np.random.default_rng(61)
        cols = rng.standard_normal((5, n)) * 10.0 ** rng.integers(-300, 300, (5, n))
        cols[:, :3] = [0.0, -0.0, 1e-320]
        cols[:, 3] = -np.inf
        return ParamTrajectory(np.arange(t0, t0 + n, dtype=np.int64), *cols)

    @pytest.mark.parametrize("labelled", [False, True])
    def test_same_bytes_as_per_row_writer(self, tmp_path, labelled):
        # long enough to cross a chunk boundary of the writer
        traj = self._trajectory(20_000, 7)
        labels = None
        if labelled:
            labels = [f"2001-01-{i % 28 + 1:02d}" for i in range(traj.t[-1] + 1)]
            for i, awkward in enumerate(["a,b", 'say "x"', "two\nlines",
                                         "cr\rhere", " padded ", "'q'", ""]):
                labels[7 + 3 * i] = awkward
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_trajectory_csv(new, traj, labels, ["k = v"])
        _per_row_trajectory_csv(old, traj, labels, ["k = v"])
        assert new.read_bytes() == old.read_bytes()
