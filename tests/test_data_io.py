import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movingt.baselines import GarchParams, simulate_garch
from movingt.data_io import (ReturnSeries, Segment, TrajectoryWriter,
                             generate_synthetic, read_csv, read_returns,
                             to_log_returns, write_series_csv)
from movingt.distribution import abs_central_moment
from movingt.errors import (DegenerateDataError, DomainError, ParseError,
                            SeriesTooShortError)


class TestSeriesTypes:
    def test_prices_must_be_positive(self, tmp_path):
        with pytest.raises(DegenerateDataError,
                           match=r"^nonpositive price -2\.0 at index 1$"):
            to_log_returns(np.array([1.0, -2.0, 3.0]))
        f = tmp_path / "p.csv"
        f.write_text("x\n1.0\n2.0\n0.0\n")
        with pytest.raises(DegenerateDataError,
                           match=r"^nonpositive price 0\.0 at index 2$"):
            read_csv(f, kind="prices")

    def test_prices_need_two_points(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("x\n1.0\n")
        with pytest.raises(SeriesTooShortError):
            read_csv(f, kind="prices")

    def test_returns_must_be_finite(self):
        with pytest.raises(DegenerateDataError):
            ReturnSeries(np.array([0.0, math.inf]))

    def test_label_length(self):
        with pytest.raises(DomainError):
            ReturnSeries(np.array([0.0, 1.0]), labels=["a"])


class TestToLogReturns:
    def test_e_ratio(self):
        rs = to_log_returns(np.array([1.0, math.e]))
        assert rs.values == pytest.approx([1.0], abs=1e-15)

    def test_constant_prices(self):
        rs = to_log_returns(np.array([2.0, 2.0, 2.0]))
        assert np.array_equal(rs.values, [0.0, 0.0])

    def test_length(self):
        assert len(to_log_returns(np.linspace(1.0, 2.0, 2518))) == 2517

    def test_labels_shift_to_later_date(self):
        rs = to_log_returns(np.array([1.0, 2.0, 3.0]), ["d0", "d1", "d2"])
        assert rs.labels == ["d1", "d2"]

    @pytest.mark.parametrize("prices, later", [
        ([1.0, 1e-300, 1e300, 1.0], "1e+300 after 1e-300"),  # overflows
        ([1.0, 1e300, 1e-300, 1.0], "1e-300 after 1e+300")],  # underflows
        ids=["overflow", "underflow"])
    def test_ratio_out_of_range_is_named(self, prices, later):
        # no numpy warning (the suite makes it an error), one typed error
        with pytest.raises(DegenerateDataError) as exc:
            to_log_returns(np.array(prices), offset=10)
        assert str(exc.value) == f"non-finite log-return at index 11: " \
                                 f"price {later}"

    @given(st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, returns):
        returns = np.asarray(returns)
        prices = np.concatenate([[1.0], np.exp(np.cumsum(returns))])
        back = to_log_returns(prices).values
        assert np.allclose(back, returns, atol=1e-12)


class TestReadCsv:
    def test_two_column_with_header(self, tmp_path):
        f = tmp_path / "prices.csv"
        f.write_text("date,close\n2020-01-01,1.5\n2020-01-02,1.7\n")
        series = read_csv(f, column="close", date_column="date", kind="prices")
        assert isinstance(series, ReturnSeries)
        assert series.values == pytest.approx([math.log(1.7 / 1.5)])
        assert series.labels == ["2020-01-02"]

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
        assert series.values == pytest.approx([math.log(2.0)])
        assert series.labels == ["2020-01-02"]

    def test_byte_order_mark_before_header(self, tmp_path):
        f = tmp_path / "bom.csv"
        f.write_bytes(b"\xef\xbb\xbfdate,close\n2020-01-01,1.5\n2020-01-02,1.7\n")
        series = read_csv(f, column="close", date_column="date", kind="prices")
        assert series.values == pytest.approx([math.log(1.7 / 1.5)])
        assert series.labels == ["2020-01-02"]

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
    ("quoted cell over two lines", b'a,x\n"two\nlines",1.0\nd,abc\n', "x",
     "{f}: cannot parse 'abc' at line 4, column 1"),
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
    ("header cell over the csv field limit", b"0" * 131072 + b"1,x\n1.0\n",
     "x", "{f}: field larger than field limit (131072) at line 1"),
    ("cell over the csv field limit", b"x\n1.0\n" + b"0" * 131072 + b"1\n",
     "x", "{f}: field larger than field limit (131072) at line 3"),
    ("quoted cell over the csv field limit",
     b'x\n"1.0"\n"' + b"0" * 131072 + b'1"\n', "x",
     "{f}: field larger than field limit (131072) at line 3"),
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


def _read_outcome(path, column, date_column):
    """What `read_returns` makes of a file: its pieces' values and labels,
    or the type and message of the error it raises."""
    try:
        pieces = list(read_returns(path, column, date_column))
    except Exception as exc:  # the row parser's errors, whatever their type
        return type(exc), str(exc)
    return [p.values.tobytes() for p in pieces], [p.labels for p in pieces]


def _assert_fast_path_reads_as_row_parser(path, column, date_column=None):
    """The same pieces, or the same error, with the reader's fast path and
    with the row parser alone (every block refused), at chunk sizes that
    put block edges on every line."""
    from movingt import data_io
    for chunk in (1, 2, 7, 8192):
        with mock.patch.object(data_io, "_CHUNK", chunk):
            fast = _read_outcome(path, column, date_column)
            with mock.patch.object(data_io, "_append_block",
                                   lambda *block: False):
                rows = _read_outcome(path, column, date_column)
        assert fast == rows, chunk


# (case, file bytes, column, date column)
_DIALECT_TEXTS = [
    ("comments and blank lines",
     b"# m\nx\n0.5\n# c\n\n   \n1.5\n  # d\n2.5\n\t\n", "x", None),
    ("BOM, CRLF and a bare CR", b"\xef\xbb\xbfx\r\n0.5\r1.5\n2.5\r\n3.5",
     "x", None),
    ("quoted cells across block edges",
     b'date,x\nd1,1.0\nd2,2.0\n"a,b",3.0\n"cr\rhere",4.0\n"two\nlines",'
     b'5.0\nd6,6.0\n"say ""x""",7.0\nd8,8.0\n', "x", "date"),
    ("quoted value cell", b'x\n1.0\n2.0\n"3.0"\n4.0\n', "x", None),
    ("underscores", b"x\n1_000\n2.0\n1_0.5\n", "x", None),
    ("padded nan", b"x\n1.0\n2.0\n nan\n3.0\n", "x", None),
    ("inf", b"x\n1.0\n2.0\ninf\n", "x", None),
    ("overflow", b"x\n1.0\n-1e999\n", "x", None),
    ("Unicode whitespace", "x\n\u20031.5\u2003\n\u00a02.5\n3.5\x1c\n"
     "\x0c4.5\n".encode(), "x", None),
    ("line separator in a cell", "date,x\nd\u2028e,1.0\nf,2.0\n".encode(),
     "x", "date"),
    ("NUL in a value", b"x\n1.0\n2\x00\n", "x", None),
    ("NUL in a date", b"date,x\nd\x00,1.0\ne,2.0\n", "x", "date"),
    ("missing value cell", b"a,x\n1,0.5\n2,0.75\n3\n", "x", None),
    ("empty value cell", b"a,x\n1,0.5\n2,\n", "x", None),
    ("missing date cell", b"x,date\n0.5,d1\n0.75\n", "x", "date"),
    ("extra columns", b"a,x\n1,0.5,9\n2,0.75,#\n3,1.0,,\n", "x", None),
    ("date column by index", b"d1,1.0\nd2,2.0\n d3 ,3.0\n", 1, 0),
    ("headerless", b"0.5\n-0.25\n1e-3\n", 0, None),
    ("comma-only line", b"x\n1.0\n,\n", "x", None),
    ("cell at the csv field limit", b"x\n1.0\n" + b"0" * 131071 + b"1\n",
     "x", None),
    ("cell over the csv field limit", b"x\n1.0\n" + b"0" * 131072 + b"1\n",
     "x", None),
]


class TestReaderFastPath:
    """The reader's fast path accepts only what the row parser accepts."""

    @pytest.mark.parametrize("data, column",
                             [c[1:3] for c in _READER_CASES],
                             ids=[c[0] for c in _READER_CASES])
    def test_reader_cases(self, tmp_path, data, column):
        f = tmp_path / "in.csv"
        f.write_bytes(data)
        _assert_fast_path_reads_as_row_parser(f, column)

    @pytest.mark.parametrize("data, column, date_column",
                             [c[1:] for c in _DIALECT_TEXTS],
                             ids=[c[0] for c in _DIALECT_TEXTS])
    def test_dialect_texts(self, tmp_path, data, column, date_column):
        f = tmp_path / "in.csv"
        f.write_bytes(data)
        _assert_fast_path_reads_as_row_parser(f, column, date_column)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_generated_texts(self, tmp_path_factory, data):
        header = data.draw(st.booleans())
        row = st.tuples(st.sampled_from(_DATE_CELLS),
                        st.sampled_from(_VALUE_CELLS),
                        st.sampled_from(["", ",9", ",#", ',"q"'])).map("".join)
        lines = (["# manifest"] if data.draw(st.booleans()) else []) \
            + (["date,x"] if header else []) \
            + data.draw(st.lists(st.one_of(row, row, row, st.sampled_from(
                ["", "   ", "# c", "  #c", ",", "\u00a0"])), max_size=25))
        ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                                  min_size=len(lines), max_size=len(lines)))
        if ends and data.draw(st.booleans()):
            ends[-1] = ""  # no line end after the last line
        bom = "\ufeff" if data.draw(st.booleans()) else ""
        f = tmp_path_factory.mktemp("generated") / "in.csv"
        f.write_bytes((bom + "".join(map("".join, zip(lines, ends)))).encode())
        date_column = data.draw(st.sampled_from([None, "date" if header
                                                 else 0]))
        _assert_fast_path_reads_as_row_parser(f, "x" if header else 1,
                                              date_column)

    def test_plain_blocks_skip_the_csv_module(self, tmp_path, monkeypatch):
        # the header is the only row the csv module reads
        from movingt import data_io
        f = tmp_path / "in.csv"
        values = np.random.default_rng(64).standard_normal(3000)
        dates = [f"2001-01-{i % 28 + 1:02d}" for i in range(values.size)]
        f.write_text("date,x\n" + "".join(
            f"{d},{v!r}\n" for d, v in zip(dates, values.tolist())))
        readers = []
        reader = data_io.csv.reader
        monkeypatch.setattr(data_io.csv, "reader",
                            lambda *a: readers.append(a) or reader(*a))
        series = read_csv(f, date_column="date")
        assert series.values.tobytes() == values.tobytes()
        assert series.labels == dates
        assert len(readers) == 1


# cells of the generated rows: mostly plain, some the row parser refuses
# or reads its own way
_VALUE_CELLS = 4 * [",0.5", ",-0.25", ",1e-3", ", 2.5 ", ",1e-320"] + [
    ",1_000", ",\u20031.5\u2003", ",", ",   ", ", nan", ",inf", ",-inf",
    ",1e999", ",abc", ",1\x00", ",#c", ",1.5 # n", ',"1.5"', ',"a,b"',
    ',"two\nlines"', ',"cr\rhere"', ',"say ""x"""', ',x"y', ",\u2028",
    ",\x0c", ""]
_DATE_CELLS = 4 * ["2001-01-02"] + [" padded ", "", "d\x00", "\u2028",
                                    '"q,1"', "#d"]


class TestReadReturns:
    """`read_returns`, and `read_csv` that joins its pieces, give the
    series the csv module and numpy make of the file: its values, or the
    log-returns of its prices, dated by the later price."""

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

    @staticmethod
    def _expected(path, kind):
        import csv
        with open(path, newline="", encoding="utf-8") as fh:
            dates, cells = zip(*list(csv.reader(fh))[1:])
        values = np.array([float(cell) for cell in cells])
        labels = [date.strip() for date in dates]  # the reader strips cells
        if kind == "prices":
            return np.log(values[1:] / values[:-1]), labels[1:]
        return values, labels

    @pytest.mark.parametrize("chunk", [1, 2, 7, 8192])
    @pytest.mark.parametrize("kind", ["returns", "prices"])
    def test_pieces_join_to_the_whole_series(self, tmp_path, monkeypatch,
                                             chunk, kind):
        from movingt import data_io
        f = tmp_path / "in.csv"
        self._write(f, 50)
        values, labels = self._expected(f, kind)
        monkeypatch.setattr(data_io, "_CHUNK", chunk)
        pieces = list(read_returns(f, date_column="date", kind=kind))
        assert all(0 < len(p) <= chunk for p in pieces)
        joined = ReturnSeries(np.concatenate([p.values for p in pieces]),
                              sum((p.labels for p in pieces), []))
        for series in (joined, read_csv(f, date_column="date", kind=kind)):
            assert series.values.tobytes() == values.tobytes()
            assert series.labels == labels

    def test_price_errors_as_read_csv_gives_them(self, tmp_path,
                                                 monkeypatch):
        # named by their index in the whole series, not in the piece
        from movingt import data_io
        monkeypatch.setattr(data_io, "_CHUNK", 4)
        f = tmp_path / "in.csv"
        for text, error, message in (
                ("x\n" + "1.0\n" * 9 + "-2.0\n1.0\n", DegenerateDataError,
                 "nonpositive price -2.0 at index 9"),
                ("x\n" + "1.0\n" * 9 + "1e-300\n1e300\n", DegenerateDataError,
                 "non-finite log-return at index 9: price 1e+300 after 1e-300"),
                ("x\n1.0\n", SeriesTooShortError,
                 "a price series needs at least 2 points, got 1")):
            f.write_text(text)
            with pytest.raises(error) as whole:
                read_csv(f, kind="prices")
            with pytest.raises(error) as pieces:
                list(read_returns(f, kind="prices"))
            assert str(whole.value) == str(pieces.value) == message


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
        _write_trajectory(f, traj, xs, ["k = v"])
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

    def test_awkward_labels_read_back(self, tmp_path):
        # a label with a bare CR among them: the writers must quote it
        from movingt.adaptive import ParamTrajectory
        labels = ["d0", *_AWKWARD_LABELS]
        series = ReturnSeries(np.arange(len(labels), dtype=float), labels)
        traj = ParamTrajectory(1, *np.ones((4, len(labels) - 1)))
        f, t = tmp_path / "series.csv", tmp_path / "traj.csv"
        write_series_csv(f, series.values, series.labels)
        _write_trajectory(t, traj, series)
        want = [label.strip() for label in labels]  # the reader strips cells
        assert read_csv(f, date_column="date").labels == want
        assert read_csv(t, date_column="date").labels == want[1:]


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


def _write_trajectory(path, traj, series, manifest_lines=()):
    """The rows of ``traj`` and their points of ``series`` through the
    trajectory writer."""
    points = series[traj.start:traj.start + len(traj)]
    with TrajectoryWriter(path) as out:
        out.write(traj, points.values, points.labels)
        out.commit(manifest_lines)


class _LineFeed:
    """A file for csv.writer(lineterminator="\\r\\n") that ends its rows in
    LF: csv quotes the cells that hold a character of its line
    terminator, so a cell with a bare CR is quoted, as a report's is."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, row):
        return self._fh.write(row[:-2] + "\n")


def _per_row_writer(fh):
    import csv
    return csv.writer(_LineFeed(fh), lineterminator="\r\n")


def _per_row_trajectory_csv(path, traj, series, manifest_lines):
    # the writer as it was before it formatted column chunks: one
    # csv.writer row per step, floats through repr
    def fmt(v):
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in manifest_lines:
            fh.write(f"# {line}\n")
        writer = _per_row_writer(fh)
        writer.writerow(["t", "date", "x", "mu", "sigma", "nu", "log_density"])
        for i in range(len(traj)):
            t = traj.start + i
            date = series.labels[t] if series.labels is not None else ""
            writer.writerow([fmt(v) for v in (
                t, date, series.values[t], traj.mu[i], traj.sigma[i],
                traj.nu[i], traj.log_density[i])])


def _per_row_series_csv(path, values, labels, manifest_lines):
    # the series writer as it was before it formatted column chunks
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in manifest_lines:
            fh.write(f"# {line}\n")
        writer = _per_row_writer(fh)
        if labels is None:
            writer.writerow(["x"])
            writer.writerows([repr(float(v))] for v in values)
        else:
            writer.writerow(["date", "x"])
            writer.writerows([d, repr(float(v))] for d, v in zip(labels, values))


_AWKWARD_LABELS = ["a,b", 'say "x"', "two\nlines", "cr\rhere", " padded ",
                   "'q'", ""]


def _plain_labels(n):
    return [f"2001-01-{i % 28 + 1:02d}" for i in range(n)]


def _with_awkward_labels(n, first):
    labels = _plain_labels(n)
    for i, awkward in enumerate(_AWKWARD_LABELS):
        labels[first + 3 * i] = awkward
    return labels


# the writers' `labelled` cases: no labels, every awkward label in a row,
# or one awkward label among plain ones (`_labels`)
_LABELLED = [False, True, *_AWKWARD_LABELS[:4]]


def _labels(n, first, labelled):
    """Labels of n rows: none (False), every awkward label from row
    ``first`` on (True), or else plain labels but the one ``labelled``,
    100 rows before the end, so that its chunk holds no other label to
    quote."""
    if labelled is False:
        return None
    if labelled is True:
        return _with_awkward_labels(n, first)
    labels = _plain_labels(n)
    labels[-100] = labelled
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
        labels = _labels(t0 + n, t0, labelled)
        return (ParamTrajectory(t0, *estimates),
                ReturnSeries(values, labels))

    @staticmethod
    def _long_enough():
        # above the parallel threshold and not a whole number of chunks
        from movingt import data_io
        return data_io._PARALLEL_MIN_ROWS + 1234

    @pytest.mark.parametrize("labelled", _LABELLED)
    def test_same_bytes_as_per_row_writer(self, tmp_path, writer_path,
                                          labelled):
        path, taken = writer_path
        traj, series = self._trajectory(self._long_enough(), 7, labelled)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        _write_trajectory(new, traj, series, ["k = v"])
        _per_row_trajectory_csv(old, traj, series, ["k = v"])
        assert new.read_bytes() == old.read_bytes()
        assert (taken[0] > 1) == (path == "parallel")

    def test_no_worker_starts_without_a_chunk_for_it(self, tmp_path,
                                                     writer_path,
                                                     monkeypatch):
        # the last chunk brings the rows to the threshold: the writer
        # chooses its path then, and has no chunk left to send
        import multiprocessing
        from movingt import data_io
        path, taken = writer_path
        contexts = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda *a: contexts.append(a) or get_context(*a))
        traj, series = self._trajectory(data_io._PARALLEL_MIN_ROWS, 7)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        _write_trajectory(new, traj, series)
        _per_row_trajectory_csv(old, traj, series, ())
        assert new.read_bytes() == old.read_bytes()
        assert taken == [2 if path == "parallel" else 0]
        assert contexts == []

    @pytest.mark.parametrize("writer_path", ["parallel"], indirect=True)
    def test_failure_stops_the_pool_with_no_chunk_in_flight(
            self, tmp_path, writer_path, monkeypatch):
        # a worker killed while it sends a chunk's text can leave the
        # pool's result queue locked, and terminate() then never returns
        import multiprocessing.pool
        _, taken = writer_path
        traj, series = self._trajectory(self._long_enough(), 7)
        ready = []
        terminate = multiprocessing.pool.Pool.terminate

        def spy(pool):
            ready.append([result.ready() for result in out._pending])
            terminate(pool)
        monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", spy)
        with pytest.raises(RuntimeError, match="in flight"):
            with TrajectoryWriter(tmp_path / "t.csv") as out:
                out.write(traj, series.values[7:])
                raise RuntimeError("a failure with a chunk in flight")
        assert taken == [2]
        assert ready == [[True]]
        assert os.listdir(tmp_path) == []

    def test_short_labels_raise_on_either_path(self, tmp_path, writer_path):
        # fewer values or labels than rows: the writer refuses before it
        # formats a row or chooses a path, so nothing is written and no
        # worker starts (the fixture checks after the call)
        _, taken = writer_path
        traj, series = self._trajectory(self._long_enough(), 7, True)
        values, labels = series.values[7:], series.labels[7:]
        out = tmp_path / "t.csv"
        for short in ((values[:-100], None), (values[:-100], labels[:-100]),
                      (values, labels[:-1])):
            with pytest.raises(DomainError):
                with TrajectoryWriter(out) as writer:
                    writer.write(traj, *short)
                    writer.commit()
            assert not out.exists()
        assert taken == []
        assert os.listdir(tmp_path) == []


# labels that take the most bytes a character: all quotes (doubled,
# then quoted), 4-byte UTF-8 characters, and the other characters that
# make a cell quoted
_LONGEST_LABELS = ['"' * 9, "\U0001F600" * 9, "\r\n,\r\n,\r", '"', "\U0001F600",
                   ""]


class TestTrajectorySpans:
    """Format workers write each chunk into a span of the temporary file
    reserved by `_span_bound`, and return only where and how much."""

    @staticmethod
    def _longest_chunk(start, n, labels):
        """A chunk of n rows from t = start whose floats all have the
        longest repr, or are -inf."""
        longest = np.full(n, -2.2250738585072014e-308)
        longest[::7] = -np.inf
        return (start, labels, *(longest for _ in range(5)))

    @pytest.mark.parametrize("labelled", [False, True])
    def test_bound_covers_the_longest_rows(self, labelled):
        from movingt import data_io
        n = 600
        labels = ([_LONGEST_LABELS[i % len(_LONGEST_LABELS)]
                   for i in range(n)] if labelled else None)
        for start in (0, 2 ** 63 - n // 2, 10 ** 20 - n):  # t up to 20 digits
            chunk = self._longest_chunk(start, n, labels)
            text = "".join(data_io._trajectory_rows(*chunk)).encode()
            assert len(text) <= data_io._span_bound(labels, n)
        for label in _LONGEST_LABELS:  # one label a row
            chunk = self._longest_chunk(10 ** 20 - 1, 1, [label])
            text = "".join(data_io._trajectory_rows(*chunk)).encode()
            assert len(text) <= data_io._span_bound([label], 1)

    def test_a_text_longer_than_its_span_is_refused(self, tmp_path):
        from movingt import data_io
        chunk = self._longest_chunk(0, 3, None)
        with open(tmp_path / "t", "w+b") as fh:
            with pytest.raises(RuntimeError, match="overrun"):
                data_io._write_span(fh.fileno(), 0, 100, *chunk)
            assert os.fstat(fh.fileno()).st_size == 0

    def test_longest_labelled_chunks_give_the_serial_bytes(
            self, tmp_path, writer_path):
        path, taken = writer_path
        traj, series = TestTrajectoryWriterBytes._trajectory(
            TestTrajectoryWriterBytes._long_enough(), 7)
        for column in (traj.mu, traj.sigma, traj.nu, traj.log_density):
            column[1::3] = -2.2250738585072014e-308
        labels = [_LONGEST_LABELS[i % len(_LONGEST_LABELS)]
                  for i in range(len(series))]
        series = ReturnSeries(series.values, labels)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        _write_trajectory(new, traj, series, ["k = v"])
        _per_row_trajectory_csv(old, traj, series, ["k = v"])
        assert new.read_bytes() == old.read_bytes()
        assert (taken[0] > 1) == (path == "parallel")

    @pytest.mark.parametrize("writer_path", ["parallel"], indirect=True)
    def test_workers_return_offset_and_length(self, tmp_path, writer_path,
                                              monkeypatch):
        import multiprocessing.pool
        results = []
        get = multiprocessing.pool.ApplyResult.get

        def spy(result, timeout=None):
            results.append(get(result, timeout))
            return results[-1]
        monkeypatch.setattr(multiprocessing.pool.ApplyResult, "get", spy)
        traj, series = TestTrajectoryWriterBytes._trajectory(
            TestTrajectoryWriterBytes._long_enough() + 3 * 8192, 7, True)
        _write_trajectory(tmp_path / "t.csv", traj, series)
        assert len(results) == 4  # the chunks from the threshold on
        for result in results:
            assert type(result) is tuple and len(result) == 2
            assert all(type(v) is int for v in result)

    def test_parallel_path_holds_no_chunk_text(self, tmp_path, monkeypatch):
        # the main process's Python allocations, with the pool from the
        # second chunk on: four workers, four chunks in flight, all of
        # them finished before the commit; a worker that sent its chunk's
        # text back would put 4 x 0.9 MB on this process (1.3 MiB over
        # the serial path), one that writes it returns two ints
        import multiprocessing
        import tracemalloc
        from movingt import data_io
        monkeypatch.setattr(data_io, "_PARALLEL_MIN_ROWS", data_io._CHUNK)
        traj, series = TestTrajectoryWriterBytes._trajectory(
            5 * data_io._CHUNK, 7)
        values = series.values[7:]

        def peak(cpus, traced=True):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)
            if traced:
                tracemalloc.start()
            try:
                with TrajectoryWriter(tmp_path / "t.csv") as out:
                    out.write(traj, values)
                    for result in out._pending:
                        result.wait()
                    out.commit()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        peak({0, 1, 2, 3}, traced=False)  # imports the pool's modules
        serial, parallel = peak({0}), peak({0, 1, 2, 3})
        assert multiprocessing.active_children() == []
        assert parallel - serial < 2 ** 19, (serial, parallel)


class TestSeriesWriterBytes:
    @pytest.mark.parametrize("labelled", _LABELLED)
    def test_same_bytes_as_per_row_writer(self, tmp_path, labelled):
        # crosses a chunk boundary of the writer
        values = _awkward_floats(20_000)[0]
        labels = _labels(values.size, 8190, labelled)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_series_csv(new, values, labels, ["k = v"])
        _per_row_series_csv(old, values, labels, ["k = v"])
        assert new.read_bytes() == old.read_bytes()


class TestRowCountsOfTracedCalls:
    """perfbench/child.py counts the rows of a traced call as
    ``len(args[1])`` for `write_series_csv` and ``len(result)`` for
    `adaptive.run`; these pin the argument order and the lengths."""

    @staticmethod
    def _data_lines(path):
        lines = [line for line in path.read_text().splitlines()
                 if not line.startswith("#")]
        return lines[1:]  # below the header

    def test_second_positional_argument_has_one_entry_per_row(self, tmp_path):
        import inspect
        from movingt.adaptive import AdaptiveConfig, run
        params = list(inspect.signature(write_series_csv).parameters)
        assert params[:2] == ["path", "values"]
        xs = generate_synthetic([Segment(700, 0, 1, 5)], seed=62)
        traj = run(xs, AdaptiveConfig(), init=300)
        assert len(traj) == 400  # the folded points, after the prefix
        f = tmp_path / "s.csv"
        write_series_csv(f, xs.values, None, ["k = v"])
        assert len(self._data_lines(f)) == len(xs.values)
