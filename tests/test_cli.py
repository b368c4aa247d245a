import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from movingt import data_io
from movingt.adaptive import AdaptiveConfig, EmaState, update
from movingt.baselines import (GarchParams, fit_sigma_mle, garch_filter,
                               simulate_garch)
from movingt.cli import build_parser, main
from movingt.data_io import read_csv
from movingt.distribution import NU_GAUSSIAN, StudentTParams
from movingt.evaluation import nu_of_inv
from movingt.static_estimators import compute_moments

from oracles import log_pdf, tail_table, trajectory_scores


def _run(*argv):
    return main(list(argv))


def _data_rows(path):
    with open(path, newline="") as fh:
        return [r for r in csv.reader(fh) if r and not r[0].startswith("#")]


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _src_env():
    """The environment of a subprocess that imports this package."""
    import movingt
    src = os.path.dirname(os.path.dirname(os.path.abspath(movingt.__file__)))
    return dict(os.environ, PYTHONPATH=src)


@pytest.fixture
def synth_file(tmp_path):
    out = tmp_path / "synth.csv"
    code = _run("synth", "--output", str(out),
                "--segment", "3000,0,1,5", "--segment", "600,0,3,5",
                "--seed", "7")
    assert code == 0
    return out


class TestReturnsCommand:
    def test_price_pair_gives_one(self, tmp_path):
        src = tmp_path / "p.csv"
        src.write_text(f"close\n1.0\n{math.e!r}\n")
        out = tmp_path / "r.csv"
        assert _run("returns", "--input", str(src), "--prices",
                    "--column", "close", "--output", str(out)) == 0
        rows = _data_rows(out)
        assert rows[0] == ["x"]
        assert float(rows[1][0]) == pytest.approx(1.0, abs=1e-15)

    def test_returns_mode_passthrough(self, tmp_path):
        src = tmp_path / "r.csv"
        src.write_text("x\n0.25\n-0.5\n")
        out = tmp_path / "out.csv"
        assert _run("returns", "--input", str(src), "--returns",
                    "--output", str(out)) == 0
        rows = _data_rows(out)
        assert [float(r[0]) for r in rows[1:]] == [0.25, -0.5]

    def test_missing_file_exits_2(self, tmp_path):
        assert _run("returns", "--input", str(tmp_path / "nope.csv"),
                    "--returns", "--output", str(tmp_path / "o.csv")) == 2

    def test_bad_cell_exits_3(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("x\n1.0\nabc\n")
        assert _run("returns", "--input", str(src), "--returns",
                    "--output", str(tmp_path / "o.csv")) == 3

    def test_byte_order_mark_before_header(self, tmp_path):
        src = tmp_path / "bom.csv"
        src.write_bytes(b"\xef\xbb\xbfdate,close\n2020-01-01,1.0\n"
                        b"2020-01-02,2.0\n2020-01-03,4.0\n2020-01-04,2.0\n")
        out = tmp_path / "out.csv"
        assert _run("returns", "--input", str(src), "--prices",
                    "--column", "close", "--date-column", "date",
                    "--output", str(out)) == 0
        rows = _data_rows(out)
        assert rows[0] == ["date", "x"]
        assert [r[0] for r in rows[1:]] == ["2020-01-02", "2020-01-03",
                                            "2020-01-04"]
        assert float(rows[1][1]) == math.log(2.0)

    def test_byte_order_mark_headerless_returns(self, tmp_path):
        # the first value must not be taken for a header
        src = tmp_path / "bom.csv"
        src.write_bytes(b"\xef\xbb\xbf0.5\n-0.25\n1.0\n2.0\n")
        out = tmp_path / "out.csv"
        assert _run("returns", "--input", str(src), "--returns",
                    "--column", "0", "--output", str(out)) == 0
        assert [float(r[0]) for r in _data_rows(out)[1:]] == [0.5, -0.25,
                                                             1.0, 2.0]

    @pytest.mark.parametrize("flags", [
        ["--column", "-5"], ["--column", "-1"],
        ["--column", "1", "--date-column", "-1"]])
    def test_negative_column_index_exits_2(self, tmp_path, capsys, flags):
        src = tmp_path / "two.csv"
        src.write_text("2020-01-01,0.5\n2020-01-02,0.25\n")
        out = tmp_path / "out.csv"
        assert _run("returns", "--input", str(src), "--returns",
                    "--output", str(out), *flags) == 2
        assert "column index must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", [0, (1 << 16) - 1, 1 << 16,
                                      (1 << 16) + 1])
    def test_input_sha256_at_the_block_edges(self, tmp_path, size):
        # the digest reads 64 KiB blocks
        from movingt.cli import _digest_file
        src = tmp_path / "in.csv"
        src.write_bytes(np.random.default_rng(size).bytes(size))
        assert _digest_file(src) == _sha(src)

    def test_input_sha256_is_of_the_raw_bytes(self, tmp_path):
        # a byte-order mark, and more than a MiB of hashing
        src = tmp_path / "big.csv"
        filler = "# " + "z" * 1000 + "\n"
        src.write_bytes(b"\xef\xbb\xbf" + (
            "x\n" + filler * 1100 + "0.25\n-0.5\n").encode())
        assert src.stat().st_size > 1 << 20
        out = tmp_path / "out.csv"
        assert _run("returns", "--input", str(src), "--returns",
                    "--output", str(out)) == 0
        assert f"# input_sha256 = {_sha(src)}\n" in out.read_text()
        assert [float(r[0]) for r in _data_rows(out)[1:]] == [0.25, -0.5]

    def test_input_sha256_without_the_builtin_hash(self, tmp_path):
        # an interpreter built without CPython's own SHA-256 falls back
        # to hashlib's
        src = tmp_path / "in.csv"
        src.write_bytes(np.random.default_rng(3).bytes(100_000))
        code = ("import sys; "
                "sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
                "import hashlib; from movingt.cli import _digest_file, _sha256; "
                "print(_sha256 is hashlib.sha256, _digest_file(sys.argv[1]))")
        out = subprocess.run([sys.executable, "-c", code, str(src)],
                             env=_src_env(), check=True, capture_output=True,
                             text=True).stdout
        assert out.split() == ["True", _sha(src)]

    def test_manifest_embedded(self, tmp_path):
        src = tmp_path / "r.csv"
        src.write_text("x\n0.1\n")
        out = tmp_path / "out.csv"
        _run("returns", "--input", str(src), "--returns", "--output", str(out))
        text = out.read_text()
        assert "# command = returns" in text
        assert "# input_sha256 = " in text


class TestInputIsARegularFile:
    """The input is read twice, once to parse it and once for its
    digest, so --input must be a regular file.  Anything else is refused
    with exit 2 before either read, and leaves no output."""

    @staticmethod
    def _cli(*argv, **kw):
        return subprocess.run([sys.executable, "-m", "movingt.cli", *argv],
                              env=_src_env(), capture_output=True, text=True,
                              timeout=60, **kw)

    @pytest.mark.parametrize("command", ["fit-static", "returns"])
    def test_pipe_is_refused(self, synth_file, tmp_path, command):
        out = tmp_path / "out.csv"
        done = self._cli(command, "--returns", "-i", "/dev/stdin",
                         "-o", str(out), input=synth_file.read_text())
        assert done.returncode == 2
        assert done.stderr == ("error: --input '/dev/stdin' must be a "
                               "regular file: the input is read twice, once "
                               "to parse it and once for its digest\n")
        assert sorted(os.listdir(tmp_path)) == ["synth.csv"]

    def test_fifo_is_refused_before_it_is_opened(self, synth_file, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)  # opening it would wait for a writer
        done = self._cli("returns", "--returns", "-i", str(fifo),
                         "-o", str(tmp_path / "out.csv"))
        assert done.returncode == 2 and "must be a regular file" in done.stderr
        assert sorted(os.listdir(tmp_path)) == ["fifo", "synth.csv"]

    def test_redirected_file_is_read(self, synth_file, tmp_path):
        # with `< file`, /dev/stdin is the file itself
        out, plain = tmp_path / "out.csv", tmp_path / "plain.csv"
        with open(synth_file, "rb") as fh:
            done = self._cli("fit-static", "--returns", "-i", "/dev/stdin",
                             "-o", str(out), stdin=fh)
        assert done.returncode == 0
        assert _run("fit-static", "--returns", "-i", str(synth_file),
                    "-o", str(plain)) == 0
        assert f"# input_sha256 = {_sha(synth_file)}\n" in out.read_text()
        assert _data_rows(out) == _data_rows(plain)

    @pytest.mark.parametrize("argv", [
        ["returns"], ["fit-adaptive"], ["fit-static"], ["tail-table"],
        ["tail-table", "--normalization", "static"], ["sweep"], ["garch"]],
        ids=" ".join)
    def test_every_command_refuses_a_device(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert _run(*argv, "--returns", "-i", os.devnull,
                    "-o", str(out)) == 2
        assert "must be a regular file" in capsys.readouterr().err
        assert not out.exists()


class TestPriceErrors:
    """A price column's errors, the same for every command that reads one."""

    @pytest.mark.parametrize("command", ["returns", "fit-adaptive",
                                         "fit-static", "sweep", "tail-table",
                                         "garch"])
    def test_first_error_in_file_order(self, tmp_path, capsys, command):
        # a nonpositive price in the first chunk, an unparseable cell in a
        # later one: the price is reported, as a plain float
        src, out = tmp_path / "p.csv", tmp_path / "out.csv"
        src.write_text("x\n1.0\n2.0\n0.0\n" + "3.0\n" * 9000 + "abc\n")
        assert _run(command, "--prices", "--input", str(src),
                    "--output", str(out)) == 3
        assert capsys.readouterr().err == \
            "error: nonpositive price 0.0 at index 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["returns", "fit-adaptive"])
    @pytest.mark.parametrize("prices, later", [
        ("1e-300\n1e300\n1\n", "1e+300 after 1e-300"),
        ("1e300\n1e-300\n1\n", "1e-300 after 1e+300")],
        ids=["overflow", "underflow"])
    def test_ratio_out_of_range_exits_3(self, tmp_path, capsys, command,
                                        prices, later):
        # a typed error and no numpy warning, which the suite makes an error
        src, out = tmp_path / "p.csv", tmp_path / "out.csv"
        src.write_text("x\n" + prices)
        assert _run(command, "--prices", "--input", str(src),
                    "--output", str(out)) == 3
        assert capsys.readouterr().err == \
            f"error: non-finite log-return at index 0: price {later}\n"
        assert not out.exists()


class TestOverlongCell:
    """A cell longer than the csv module's field limit is a data error at
    its line, in the header, in a plain data line and in a quoted one."""

    @pytest.mark.parametrize("command", ["returns", "fit-adaptive"])
    @pytest.mark.parametrize("text, line", [
        ("{long},x\n1.0\n", 1),
        ("x\n1.0\n{long}\n", 3),
        ('x\n"1.0"\n2.0\n"{long}"\n', 4)],
        ids=["header", "plain", "quoted"])
    def test_exits_3_naming_the_line(self, tmp_path, capsys, command, text,
                                     line):
        src, out = tmp_path / "r.csv", tmp_path / "out.csv"
        src.write_text(text.format(long="1" * (csv.field_size_limit() + 1)))
        assert _run(command, "--returns", "--input", str(src),
                    "--output", str(out)) == 3
        assert capsys.readouterr().err == (
            f"error: {src}: field larger than field limit "
            f"({csv.field_size_limit()}) at line {line}\n")
        assert not out.exists()


class TestFitAdaptive:
    def test_trajectory_written(self, synth_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = _run("fit-adaptive", "--input", str(synth_file), "--returns",
                    "--output", str(out), "--nu-fixed", "5")
        assert code == 0
        assert "mean_log_likelihood = " in capsys.readouterr().out
        rows = _data_rows(out)
        assert rows[0] == ["t", "date", "x", "mu", "sigma", "nu",
                           "log_density"]
        assert len(rows) - 1 == 3600 - 300

    def test_rate_out_of_range_exits_2(self, synth_file, tmp_path):
        assert _run("fit-adaptive", "--input", str(synth_file), "--returns",
                    "--output", str(tmp_path / "o.csv"), "--eta2", "1.5") == 2

    def test_flat_sigma_on_gaussian_with_cap(self, tmp_path):
        src = tmp_path / "gauss.csv"
        assert _run("synth", "--output", str(src),
                    "--segment", "4000,0,1,inf", "--seed", "3") == 0
        out = tmp_path / "traj.csv"
        assert _run("fit-adaptive", "--input", str(src), "--returns",
                    "--output", str(out), "--nu-fixed", "inf") == 0
        rows = _data_rows(out)
        sigma = np.array([float(r[4]) for r in rows[1:]])
        # stationary input: sigma_t wanders but stays near 1 with no trend
        assert 0.8 < sigma.mean() < 1.2
        assert sigma.std() / sigma.mean() < 0.25
        first, second = sigma[:len(sigma) // 2], sigma[len(sigma) // 2:]
        assert abs(first.mean() - second.mean()) < 0.1


class TestSweep:
    def test_default_grid_row_count(self, synth_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert _run("sweep", "--input", str(synth_file), "--returns",
                    "--output", str(out)) == 0
        rows = _data_rows(out)
        assert rows[0] == ["inv_nu", "static_loglik", "adaptive_loglik"]
        assert len(rows) - 1 == 21
        assert "# garch_loglik = " in out.read_text()

    def test_empty_grid_exits_2(self, synth_file, tmp_path):
        assert _run("sweep", "--input", str(synth_file), "--returns",
                    "--output", str(tmp_path / "o.csv"),
                    "--inv-nu-grid", "") == 2

    def test_only_effective_flags(self, synth_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert _run("sweep", "--input", str(synth_file), "--returns",
                    "--output", str(out), "--eta3", "0.02") == 2
        assert _run("sweep", "--input", str(synth_file), "--returns",
                    "--output", str(out)) == 0
        keys = [line[2:].split(" = ")[0] for line in out.read_text().splitlines()
                if line.startswith("# ")]
        assert {"eta2", "p_sigma", "moment_floor", "warmup"} <= set(keys)
        assert not [k for k in keys
                    if k in ("eta1", "eta3", "p1", "p2") or k.startswith("nu_")]

    @pytest.mark.parametrize("grid, named", [
        ("0,1e-7,0.5,0.5", "1000000.0 and 10000000.0"),
        ("0.5,0.2,0.5", "2.0 and 2.0")])
    def test_grid_entries_that_share_a_row_exit_2(self, synth_file, tmp_path,
                                                  capsys, grid, named):
        out = tmp_path / "sweep.csv"
        assert _run("sweep", "--input", str(synth_file), "--returns",
                    "--output", str(out), "--inv-nu-grid", grid) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_power_above_nu_min(self, synth_file, tmp_path):
        # rows whose nu has no finite moment of this power use nu/2
        out = tmp_path / "sweep.csv"
        assert _run("sweep", "--input", str(synth_file), "--returns",
                    "--output", str(out), "--p-sigma", "1.5") == 0
        assert "# p_eff_overrides = " in out.read_text()

    def test_adaptive_beats_static_on_regime_data(self, synth_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert _run("sweep", "--input", str(synth_file), "--returns",
                    "--output", str(out), "--inv-nu-grid", "0,0.2,0.5") == 0
        for r in _data_rows(out)[1:]:
            assert float(r[2]) > float(r[1])

    def test_power_above_every_nu(self, tmp_path):
        # every row, the Gaussian one included, lowers the power to nu/2
        src = tmp_path / "daily.csv"
        assert _run("synth", "--output", str(src),
                    "--segment", "1500,0,0.01,4", "--seed", "5") == 0
        out = tmp_path / "sweep.csv"
        assert _run("sweep", "--input", str(src), "--returns",
                    "--output", str(out), "--p-sigma", "1e6",
                    "--inv-nu-grid", "0,0.5") == 0
        assert "# p_eff_overrides = 0.0:500000.0;0.5:1.0" in out.read_text()


class TestWarmupExitCodes:
    # below the command's minimum is a bad flag value (2); leaving
    # nothing to score is a data condition (3)
    @pytest.mark.parametrize("command, warmup, code", [
        ("fit-static", "-1", 2), ("fit-static", "5000", 3),
        ("fit-adaptive", "-1", 2), ("fit-adaptive", "5000", 3),
        ("sweep", "-1", 2), ("sweep", "1", 2), ("sweep", "5000", 3),
        ("garch", "-1", 2), ("garch", "5000", 3)])
    def test_exit_code(self, synth_file, tmp_path, command, warmup, code):
        out = tmp_path / "o.csv"
        assert _run(command, "--input", str(synth_file), "--returns",
                    "--output", str(out), "--warmup", warmup) == code
        assert not out.exists()


    # fit-adaptive learns n only at the end of its one pass, so it refuses
    # an over-long warmup after the fold (test_exit_code covers that)
    @pytest.mark.parametrize("warmup, code, command, expensive", [
        ("-1", 2, "garch", "fit_garch_mle"),
        ("5000", 3, "garch", "fit_garch_mle"),
        ("-1", 2, "fit-adaptive", "run_pieces")])
    def test_refused_before_the_fit(self, synth_file, tmp_path, monkeypatch,
                                    command, expensive, warmup, code):
        import movingt.cli

        def fail(*args, **kwargs):
            raise AssertionError(f"{expensive} ran before the warmup check")

        monkeypatch.setattr(movingt.cli, expensive, fail)
        assert _run(command, "--input", str(synth_file), "--returns",
                    "--output", str(tmp_path / "o.csv"),
                    "--warmup", warmup) == code


class TestMomentOverflow:
    def test_overflowing_power_is_a_usage_error(self, tmp_path):
        # |x|^500 overflows float64 on unit-scale data
        src = tmp_path / "s.csv"
        assert _run("synth", "--output", str(src),
                    "--segment", "3000,0,1,4", "--seed", "1") == 0
        env = _src_env()
        for argv in (["fit-adaptive", "--nu-fixed", "1000", "--p-sigma", "500"],
                     ["sweep", "--p-sigma", "1e6"]):
            proc = subprocess.run(
                [sys.executable, "-m", "movingt.cli", *argv, "--returns",
                 "--input", str(src), "--output", str(tmp_path / "o.csv")],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 2, argv
            assert "power" in proc.stderr
            assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["fit-adaptive", "--nu-fixed", "1000", "--p-sigma", "500"],
        ["tail-table", "--nu-fixed", "1000", "--p-sigma", "500"],
        ["sweep", "--p-sigma", "500"]])
    def test_overflow_after_a_small_prefix(self, tmp_path, capsys, argv):
        # the prefix moments underflow to 0, so only the fold overflows
        src = tmp_path / "s.csv"
        assert _run("synth", "--output", str(src), "--segment",
                    "300,0,0.001,4", "--segment", "3000,0,1,4",
                    "--seed", "1") == 0
        assert _run(*argv, "--returns", "--input", str(src),
                    "--output", str(tmp_path / "o.csv")) == 2
        assert "power 500.0 overflows" in capsys.readouterr().err


# 300 zeros, then 7 blocks of a 1e134 spike and 7999 zeros
_SPIKES = "x\n" + "0\n" * 300 + ("1e134\n" + "0\n" * 7999) * 7


class TestScoreOverflow:
    @pytest.mark.parametrize("argv", [
        ["fit-adaptive", "--nu-fixed", "inf", "--eta1", "0"],
        ["sweep"]])
    def test_sum_beyond_float64_exits_4(self, tmp_path, capsys, argv):
        # after each run of zeros sigma sits at the moment floor, so each
        # spike scores about -3e307: the mean is finite, the sum is not
        src = tmp_path / "spikes.csv"
        src.write_text(_SPIKES)
        out = tmp_path / "o.csv"
        assert _run(*argv, "--returns", "--input", str(src),
                    "--output", str(out)) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: the exact sum")
        assert not out.exists()


class TestTailTable:
    def test_adaptive_counts_every_point(self, synth_file, tmp_path):
        out = tmp_path / "tail.csv"
        assert _run("tail-table", "--input", str(synth_file), "--returns",
                    "--output", str(out)) == 0
        text = out.read_text()
        assert "# n_effective = 3600" in text
        rows = _data_rows(out)
        assert rows[0][:2] == ["k", "observed"]
        assert len(rows) - 1 == 10
        observed = [int(r[1]) for r in rows[1:]]
        assert observed == sorted(observed, reverse=True)

    def test_static_normalization(self, synth_file, tmp_path):
        out = tmp_path / "tail.csv"
        assert _run("tail-table", "--input", str(synth_file), "--returns",
                    "--output", str(out), "--normalization", "static",
                    "--nu-labels", "5") == 0
        assert "# normalization = static" in out.read_text()

    def test_label_range_restriction(self, tmp_path):
        src = tmp_path / "dated.csv"
        lines = ["date,x"]
        rng = np.random.default_rng(1)
        for year in (1966, 1967, 1970, 1983, 1984):
            for i in range(50):
                lines.append(f"{year}-01-{i % 28 + 1:02d},{rng.normal() * 0.01!r}")
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "tail.csv"
        assert _run("tail-table", "--input", str(src), "--returns",
                    "--column", "x", "--date-column", "date",
                    "--output", str(out), "--normalization", "static",
                    "--start-label", "1967", "--end-label", "1983") == 0
        assert "# n_effective = 150" in out.read_text()

    def test_bad_nu_label_exits_2(self, synth_file, tmp_path, capsys):
        assert _run("tail-table", "--input", str(synth_file), "--returns",
                    "--output", str(tmp_path / "o.csv"),
                    "--nu-labels", "3,abc") == 2
        assert "--nu-labels" in capsys.readouterr().err

    @pytest.mark.parametrize("labels, named", [
        ("2.5,2.500001,1e6,inf", "2.5 and 2.500001"),
        ("3,1e6,inf", "1000000.0 and 1000000.0")])
    def test_colliding_nu_labels_exit_2(self, synth_file, tmp_path, capsys,
                                        labels, named):
        # both would write one expected_nu_<label> column
        out = tmp_path / "o.csv"
        assert _run("tail-table", "--input", str(synth_file), "--returns",
                    "--output", str(out), "--nu-labels", labels,
                    "--k-max", "3") == 2
        assert f"nu labels {named} both name" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("normalization", ["adaptive", "static"])
    @pytest.mark.parametrize("k_max", ["0", "-2"])
    def test_k_max_below_one_exits_2(self, synth_file, tmp_path, capsys,
                                     normalization, k_max):
        out = tmp_path / "o.csv"
        assert _run("tail-table", "--input", str(synth_file), "--returns",
                    "--output", str(out), "--normalization", normalization,
                    "--k-max", k_max) == 2
        assert "k values must be nonempty" in capsys.readouterr().err
        assert not out.exists()

    def test_warmup_not_accepted(self, synth_file, tmp_path):
        # every point is normalized and counted: there is nothing to warm up
        assert _run("tail-table", "--input", str(synth_file), "--returns",
                    "--output", str(tmp_path / "o.csv"),
                    "--warmup", "300") == 2

    @pytest.mark.parametrize("flag, value", [
        ("--eta1", "0.5"), ("--eta2", "0.05"), ("--eta3", "0.02"),
        ("--moment-floor", "1e-3"), ("--init-prefix", "50")])
    def test_static_refuses_adaptive_only_flags(self, synth_file, tmp_path,
                                                capsys, flag, value):
        # refused even at the default value: it would not reach the rows
        assert _run("tail-table", "--input", str(synth_file), "--returns",
                    "--output", str(tmp_path / "o.csv"),
                    "--normalization", "static", flag, value) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        (), ("--p-sigma", "0.8", "--p1", "0.9", "--p2", "0.3",
             "--nu-adjust", "0.5", "--nu-min", "1.5", "--nu-cap", "50"),
        ("--nu-fixed", "4")])
    def test_static_fit_matches_fit_static(self, synth_file, tmp_path, flags):
        tail, static = tmp_path / "tail.csv", tmp_path / "static.csv"
        common = ("--input", str(synth_file), "--returns") + flags
        assert _run("tail-table", *common, "--output", str(tail),
                    "--normalization", "static") == 0
        assert _run("fit-static", *common, "--output", str(static)) == 0
        manifest = dict(line[2:].split(" = ", 1)
                        for line in tail.read_text().splitlines()
                        if line.startswith("# "))
        rec = dict(zip(*_data_rows(static)))
        for tail_key, static_key in (("mu_hat", "mu_hat"),
                                     ("sigma_hat", "sigma_hat"),
                                     ("nu_hat", "nu_adjusted")):
            # shortest round-trip repr: equal text is equal bits
            assert manifest[tail_key] == rec[static_key]


# flag values the moving estimator accepts as well: every power below
# nu_min, nu_adjust >= 0, a fixed nu above p_sigma
_VALID_STATIC_FLAGS = st.fixed_dictionaries({
    "p_sigma": st.sampled_from([0.3, 0.5, 0.8, 1.0]),
    "p1": st.sampled_from([0.5, 0.8, 1.0]),
    "p2": st.sampled_from([0.3, 0.5, 1.0]),
    "nu_min": st.sampled_from([1.1, 1.5, 3.0]),
    "nu_cap": st.sampled_from([50.0, 1000.0, NU_GAUSSIAN]),
    "nu_adjust": st.sampled_from([0.0, 0.5, 0.9]),
    "nu_fixed": st.sampled_from([None, 4.0, NU_GAUSSIAN]),
    "mu": st.sampled_from(["mean", "0.0"]),
})


class TestStaticFitIsTheFoldsMaps:
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 400),
           scale=st.sampled_from([1e-3, 1.0, 1e3]),
           df=st.sampled_from([1.5, 3.0, 10.0]), flags=_VALID_STATIC_FLAGS)
    @settings(max_examples=40, deadline=None)
    def test_fit_static_is_the_first_estimate_of_the_fold(
            self, tmp_path_factory, seed, n, scale, df, flags):
        # the fold from the whole-sample moments estimates its first point
        # with the static fit's nu and sigma, bit for bit
        assume(flags["p1"] != flags["p2"])
        xs = scale * np.random.default_rng(seed).standard_t(df, n)
        src = tmp_path_factory.mktemp("static") / "x.csv"
        src.write_text("x\n" + "".join(f"{v!r}\n" for v in xs.tolist()))
        argv = ["fit-static", "--input", str(src), "--returns",
                "--output", str(src.with_name("fit.csv")), "--mu", flags["mu"]]
        for name in ("p_sigma", "p1", "p2", "nu_min", "nu_cap", "nu_adjust",
                     "nu_fixed"):
            if flags[name] is not None:
                argv += ["--" + name.replace("_", "-"), repr(flags[name])]
        assert main(argv) == 0
        rec = dict(zip(*_data_rows(src.with_name("fit.csv"))))

        cfg = AdaptiveConfig(
            p_sigma=flags["p_sigma"], p1=flags["p1"], p2=flags["p2"],
            nu_fixed=flags["nu_fixed"], nu_adjustment=flags["nu_adjust"],
            nu_min=flags["nu_min"], nu_cap=flags["nu_cap"])
        mu_hat, moments = compute_moments(
            xs, (cfg.p_sigma, cfg.p1, cfg.p2),
            "mean" if flags["mu"] == "mean" else float(flags["mu"]))
        state = EmaState(mu_hat, *moments)
        traj = update(state, xs[:1], cfg)[1]
        assert float(rec["nu_adjusted"]) == traj.nu[0]
        assert float(rec["sigma_hat"]) == traj.sigma[0]


_STATIC_COMMANDS = [["fit-static"],
                    ["tail-table", "--normalization", "static"]]


class TestStaticFitErrors:
    """What the whole-sample fit cannot estimate, for both of its commands."""

    @pytest.mark.parametrize("command", _STATIC_COMMANDS, ids=" ".join)
    def test_constant_series_exits_3(self, tmp_path, capsys, command):
        src = tmp_path / "flat.csv"
        src.write_text("x\n" + "0.25\n" * 400)
        assert _run(*command, "--input", str(src), "--returns",
                    "--output", str(tmp_path / "o.csv")) == 3
        err = capsys.readouterr().err
        assert "zero moment" in err and "cannot estimate nu" in err

    @pytest.mark.parametrize("command", _STATIC_COMMANDS, ids=" ".join)
    def test_power_above_the_estimated_nu_exits_2(self, tmp_path, capsys,
                                                  command):
        # t1.5 data: nu_adjusted is about 2.43, below --p-sigma 2.5
        src = tmp_path / "heavy.csv"
        assert _run("synth", "--output", str(src),
                    "--segment", "3000,0,1,1.5", "--seed", "1") == 0
        assert _run(*command, "--input", str(src), "--returns",
                    "--output", str(tmp_path / "o.csv"),
                    "--p-sigma", "2.5") == 2
        assert "diverges for p >= nu" in capsys.readouterr().err

    @pytest.mark.parametrize("command", _STATIC_COMMANDS, ids=" ".join)
    def test_fixed_nu_at_the_power_exits_2(self, synth_file, tmp_path, capsys,
                                           command):
        assert _run(*command, "--input", str(synth_file), "--returns",
                    "--output", str(tmp_path / "o.csv"),
                    "--nu-fixed", "1.0") == 2
        assert "diverges for p >= nu" in capsys.readouterr().err


class TestGarchCommand:
    def test_fit_recovers_params(self, tmp_path):
        src = tmp_path / "garch.csv"
        assert _run("synth", "--output", str(src),
                    "--garch", "30000,1e-6,0.08,0.90", "--seed", "3") == 0
        out = tmp_path / "fit.csv"
        assert _run("garch", "--input", str(src), "--returns",
                    "--output", str(out)) == 0
        rows = _data_rows(out)
        header, vals = rows[0], rows[1]
        rec = dict(zip(header, vals))
        assert abs(float(rec["alpha"]) - 0.08) <= 0.03
        assert abs(float(rec["beta"]) - 0.90) <= 0.03
        assert "# persistence_clamped = False" in out.read_text()

    def test_igarch_boundary_fit_is_clamped(self, tmp_path):
        # regime-switching series whose GARCH optimum sits at persistence 1
        src = tmp_path / "r.csv"
        assert _run("synth", "--output", str(src),
                    "--segment", "5000,0,0.005,4", "--segment", "17000,0,0.03,4",
                    "--segment", "5000,0,0.01,4", "--seed", "1") == 0
        out = tmp_path / "g.csv"
        assert _run("garch", "--input", str(src), "--returns",
                    "--output", str(out)) == 0
        rec = dict(zip(*_data_rows(out)))
        assert float(rec["alpha"]) + float(rec["beta"]) < 1.0
        assert "# persistence_clamped = True" in out.read_text()


    def test_non_finite_derivatives_fail_each_start(self, tmp_path):
        # on the spike file omega^2 overflows in the chain rule at every
        # start, whose Hessian no diagonal shift makes positive definite;
        # the subprocess's timeout ends it should it search forever
        src = tmp_path / "spikes.csv"
        src.write_text(_SPIKES)
        proc = subprocess.run(
            [sys.executable, "-m", "movingt.cli", "garch", "--returns",
             "--input", str(src), "--output", str(tmp_path / "g.csv")],
            env=_src_env(), capture_output=True, text=True, timeout=30)
        assert proc.returncode == 4
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: GARCH fit did not converge")
        assert not (tmp_path / "g.csv").exists()

    def test_unconverged_fit_exits_4(self, tmp_path, monkeypatch):
        from movingt import baselines

        src = tmp_path / "garch.csv"
        assert _run("synth", "--output", str(src),
                    "--garch", "3000,1e-6,0.08,0.90", "--seed", "3") == 0
        # one Newton iteration per start: no start converges
        monkeypatch.setattr(baselines, "_NEWTON_MAX_ITER", 1)
        assert _run("garch", "--input", str(src), "--returns",
                    "--output", str(tmp_path / "fit.csv")) == 4


class TestOneAveraging:
    """Every reported score is the exact mean of its model's log-densities:
    math.fsum over the scored points, divided by their count."""

    @pytest.fixture(scope="class")
    def series(self, tmp_path_factory):
        src = tmp_path_factory.mktemp("averaging") / "regimes.csv"
        assert _run("synth", "--output", str(src),
                    "--segment", "9000,0,0.01,4", "--segment", "9000,0,0.03,3",
                    "--segment", "9000,0,0.006,6", "--seed", "2") == 0
        return src, read_csv(str(src)).values

    @staticmethod
    def _exact_mean(scores):
        return math.fsum(scores.tolist()) / scores.size

    @staticmethod
    def _manifest(path):
        return dict(line[2:].split(" = ", 1) for line in open(path)
                    if line.startswith("# "))

    def test_sweep(self, series, tmp_path):
        src, xs = series
        out = tmp_path / "sweep.csv"
        assert _run("sweep", "--input", str(src), "--returns",
                    "--output", str(out)) == 0
        scored = xs[300:]
        for inv_nu, static, _ in _data_rows(out)[1:]:
            nu = nu_of_inv(float(inv_nu))
            sigma = fit_sigma_mle(scored, 0.0, nu)
            assert float(static) == self._exact_mean(
                log_pdf(StudentTParams(0.0, sigma, nu), scored)), inv_nu
        meta = self._manifest(out)
        params = GarchParams(*(float(meta[f"garch_{k}"])
                               for k in ("omega", "alpha", "beta")),
                             float(np.var(xs)))
        assert float(meta["garch_loglik"]) == self._exact_mean(
            trajectory_scores(garch_filter(xs, params), xs)[300:])

    def test_garch(self, series, tmp_path):
        src, xs = series
        out = tmp_path / "garch.csv"
        assert _run("garch", "--input", str(src), "--returns",
                    "--output", str(out)) == 0
        rec = dict(zip(*_data_rows(out)))
        params = GarchParams(*(float(rec[k]) for k in
                               ("omega", "alpha", "beta", "initial_var")))
        assert float(rec["mean_loglik"]) == self._exact_mean(
            trajectory_scores(garch_filter(xs, params), xs)[300:])


class TestInitPrefix:
    @pytest.mark.parametrize("command", ["fit-adaptive", "tail-table"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_below_one_exits_2(self, synth_file, tmp_path, capsys, command,
                               value):
        assert _run(command, "--input", str(synth_file), "--returns",
                    "--output", str(tmp_path / "o.csv"),
                    "--init-prefix", value) == 2
        assert (f"error: --init-prefix must be >= 1, got {value}"
                in capsys.readouterr().err)


class TestNuCap:
    @pytest.mark.parametrize("command", ["fit-adaptive", "fit-static",
                                         "tail-table"])
    def test_gaussian_limit_is_the_largest_cap(self, synth_file, tmp_path,
                                               capsys, command):
        common = (command, "--input", str(synth_file), "--returns",
                  "--output", str(tmp_path / "o.csv"))
        assert _run(*common, "--nu-cap", "1e6") == 0
        capsys.readouterr()
        assert _run(*common, "--nu-cap", "1.1e6") == 2
        assert "nu_cap must be <= 1e+06" in capsys.readouterr().err

    def test_fixed_nu_builds_no_table(self, synth_file, tmp_path):
        assert _run("fit-adaptive", "--input", str(synth_file), "--returns",
                    "--output", str(tmp_path / "o.csv"),
                    "--nu-fixed", "5", "--nu-cap", "1.1e6") == 0


class TestFitStatic:
    def test_outputs_estimates(self, synth_file, tmp_path):
        out = tmp_path / "static.csv"
        assert _run("fit-static", "--input", str(synth_file), "--returns",
                    "--output", str(out)) == 0
        rows = _data_rows(out)
        rec = dict(zip(rows[0], rows[1]))
        assert float(rec["sigma_hat"]) > 0
        assert 1.1 <= float(rec["nu_adjusted"]) <= 1000.0
        assert int(rec["n"]) == 3600

    def test_bad_mu_exits_2(self, synth_file, tmp_path, capsys):
        assert _run("fit-static", "--input", str(synth_file), "--returns",
                    "--output", str(tmp_path / "o.csv"), "--mu", "abc") == 2
        assert "--mu" in capsys.readouterr().err


class TestSynth:
    def test_requires_scenario(self, tmp_path):
        assert _run("synth", "--output", str(tmp_path / "o.csv")) == 2

    def test_segment_and_garch_exclusive(self, tmp_path):
        assert _run("synth", "--output", str(tmp_path / "o.csv"),
                    "--segment", "10,0,1,5",
                    "--garch", "10,1e-6,0.1,0.8") == 2

    def test_garch_path_starts_at_the_stationary_variance(self, tmp_path):
        out = tmp_path / "o.csv"
        assert _run("synth", "--output", str(out),
                    "--garch", "50,1e-6,0.08,0.9", "--seed", "3") == 0
        xs = simulate_garch(np.random.default_rng(3), 50, GarchParams(
            1e-6, 0.08, 0.9, 1e-6 / (1.0 - 0.08 - 0.9)))
        assert [float(r[0]) for r in _data_rows(out)[1:]] == xs.tolist()

    @pytest.mark.parametrize("spec", [
        ["--garch", "0,0.1,0.1,0.8"], ["--segment", "0,0,1,5"]],
        ids=["garch", "segment"])
    def test_no_points_is_a_usage_error(self, tmp_path, capsys, spec):
        # a report without rows is one that every command refuses to read
        out = tmp_path / "o.csv"
        assert _run("synth", "--output", str(out), *spec) == 2
        assert "got 0 points" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_nonstationary_garch_is_a_usage_error(self, tmp_path, capsys):
        # alpha + beta = 1 has no stationary start variance to default to
        assert _run("synth", "--output", str(tmp_path / "o.csv"),
                    "--garch", "100,1e-6,0.1,0.9") == 2
        assert "alpha + beta must be < 1" in capsys.readouterr().err

    def test_same_bytes_with_the_stand_in_secrets(self, tmp_path):
        # a fresh process imports numpy.random with a stand-in `secrets`
        # (this one has imported it already)
        specs = [["--segment", "300,0,1,4", "--segment", "200,0,3,inf"],
                 ["--garch", "300,1e-6,0.08,0.9"]]
        code = textwrap.dedent("""
            import json, sys
            from movingt.cli import main
            out, specs = sys.argv[1], json.loads(sys.argv[2])
            codes = [main(["synth", *spec, "--seed", "5",
                           "--output", f"{out}{i}"])
                     for i, spec in enumerate(specs)]
            print(codes, "secrets" in sys.modules)
        """)
        fresh = str(tmp_path / "fresh")
        out = subprocess.run(
            [sys.executable, "-c", code, fresh, json.dumps(specs)],
            env=_src_env(), check=True, capture_output=True,
            text=True).stdout
        assert out.splitlines()[-1] == "[0, 0] False"
        for i, spec in enumerate(specs):
            here = tmp_path / f"here{i}"
            assert _run("synth", *spec, "--seed", "5",
                        "--output", str(here)) == 0
            assert (tmp_path / f"fresh{i}").read_bytes() == \
                here.read_bytes().replace(str(here).encode(),
                                          f"{fresh}{i}".encode())

    def test_numpy_random_works_after_a_failed_stand_in_import(self):
        # as with a numpy that wants more of `secrets` than the stand-in has
        code = textwrap.dedent("""
            import sys
            from movingt.cli import _import_numpy_random
            sys.modules["numpy.random.bit_generator"] = None
            _import_numpy_random()
            del sys.modules["numpy.random.bit_generator"]
            import numpy as np
            print(np.random.default_rng(5).standard_t(4, 3).tolist(),
                  "secrets" in sys.modules)
        """)
        out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                             check=True, capture_output=True,
                             text=True).stdout
        want = np.random.default_rng(5).standard_t(4, 3).tolist()
        assert out.splitlines()[-1] == f"{want} True"


class TestDeterminismAndHelp:
    def test_rerun_byte_identical(self, synth_file, tmp_path):
        outputs = {}
        for name, argv in {
            "synth": ("synth", "--output", None, "--segment", "500,0,1,5",
                      "--seed", "11"),
            "traj": ("fit-adaptive", "--input", str(synth_file), "--returns",
                     "--output", None, "--warmup", "200",
                     "--init-prefix", "200"),
            "sweep": ("sweep", "--input", str(synth_file), "--returns",
                      "--output", None, "--inv-nu-grid", "0,0.2"),
            "tail": ("tail-table", "--input", str(synth_file), "--returns",
                     "--output", None),
        }.items():
            path = tmp_path / f"{name}.csv"
            argv = [a if a is not None else str(path) for a in argv]
            assert _run(*argv) == 0
            first = _sha(path)
            assert _run(*argv) == 0
            outputs[name] = (first, _sha(path))
        for name, (a, b) in outputs.items():
            assert a == b, f"{name} output changed between identical runs"

    @staticmethod
    def _loaded_by_import(package):
        """Modules of ``package`` that `import movingt.cli` loads, fresh."""
        code = ("import sys, movingt.cli; "
                f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
        out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                             check=True, capture_output=True, text=True).stdout
        return out.strip()

    def test_import_loads_no_scipy(self):
        assert self._loaded_by_import("scipy") == "[]"

    def test_import_loads_no_multiprocessing(self):
        # the trajectory writer imports it only when it starts workers,
        # so no command's start-up pays for it
        assert self._loaded_by_import("multiprocessing") == "[]"

    def test_import_loads_no_openssl(self):
        # the input digest is CPython's own SHA-256, not hashlib's
        assert self._loaded_by_import("_hashlib") == "[]"

    def test_commands_load_no_openssl(self, synth_file, tmp_path):
        long = tmp_path / "long.csv"  # enough rows to start the writer's pool
        _write_dated(long, 41_000)
        argvs = [["returns"], ["fit-static"], ["tail-table"],
                 ["tail-table", "--normalization", "static"],
                 ["sweep", "--inv-nu-grid", "0.2"], ["garch"]]
        code = ("import json, os, sys; from movingt.cli import main; "
                "long, synth, out, argvs = sys.argv[1:5]; "
                "codes = [main([*argv, '--returns', '--input', synth, "
                "'--output', out]) for argv in json.loads(argvs)]; "
                "codes.append(main(['fit-adaptive', '--returns', '--input', "
                "long, '--date-column', 'date', '--output', out])); "
                "codes.append(main(['synth', '--segment', '100,0,1,5', "
                "'--output', out])); "
                "print(codes, len(os.sched_getaffinity(0)) < 2 "
                "or 'multiprocessing.pool' in sys.modules, "
                "'_hashlib' in sys.modules)")
        out = subprocess.run(
            [sys.executable, "-c", code, str(long), str(synth_file),
             str(tmp_path / "o.csv"), json.dumps(argvs)],
            env=_src_env(), check=True, capture_output=True,
            text=True).stdout
        assert out.splitlines()[-1] == f"{[0] * 8} True False"

    def test_garch_and_sweep_load_no_scipy(self, synth_file, tmp_path):
        code = ("import sys; from movingt.cli import main; "
                "codes = [main([cmd, '--input', sys.argv[1], '--returns', "
                "'--output', sys.argv[2]]) for cmd in ('garch', 'sweep')]; "
                "print(codes, sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run(
            [sys.executable, "-c", code, str(synth_file),
             str(tmp_path / "o.csv")],
            env=_src_env(), check=True, capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "[0, 0] []"

    def test_help_exits_zero(self):
        assert _run("--help") == 0
        for cmd in ("returns", "fit-adaptive", "fit-static", "sweep",
                    "tail-table", "garch", "synth"):
            assert _run(cmd, "--help") == 0


def _subparser(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


_IO_FLAGS = {"--input", "--output", "--prices", "--returns", "--column",
             "--date-column", "--help"}
_ADAPTIVE_ONLY = ("--eta1", "--eta2", "--eta3", "--moment-floor",
                  "--init-prefix")
# a legal value per flag, far enough from its default to show in a report
# (warmup above the default init prefix, nu_cap below the series' nu)
_CHANGED = {
    "--eta1": "0.05", "--eta2": "0.2", "--eta3": "0.05",
    "--p-sigma": "0.8", "--p1": "0.9", "--p2": "0.4", "--nu-fixed": "4",
    "--nu-adjust": "0.3", "--nu-min": "3", "--nu-cap": "2.5",
    "--moment-floor": "1e-3", "--warmup": "500", "--init-prefix": "100",
    "--mu": "0.001", "--inv-nu-grid": "0,0.5", "--normalization": "static",
    "--nu-labels": "4", "--k-max": "5", "--start-label": "00200",
    "--end-label": "01200",
}


def _flags(command):
    """Long form of every non-I/O flag the command accepts."""
    longs = [max(a.option_strings, key=len)
             for a in _subparser(command)._actions if a.option_strings]
    return [f for f in longs if f not in _IO_FLAGS]


_STATIC = ("--normalization", "static")
_REACH_CASES = [
    (command, (), flag)
    for command in ("fit-adaptive", "fit-static", "sweep", "garch",
                    "tail-table")
    for flag in _flags(command)
] + [("tail-table", _STATIC, flag) for flag in _flags("tail-table")
     if flag != "--normalization"]


class TestEveryFlagReachesTheReport:
    """Moving any non-I/O flag off its default either changes the report
    beyond the manifest lines that only echo flags, or is refused as a
    usage error that names the flag: no flag is accepted and recorded but
    ignored."""

    _defaults = {}

    @pytest.fixture(scope="class")
    def series(self, tmp_path_factory):
        # heavy tails, an exact-zero run (so the moment floor binds) and a
        # Gaussian stretch, with date labels for the label-range flags
        rng = np.random.default_rng(5)
        x = np.concatenate([0.01 * rng.standard_t(2.5, 600), np.zeros(200),
                            0.02 * rng.standard_normal(700)])
        path = tmp_path_factory.mktemp("reach") / "x.csv"
        path.write_text("date,x\n" + "".join(
            f"{i:05d},{v!r}\n" for i, v in enumerate(x.tolist())))
        return path

    @staticmethod
    def _report(series, command, argv):
        out = series.parent / "out.csv"
        code = _run(command, "--input", str(series), "--returns",
                    "--date-column", "date", "--output", str(out), *argv)
        if code == 2:
            return None
        assert code == 0
        echoes = {a.dest for a in _subparser(command)._actions}
        echoes |= {"command", "input_sha256", "mode"}
        return [line for line in out.read_text().splitlines()
                if not (line.startswith("# ")
                        and line[2:].split(" = ")[0] in echoes)]

    @pytest.mark.parametrize("command, mode, flag", _REACH_CASES,
                             ids=[f"{c}{'-static' if m else ''}{f}"
                                  for c, m, f in _REACH_CASES])
    def test_flag_changes_report(self, series, capsys, command, mode, flag):
        assert flag in _CHANGED, f"no changed value listed for {flag}"
        key = (str(series), command, mode)
        if key not in self._defaults:
            self._defaults[key] = self._report(series, command, list(mode))
        assert self._defaults[key] is not None
        capsys.readouterr()
        changed = self._report(series, command,
                               [*mode, flag, _CHANGED[flag]])
        if changed is None:
            assert f"{flag} applies only to" in capsys.readouterr().err
        else:
            assert changed != self._defaults[key]


class TestOnePassFitAdaptive:
    """fit-adaptive reads, folds, scores and writes its input in one pass
    over fixed-size chunks.  Its report is the one the whole series gives:
    the input's cells parsed by the csv module, `run` over all of them,
    and one csv row per step under the manifest, whose score is the exact
    mean of the scored log-densities."""

    @staticmethod
    def _write_input(path, n, prices=False, dated=False, bad_line=None):
        # CRLF line ends, so csv quotes the awkward label that holds a CR
        from test_data_io import _with_awkward_labels
        x = 0.01 * np.random.default_rng(n).standard_t(4, n)
        cells = list(map(repr, (100.0 * np.exp(np.cumsum(x)) if prices
                                else x).tolist()))
        if bad_line is not None:
            cells[bad_line - 2] = "abc"  # file line = data row + 2
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\r\n")
            if dated:
                writer.writerow(["date", "x"])
                writer.writerows(zip(_with_awkward_labels(n, n // 2), cells))
            else:
                writer.writerow(["x"])
                writer.writerows([c] for c in cells)

    @staticmethod
    def _manifest(report):
        return [line[2:] for line in report.read_text().splitlines()
                if line.startswith("# ")]

    @classmethod
    def _reference(cls, src, report, argv):
        """The report's bytes from parts independent of the CLI's reader
        and writer: the input's cells parsed by the csv module, the
        log-returns of prices by numpy, `run`'s trajectory of the whole
        series, and one csv row per step under the CLI report's manifest,
        whose score line is checked against the exact mean."""
        from movingt.adaptive import AdaptiveConfig, run
        from movingt.data_io import ReturnSeries
        from test_data_io import _per_row_trajectory_csv

        def flag(name, default):
            return int(argv[argv.index(name) + 1]) if name in argv else default
        init, warmup = flag("--init-prefix", 300), flag("--warmup", 300)
        with open(src, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        values = np.array([float(row[-1]) for row in rows])
        # the reader strips cells
        labels = ([row[0].strip() for row in rows]
                  if "--date-column" in argv else None)
        if "--prices" in argv:
            values = np.log(values[1:] / values[:-1])
            labels = None if labels is None else labels[1:]
        series = ReturnSeries(values, labels)
        traj = run(series, AdaptiveConfig(), init=init)
        scores = trajectory_scores(traj, series)
        scored = scores[max(warmup - init, 0):].tolist()
        manifest = cls._manifest(report)
        assert manifest[-1] == \
            f"mean_log_likelihood = {math.fsum(scored) / len(scored)!r}"
        ref = report.with_name("reference.csv")
        _per_row_trajectory_csv(ref, traj, scores, series, manifest)
        return ref.read_bytes()

    # (id, points in the file, prices, dated, flags); the fold starts at
    # --init-prefix (300 by default), and the writer may start workers
    # once T = _PARALLEL_MIN_ROWS rows are written, so the cases with
    # more rows than that can take the parallel path
    _CASES = [
        ("k+8192-1", 300 + 8192 - 1, False, False, []),
        ("k+8192+1", 300 + 8192 + 1, False, False, []),
        ("k+T-1", 300 + data_io._PARALLEL_MIN_ROWS - 1, False, False, []),
        ("k+T+1", 300 + data_io._PARALLEL_MIN_ROWS + 1, False, False, []),
        ("65536-1", 65536 - 1, False, False, []),
        ("65536+1", 65536 + 1, False, False, []),
        ("k+65536+1", 300 + 65536 + 1, False, False, []),
        ("prices, dates", 300 + 65536 + 8192 + 2, True, True,
         ["--prices", "--date-column", "date"]),
        ("init-prefix 9000", 9000 + 65536 + 8192 + 1, False, True,
         ["--date-column", "date", "--init-prefix", "9000",
          "--warmup", "12000"]),
    ]
    _PATHS = [(case, path) for case in _CASES
              for path in (("serial", "parallel")
                           if case[1] > 300 + data_io._PARALLEL_MIN_ROWS
                           else ("serial",))]

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """run(case) runs the CLI on the case's input, written once, and
        returns (report path, reference bytes).  Every run of a case
        writes the same report path, so its manifest, and with it the
        reference, made after its first run, stays the same."""
        work, made = tmp_path_factory.mktemp("one-pass"), {}

        def run_case(case):
            name, n, prices, dated, argv = case
            src = work / f"{name}.csv"
            out = work / f"{name}.out.csv"
            argv = ["fit-adaptive", "--input", str(src), "--output", str(out),
                    *(argv if prices else ["--returns", *argv])]
            if name not in made:
                self._write_input(src, n, prices, dated)
            assert main(argv) == 0
            if name not in made:
                made[name] = self._reference(src, out, argv)
            return out, made[name]
        return run_case

    @pytest.mark.parametrize("case, writer_path", _PATHS,
                             indirect=["writer_path"],
                             ids=[f"{c[0]}-{p}" for c, p in _PATHS])
    def test_same_bytes_as_the_whole_series_functions(
            self, runs, writer_path, capsys, case):
        path, taken = writer_path
        out, want = runs(case)
        assert out.read_bytes() == want
        _, n, prices, _, argv = case
        # a price column gives one return fewer; the prefix is not written
        rows = n - prices - (9000 if "--init-prefix" in argv else 300)
        # the CLI's choice of writer path
        assert taken == ([] if rows < data_io._PARALLEL_MIN_ROWS else
                         [2 if path == "parallel" else 0])
        assert capsys.readouterr().out == self._manifest(out)[-1] + "\n"

    @pytest.mark.parametrize("writer_path", ["parallel"], indirect=True)
    def test_same_bytes_in_chunks_of_1000(self, runs, writer_path,
                                          monkeypatch):
        # the 9000-point prefix spans nine chunks
        from movingt import adaptive, data_io
        runs(self._CASES[-1])  # the reference, in chunks of 8192
        monkeypatch.setattr(data_io, "_CHUNK", 1000)
        monkeypatch.setattr(adaptive, "_CHUNK", 1000)
        out, want = runs(self._CASES[-1])
        assert out.read_bytes() == want

    @pytest.mark.parametrize("writer_path", ["parallel"], indirect=True)
    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("failure, argv, code", [
        ("parse error", [], 3),
        ("power overflow", ["--nu-fixed", "40", "--p-sigma", "2"], 2),
        ("warmup", ["--warmup", str(300 + 65536 + 8192)], 3)])
    def test_failure_after_the_pool_started_leaves_nothing(
            self, tmp_path, writer_path, capsys, existing, failure, argv,
            code):
        import multiprocessing
        _, taken = writer_path
        n = 300 + 65536 + 8192
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        if failure == "power overflow":
            # |x - mu|^2 overflows float64 at the last chunk's 1e200
            x = 0.01 * np.random.default_rng(3).standard_t(4, n)
            x[-10] = 1e200
            src.write_text("x\n" + "".join(f"{v!r}\n" for v in x.tolist()))
        else:
            self._write_input(src, n, bad_line=n if failure == "parse error"
                              else None)
        if existing:
            out.write_bytes(b"an earlier report\n")
        before = sorted(os.listdir(tmp_path))
        assert main(["fit-adaptive", "--returns", "--input", str(src),
                     "--output", str(out), *argv]) == code
        assert taken == [2]
        assert "error:" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before
        if existing:
            assert out.read_bytes() == b"an earlier report\n"
        assert multiprocessing.active_children() == []

    def test_memory_does_not_grow_with_the_series(self, tmp_path, monkeypatch,
                                                  capsys):
        # serial: workers are other processes, which tracemalloc cannot see
        import tracemalloc
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        peaks = []
        for n in (1000, 30_000, 300_000):  # the first fills the caches
            src = tmp_path / f"in{n}.csv"
            self._write_input(src, n)
            tracemalloc.start()
            try:
                assert main(["fit-adaptive", "--returns", "--input", str(src),
                             "--output", str(tmp_path / "out.csv")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[2] - peaks[1]) < 2 ** 20, peaks


def _write_dated(path, n, seed=0, bad_line=None, no_date_line=None):
    """A date,x file of n i.i.d. t4 returns, dated 000000, 000001, ...;
    file line bad_line holds an unparseable value, and file line
    no_date_line a value without its date cell."""
    x = 0.01 * np.random.default_rng(seed).standard_t(4, n)
    lines = [f"{i:06d},{v!r}\n" for i, v in enumerate(x.tolist())]
    if bad_line is not None:
        lines[bad_line - 2] = f"{bad_line - 2:06d},abc\n"
    if no_date_line is not None:
        lines[no_date_line - 2] = f"{x[no_date_line - 2]!r}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,x\n")
        fh.writelines(lines)


class TestStreamedReturns:
    """`returns` streams its input's pieces into the one writer, which
    formats on worker processes past its row threshold; the report is
    the one the whole series gives, on either path."""

    # (id, prices, dated); each piece of a price column carries its last
    # price into the next, across the chunk boundaries of both paths
    _CASES = [("prices, dates", True, True), ("returns", False, False)]

    @pytest.mark.parametrize("case", _CASES, ids=[c[0] for c in _CASES])
    def test_same_bytes_as_the_whole_series(self, tmp_path, writer_path,
                                            case):
        from test_data_io import _per_row_series_csv
        path, taken = writer_path
        _, prices, dated = case
        # past the threshold, and not a whole number of chunks
        n = data_io._PARALLEL_MIN_ROWS + 3 * data_io._CHUNK + 5
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        TestOnePassFitAdaptive._write_input(src, n, prices, dated)
        assert main(["returns", "--input", str(src), "--output", str(out),
                     "--prices" if prices else "--returns",
                     *(["--date-column", "date"] if dated else [])]) == 0
        with open(src, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        values = np.array([float(row[-1]) for row in rows])
        labels = [row[0].strip() for row in rows] if dated else None
        if prices:
            values = np.log(values[1:] / values[:-1])
            labels = None if labels is None else labels[1:]
        ref = tmp_path / "reference.csv"
        _per_row_series_csv(ref, values, labels,
                            TestOnePassFitAdaptive._manifest(out))
        assert out.read_bytes() == ref.read_bytes()
        assert taken == [2 if path == "parallel" else 0]


class TestAtomicReports:
    """A report is written under a temporary name beside --output and
    renamed over it when whole: a failure at any point leaves an earlier
    file as it was and no temporary file."""

    def test_copy_failure_keeps_the_earlier_report(self, tmp_path,
                                                   monkeypatch, capsys):
        import errno
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        _write_dated(src, 3000)
        out.write_bytes(b"an earlier report\n")

        def full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(data_io, "_copy_spans", full)
        before = sorted(os.listdir(tmp_path))
        with pytest.raises(OSError) as exc:
            main(["fit-adaptive", "--returns", "--input", str(src),
                  "--output", str(out)])
        assert exc.value.errno == errno.ENOSPC
        assert out.read_bytes() == b"an earlier report\n"
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("dated", [False, True])
    def test_late_bad_cell_keeps_the_earlier_report(self, tmp_path, capsys,
                                                    dated):
        # returns writes each piece as it is read: rows before the bad
        # cell are written, and thrown away with the temporary file
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        _write_dated(src, 30_000, bad_line=20_002)
        out.write_bytes(b"an earlier report\n")
        before = sorted(os.listdir(tmp_path))
        assert main(["returns", "--returns", "--input", str(src),
                     "--output", str(out),
                     *(["--date-column", "date"] if dated else [])]) == 3
        assert "line 20002" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier report\n"
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("argv", [
        ["returns"], ["fit-adaptive"], ["fit-static"], ["tail-table"],
        ["sweep", "--inv-nu-grid", "0.2"], ["garch"]],
        ids=lambda argv: argv[0])
    @pytest.mark.parametrize("umask", [0o022, 0o007])
    def test_mode_is_the_one_open_gives(self, synth_file, tmp_path, argv,
                                        umask):
        out = tmp_path / "out.csv"
        for existing in (False, True):  # a new file, and one replaced
            old = os.umask(umask)
            try:
                assert main([*argv, "--returns", "--input", str(synth_file),
                             "--output", str(out)]) == 0
            finally:
                os.umask(old)
            assert out.stat().st_mode & 0o777 == 0o666 & ~umask
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "synth.csv"]

    @pytest.mark.parametrize("argv", [["returns"], ["fit-static"]],
                             ids=lambda argv: argv[0])
    def test_missing_directory_is_named_by_the_output(
            self, synth_file, tmp_path, capsys, argv):
        out = tmp_path / "no such directory" / "out.csv"
        assert main([*argv, "--returns", "--input", str(synth_file),
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: [Errno 2] No such file or directory: '{out}'\n"

    def test_synth_mode_is_the_one_open_gives(self, tmp_path):
        out = tmp_path / "out.csv"
        old = os.umask(0o027)
        try:
            assert main(["synth", "--output", str(out),
                         "--segment", "100,0,1,5"]) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o640

    @pytest.mark.parametrize("argv", [
        ["returns"], ["fit-adaptive"], ["fit-static"], ["tail-table"],
        ["sweep", "--inv-nu-grid", "0.2"], ["garch"]],
        ids=lambda argv: argv[0])
    def test_replaced_report_keeps_its_mode(self, synth_file, tmp_path,
                                            argv):
        out = tmp_path / "out.csv"
        out.write_bytes(b"an earlier report\n")
        out.chmod(0o600)
        old = os.umask(0o022)
        try:
            assert main([*argv, "--returns", "--input", str(synth_file),
                         "--output", str(out)]) == 0
        finally:
            os.umask(old)
        assert out.read_bytes() != b"an earlier report\n"
        assert out.stat().st_mode & 0o7777 == 0o600
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "synth.csv"]

    def test_failure_through_a_symlink_keeps_its_target(self, tmp_path,
                                                        capsys):
        src = tmp_path / "in.csv"
        _write_dated(src, 30_000, bad_line=20_002)
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"an earlier report\n")
        link.symlink_to("target.csv")
        before = sorted(os.listdir(tmp_path))
        assert main(["returns", "--returns", "--input", str(src),
                     "--output", str(link)]) == 3
        assert "line 20002" in capsys.readouterr().err
        assert link.is_symlink() and os.readlink(link) == "target.csv"
        assert target.read_bytes() == b"an earlier report\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_symlink_into_dev_is_written_in_place(self, synth_file,
                                                  tmp_path):
        link = tmp_path / "null.csv"
        link.symlink_to(os.devnull)
        assert main(["returns", "--returns", "--input", str(synth_file),
                     "--output", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == os.devnull
        assert sorted(os.listdir(tmp_path)) == ["null.csv", "synth.csv"]

    @pytest.mark.parametrize("command", ["returns", "fit-adaptive",
                                         "tail-table"])
    def test_fifo_is_written_in_place_and_a_symlink_kept(
            self, synth_file, tmp_path, command):
        import threading
        argv = [command, "--returns", "--input", str(synth_file)]
        plain = tmp_path / "plain.csv"
        assert main([*argv, "--output", str(plain)]) == 0
        want = plain.read_bytes().replace(str(plain).encode(), b"OUT")

        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(
            fifo.read_bytes()), daemon=True)
        reader.start()
        code = None
        try:
            code = main([*argv, "--output", str(fifo)])
        finally:
            if code != 0:  # a reader may wait for a writer that never came
                try:
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                except OSError:
                    pass
            reader.join(timeout=30)
        assert code == 0 and not reader.is_alive()
        assert got[0].replace(str(fifo).encode(), b"OUT") == want

        # a symlink's target is replaced, and the link stays
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"an earlier report\n")
        link.symlink_to(target)
        assert main([*argv, "--output", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes().replace(str(link).encode(), b"OUT") \
            == want
        assert sorted(os.listdir(tmp_path)) == [
            "fifo", "link.csv", "plain.csv", "synth.csv", "target.csv"]


class TestStreamedTailTable:
    """Adaptive tail-table folds and counts the input piece by piece.  Its
    report is the one the whole series gives: the state seeded from the
    first k = min(--init-prefix, n) label-filtered points, `run` from
    t = 0 with it, and `tail_table` over every point."""

    @staticmethod
    def _reference(src, report, argv):
        from movingt.adaptive import run, seed_state_from_prefix
        from movingt.data_io import write_tail_csv

        def flag(name, default=None):
            return argv[argv.index(name) + 1] if name in argv else default
        series = read_csv(src, date_column="date")
        values, labels = series.values, series.labels
        start, end = flag("--start-label"), flag("--end-label")
        if start is not None or end is not None:
            keep = [i for i, lab in enumerate(labels)
                    if (start is None or lab >= start)
                    and (end is None or lab <= end)]
            values = values[keep]
        nu_fixed = flag("--nu-fixed")
        cfg = AdaptiveConfig(nu_fixed=None if nu_fixed is None
                             else float(nu_fixed))
        k = min(int(flag("--init-prefix", 300)), values.size)
        traj = run(values, cfg, init=seed_state_from_prefix(values, k, cfg))
        table = tail_table(values, traj, [3.0, 5.0, 10.0, NU_GAUSSIAN])
        manifest = [line[2:] for line in report.read_text().splitlines()
                    if line.startswith("# ")]
        assert f"init_prefix = {k}" in manifest
        assert manifest[-2:] == [f"n_effective = {table.n_effective}",
                                 "normalization = adaptive"]
        ref = report.with_name("reference.csv")
        write_tail_csv(ref, table, manifest)
        return ref.read_bytes()

    # (id, points, --init-prefix, extra flags)
    _CASES = [
        ("whole", 3000, 300, []),
        ("prefix spans pieces", 3000, 1000, []),
        ("range mid-chunk", 3000, 300,
         ["--start-label", "000103", "--end-label", "002890"]),
        ("shorter than the prefix", 200, 300, []),
        ("range shorter than the prefix", 3000, 300,
         ["--start-label", "000010", "--end-label", "000150"]),
        ("nu fixed", 3000, 300, ["--nu-fixed", "5"]),
    ]

    @pytest.mark.parametrize("chunk", [1, 7, 8192])
    @pytest.mark.parametrize("n, init, flags", [c[1:] for c in _CASES],
                             ids=[c[0] for c in _CASES])
    def test_same_bytes_as_the_whole_series(self, tmp_path, monkeypatch,
                                            chunk, n, init, flags):
        from movingt import adaptive, evaluation
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        _write_dated(src, n if chunk < 8192 else 9 * n)
        for module in (data_io, adaptive, evaluation):
            monkeypatch.setattr(module, "_CHUNK", chunk)
        argv = ["tail-table", "--returns", "--date-column", "date",
                "--input", str(src), "--output", str(out),
                "--init-prefix", str(init), *flags]
        assert main(argv) == 0
        assert out.read_bytes() == self._reference(src, out, argv)

    @pytest.mark.parametrize("existing", [False, True])
    def test_bad_cell_in_a_late_chunk(self, tmp_path, capsys, existing):
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        _write_dated(src, 30_000, bad_line=29_000)
        if existing:
            out.write_bytes(b"an earlier report\n")
        before = sorted(os.listdir(tmp_path))
        assert main(["tail-table", "--returns", "--date-column", "date",
                     "--input", str(src), "--output", str(out)]) == 3
        assert "cannot parse 'abc' at line 29000" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before
        if existing:
            assert out.read_bytes() == b"an earlier report\n"

    def test_evaluates_no_density(self, tmp_path, monkeypatch, capsys):
        # the counts read only mu and sigma: with the scorer and every
        # module's log_density refusing to run, the report is the same
        from movingt import evaluation
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        assert _run("synth", "--output", str(src),
                    "--segment", "20000,0,0.01,4", "--seed", "3") == 0
        argv = ["tail-table", "--returns", "--input", str(src),
                "--output", str(out)]
        assert main(argv) == 0
        want, printed = out.read_bytes(), capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("adaptive tail-table scored a point")
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "movingt"
                    and hasattr(module, "log_density")):
                monkeypatch.setattr(module, "log_density", refuse)
        monkeypatch.setattr(evaluation, "score", refuse, raising=False)
        assert main(argv) == 0
        assert out.read_bytes() == want
        assert capsys.readouterr() == printed


# commands that read the values alone, without their date labels
_VALUES_ONLY = [
    ["fit-static"], ["sweep"], ["garch"], ["tail-table"],
    ["tail-table", "--normalization", "static"]]


class TestValuesOnlyRead:
    """fit-static, sweep, garch and tail-table keep no date label, but
    find and check --date-column as `read_csv` does: the same ParseError,
    exit 3 and no report."""

    @pytest.mark.parametrize("argv", _VALUES_ONLY,
                             ids=lambda argv: "-".join(argv))
    @pytest.mark.parametrize("case", ["no such column", "index out of range",
                                      "late row without its date"])
    def test_date_column_errors_as_read_csv_gives_them(
            self, tmp_path, capsys, argv, case):
        from movingt.errors import ParseError
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        _write_dated(src, 30_000, no_date_line=(
            25_000 if case == "late row without its date" else None))
        date_column = {"no such column": "day",
                       "index out of range": "2"}.get(case, "date")
        with pytest.raises(ParseError) as want:
            read_csv(src, date_column=date_column)
        assert main([*argv, "--returns", "--input", str(src), "--output",
                     str(out), "--date-column", date_column]) == 3
        assert capsys.readouterr().err == f"error: {want.value}\n"
        assert "line" in str(want.value)
        assert sorted(os.listdir(tmp_path)) == ["in.csv"]


def _traced_peak(argv):
    import tracemalloc
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Traced peaks (tracemalloc, in this process): `returns` and adaptive
    tail-table hold a piece at a time, and the commands that hold the
    values hold no date label beside them."""

    @pytest.mark.parametrize("argv", [["returns"], ["tail-table"]],
                             ids=lambda argv: argv[0])
    def test_streamed_peak_does_not_grow_with_the_series(
            self, tmp_path, capsys, monkeypatch, argv):
        # serial: the writer's workers are other processes, which
        # tracemalloc cannot see (the pool path has its own test below)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        peaks = []
        for n in (1000, 30_000, 120_000):  # the first fills the caches
            src = tmp_path / f"in{n}.csv"
            _write_dated(src, n)
            peaks.append(_traced_peak([
                *argv, "--returns", "--date-column", "date", "--input",
                str(src), "--output", str(tmp_path / "out.csv")]))
        assert abs(peaks[2] - peaks[1]) < 2 ** 20, peaks

    @pytest.mark.parametrize("writer_path", ["parallel"], indirect=True)
    def test_pool_path_peak_does_not_grow_with_the_series(
            self, tmp_path, capsys, writer_path):
        # this process holds the chunk it reads and, at most, the chunks
        # on their way to the workers, however long the series
        _, taken = writer_path
        peaks = []
        for n in (50_000, 120_000, 240_000):  # the first fills the caches
            src = tmp_path / f"in{n}.csv"
            _write_dated(src, n)
            peaks.append(_traced_peak([
                "returns", "--returns", "--date-column", "date", "--input",
                str(src), "--output", str(tmp_path / "out.csv")]))
        assert taken == [2, 2, 2]
        assert abs(peaks[2] - peaks[1]) < 2 ** 20, peaks

    @pytest.mark.parametrize("argv, n", [
        (["fit-static"], 60_000), (["sweep", "--inv-nu-grid", "0.2"], 20_000),
        (["tail-table", "--normalization", "static"], 60_000)],
        ids=lambda v: v[0] if isinstance(v, list) else str(v))
    def test_no_labels_beside_the_values(self, tmp_path, capsys, argv, n):
        # n labels would take some 60 bytes each
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        _write_dated(src, n)
        common = [*argv, "--returns", "--input", str(src), "--output",
                  str(out)]
        _traced_peak(common)  # fills the caches
        bare = _traced_peak(common)
        dated = _traced_peak([*common, "--date-column", "date"])
        assert abs(dated - bare) < 256 * 1024, (dated, bare)
