"""CLI behaviour: subcommands, reports, exit codes, reproducibility."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import torusdet
from torusdet.cli import main, parse_basis, parse_grid
from torusdet.discrete import MAX_SORTED, MAX_SUM_LATTICE, MAX_TREE_VERTICES
from torusdet.errors import InputError
from torusdet.euler_maclaurin import EM_MAX_GRID, GL_ORDER_PATTERNS


class TestParsers:
    def test_grid(self):
        assert parse_grid("16:4096:x2") == [16, 32, 64, 128, 256, 512, 1024,
                                            2048, 4096]
        assert parse_grid("1:8:x2.0", integer=False) == [1.0, 2.0, 4.0, 8.0]

    def test_grid_ratio_floor(self):
        with pytest.raises(InputError):
            parse_grid("2:8:x1.1")

    def test_grid_shape(self):
        with pytest.raises(InputError):
            parse_grid("2:8")

    def test_basis(self):
        b = parse_basis("1,1;0,0;-1,0")
        assert b.pairs == ((1.0, 1), (0.0, 0), (-1.0, 0))


class TestCommands:
    def test_main_theorem_m1(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["main-theorem", "--m", "1", "--n-grid", "16:4096:x2",
                     "--json-out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["constant"] == pytest.approx(
            math.log(4 * math.pi ** 2), abs=1e-6)
        assert report["criteria"] == ["AC2"]
        assert "pass" in capsys.readouterr().out

    def test_main_theorem_failing_tolerance(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["main-theorem", "--m", "1", "--n-grid", "16:1024:x2",
                     "--tol", "1e-15", "--json-out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["pass"] is False

    def test_logdet_single(self, capsys):
        assert main(["logdet", "--m", "1", "--n", "3"]) == 0
        line = capsys.readouterr().out
        assert "-0.7598345" in line

    def test_logdet_series_csv(self, tmp_path):
        csv = tmp_path / "series.csv"
        code = main(["logdet", "--m", "1", "--n-grid", "8:64:x2",
                     "--csv-out", str(csv)])
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1] == "x,value"
        assert len(lines) == 2 + 4

    def test_trees(self, capsys):
        assert main(["trees", "--m", "2", "--n", "3"]) == 0
        assert "11664" in capsys.readouterr().out

    def test_trees_m2_n24_matches_spectral_product(self, tmp_path):
        from torusdet import DiscreteTorus, eigenvalue_product_integer

        out = tmp_path / "t.json"
        assert main(["trees", "--m", "2", "--n", "24",
                     "--json-out", str(out)]) == 0
        product = eigenvalue_product_integer(DiscreteTorus(2, 24))
        assert product % 576 == 0
        assert json.loads(out.read_text())["count"] == product // 576

    def test_trace(self, capsys):
        assert main(["trace", "--m", "1", "--n", "4", "--z", "1.0"]) == 0
        val = 1 + 2 / (1 + 8 / math.pi ** 2) + 1 / (1 + 16 / math.pi ** 2)
        assert f"{val:.6f}"[:8] in capsys.readouterr().out

    def test_regint_log_kernel(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["regint", "--integrand", "log-kernel", "--lam", "4.0",
                     "--json-out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert -2 * rep["value"] == pytest.approx(math.log(4.0), abs=1e-8)
        assert rep["value"] == pytest.approx(
            rep["core_part"] + rep["tail_zero_part"] + rep["tail_inf_part"])

    def test_interchange_all(self, tmp_path):
        out = tmp_path / "i.json"
        code = main(["interchange-check", "--all", "--tol", "1e-6",
                     "--json-out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert len(rep["results"]) == 4
        assert all(r["pass"] is True for r in rep["results"])
        for r in rep["results"]:
            assert set(r) == {"name", "lhs", "rhs", "corr", "degree",
                              "abs_diff", "pass"}

    def test_em_check(self):
        assert main(["em-check", "--m", "1", "--n", "8", "--z", "1.0"]) == 0

    def test_zeta_det(self, tmp_path):
        out = tmp_path / "z.json"
        assert main(["zeta-det", "--m", "1", "--tol", "1e-4",
                     "--json-out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["value"] == pytest.approx(2 * math.log(2 * math.pi),
                                             abs=1e-8)

    @pytest.mark.parametrize("m", [3, 4])
    def test_zeta_det_both_routes_above_m2(self, m, tmp_path):
        out = tmp_path / "z.json"
        assert main(["zeta-det", "--m", str(m), "--tol", "1e-7",
                     "--json-out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["pass"] is True
        assert rep["max_abs_diff"] == abs(rep["regint_route"] - rep["value"])

    def test_trace_continuum(self, capsys):
        assert main(["trace-continuum", "--m", "1", "--z", "1.0",
                     "--alpha", "1"]) == 0
        assert f"{math.pi / math.tanh(math.pi):.6f}"[:8] in capsys.readouterr().out

    def test_converge(self):
        assert main(["converge", "--m", "1", "--n-grid", "8:1024:x2",
                     "--tol", "1e-4"]) == 0

    def test_eigenproduct(self, tmp_path):
        out = tmp_path / "e.json"
        code = main(["eigenproduct", "--m", "1", "--mode", "by_cutoff",
                     "--grid", "16:4096:x2", "--tol", "1e-6",
                     "--target", str(2 * math.log(2 * math.pi)),
                     "--json-out", str(out)])
        assert code == 0

    def test_spectrum(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["spectrum", "--n", "4", "--json-out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["one_axis_values"][0] == 0.0


class TestExitCodes:
    def test_invalid_grid_is_input_error(self):
        assert main(["main-theorem", "--m", "1", "--n-grid", "16:64:x1.05"]) == 2

    @pytest.mark.parametrize("argv", [
        ["logdet", "--m", "2"],
        ["main-theorem", "--basis", "garbage"],
        ["main-theorem", "--n-grid", "16:4096:xabc"],
        ["trace", "--m", "2", "--n", "4", "--z-grid", "0.5:inf:x2"],
        ["trace", "--n", "4", "--z", "nan"],
        ["trace", "--n", "4", "--z", "inf"],
        ["em-check", "--z", "nan"],
        ["trace-continuum", "--z", "nan"],
        ["trace-continuum", "--z", "inf"],
        ["regint", "--integrand", "log-kernel", "--lam", "-1"],
        ["regint", "--integrand", "log-kernel", "--lam", "0"],
        ["regint", "--integrand", "log-kernel", "--lam", "nan"],
        ["main-theorem", "--m", "4"],
        ["regint", "--window-end", "inf"],
    ])
    def test_bad_input_is_input_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error:")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["eigenproduct", "--m", "5"],
        ["trace-continuum", "--m", "7", "--z", "1", "--alpha", "4"],
    ])
    def test_unsupported_dimension_exits_at_once(self, argv):
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("argv", [
        ["eigenproduct", "--m", "1", "--mode", "by_count",
         "--grid", "1e12:1e12:x2", "--basis", "0,0"],
        ["eigenproduct", "--m", "2", "--grid", "1e5:1e5:x2", "--basis", "0,0"],
        ["eigenproduct", "--m", "1", "--grid", "1e300:1e300:x2"],
        ["spectrum", "--n", str(10 ** 12)],
        ["em-check", "--M", "1000"],
        ["em-check", "--m", "2", "--n", "1024"],
        ["em-check", "--m", "2", "--n", "65"],
        ["em-check", "--m", "1", "--n", "131073"],
    ])
    def test_oversized_enumeration_exits_at_once(self, argv, capsys):
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("argv", [
        ["trace-continuum", "--z", "1e-300"],
        ["trace-continuum", "--m", "2", "--alpha", "2", "--z", "1e-300"],
        ["trace", "--n", "4", "--z", "1e-200"],
        ["trace", "--n", "4", "--alpha", "1000", "--z", "0.001"],
        ["trace", "--n", "4", "--z-grid", "1e-200:1e-100:x1e50"],
        ["em-check", "--m", "1", "--n", "8", "--z", "1e-200"],
    ])
    def test_unrepresentable_trace_is_numerical_failure(self, argv, capsys):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure:")
        assert captured.out == ""

    def test_overflowing_tail_samples_print_only_the_failure(self):
        # in a fresh process, so a numpy RuntimeWarning would reach stderr
        src = str(Path(torusdet.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "torusdet.cli", "regint",
             "--window-end", "1e308"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == \
            "numerical failure: tail samples beyond 1e+308 overflow\n"

    @pytest.mark.parametrize("argv", [
        ["regint", "--tol", "nan"],
        ["regint", "--quad-tol", "0"],
        ["zeta-det", "--tol", "nan"],
        ["em-check", "--tol", "nan"],
        ["main-theorem", "--tol", "nan"],
        ["converge", "--tol=-1e-4"],
        ["interchange-check", "--all", "--tol", "inf"],
        ["eigenproduct", "--tol", "nan"],
        ["eigenproduct", "--tol", "1e-6", "--target", "inf"],
    ])
    def test_bad_tolerance_is_input_error(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(argv + ["--json-out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["trees", "--n", "3"], ["regint"], ["interchange-check"],
        ["em-check"], ["zeta-det"], ["trace-continuum"], ["converge"],
        ["eigenproduct"]])
    def test_csv_out_only_on_series_commands(self, argv, tmp_path):
        csv = tmp_path / "x.csv"
        assert main(argv + ["--csv-out", str(csv)]) == 2
        assert not csv.exists()

    def test_main_theorem_without_default_basis_names_the_option(self, capsys):
        # m = 3 and 4 have no default basis; the m = 2 one fits nonsense there
        argv = ["main-theorem", "--m", "3", "--n-grid", "8:64:x1.2"]
        assert main(argv) == 2
        assert "--basis" in capsys.readouterr().err
        assert main(argv + ["--basis", "0,1;0,0;-2,0;-4,0"]) in (0, 1)
        # an m outside 1..4 is refused for itself, not for its basis
        assert main(["main-theorem", "--m", "5"]) == 2
        assert "dimension m" in capsys.readouterr().err

    def test_unknown_command(self):
        assert main(["no-such-command"]) == 2

    def test_too_few_samples_is_input_error(self):
        code = main(["eigenproduct", "--m", "1", "--grid", "2:4:x2",
                     "--basis", "0,0"])
        assert code == 2

    def test_degenerate_fit_is_numerical_failure(self):
        # two nearly identical exponents make the design matrix rank
        # deficient past the condition cap
        code = main(["eigenproduct", "--m", "1", "--grid", "16:4096:x2",
                     "--basis", "50,0;50.0000001,0;0,0"])
        assert code == 3


class TestConfig:
    @pytest.mark.parametrize("argv,option,values", [
        (["em-check", "--m", "1", "--n", "8"], "--tol", ("1e-8", "1e-6")),
        (["converge", "--m", "1", "--n-grid", "8:64:x2"], "--tol",
         ("1e-4", "1e-3")),
        (["regint"], "--tol", ("1e-8", "1e-6")),
        (["eigenproduct", "--m", "1", "--grid", "16:4096:x2", "--tol", "1"],
         "--target", ("3.6", "3.7")),
    ])
    def test_config_hash_tracks_the_verdict_options(self, argv, option, values,
                                                     tmp_path):
        reports = []
        for i, value in enumerate(values):
            out = tmp_path / f"{i}.json"
            assert main(argv + [option, value, "--json-out", str(out)]) in (0, 1)
            reports.append(json.loads(out.read_text()))
        a, b = reports
        assert a["config_hash"] != b["config_hash"]
        key = option[2:]
        assert (a["config"].pop(key), b["config"].pop(key)) == tuple(
            map(float, values))
        assert a["config"] == b["config"]

    def test_config_echoes_every_option_but_output_paths(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["trace", "--m", "2", "--n", "4", "--z", "0.5",
                     "--csv-out", str(tmp_path / "x.csv"),
                     "--json-out", str(out)]) == 0
        assert json.loads(out.read_text())["config"] == {
            "m": 2, "n": 4, "alpha": 1, "z": 0.5, "z_grid": None}


class TestReproducibility:
    def test_identical_config_identical_report(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["main-theorem", "--m", "1", "--n-grid", "16:1024:x2"]
        assert main(argv + ["--json-out", str(a)]) == 0
        assert main(argv + ["--json-out", str(b)]) == 0
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        ra.pop("timings")
        rb.pop("timings")
        assert ra == rb

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--n", "8"],
        ["logdet", "--m", "1", "--n-grid", "8:64:x2"],
        ["trace", "--m", "1", "--n", "4", "--z-grid", "0.5:4:x2"],
        ["main-theorem", "--m", "1", "--n-grid", "16:1024:x2"],
    ])
    def test_identical_config_identical_series(self, argv, tmp_path):
        runs = []
        for name in ("a", "b"):
            report, csv = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            assert main(argv + ["--json-out", str(report),
                                "--csv-out", str(csv)]) == 0
            rep = json.loads(report.read_text())
            rep.pop("timings")
            runs.append((rep, csv.read_text()))
        (ra, ca), (rb, cb) = runs
        assert ra == rb
        assert ca == cb
        assert ca.startswith(f"# config {ra['config_hash']}\nx,value\n")


def _z_text(exponent: float) -> str:
    return repr(10.0 ** exponent)


def _root(v: int, m: int) -> int:
    """Largest n with n**m <= v."""
    n = round(v ** (1.0 / m))
    return n if n ** m <= v else n - 1


def _dims_and_sizes(small_points: int, cap_points):
    """(m, n) with m in -1..6 and n**m at most ``small_points`` or beyond
    ``cap_points(m)``: every example is cheap or refused before allocating."""
    def pair(m):
        if not 1 <= m <= 4:  # the dimension check refuses it before n is used
            return st.tuples(st.just(m), st.integers(0, 10 ** 6))
        over = _root(cap_points(m), m) + 1
        return st.tuples(st.just(m), st.one_of(
            st.integers(0, _root(small_points, m)),
            st.integers(over, 4 * over)))
    return st.integers(-1, 6).flatmap(pair)


def _logdet_max_n(m: int) -> int:
    return MAX_SORTED if m == 1 else min(MAX_SORTED,
                                         _root(MAX_SUM_LATTICE, m - 1))


class TestExitContract:
    """Every input ends in a documented exit code, never in a traceback or
    a non-finite value reported as success."""

    @staticmethod
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)   # an uncaught exception fails the test
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert not re.search(r"\b(nan|inf)\b", out.getvalue(), re.I)

    @settings(deadline=None, max_examples=200)
    @given(m=st.integers(-1, 6), alpha=st.integers(1, 250),
           exponent=st.floats(-300.0, 300.0))
    def test_trace_continuum(self, m, alpha, exponent):
        self.check(["trace-continuum", "--m", str(m), "--alpha", str(alpha),
                    "--z", _z_text(exponent)])

    @settings(deadline=None, max_examples=10)
    @given(m=st.integers(-1, 6), tol_exponent=st.floats(-20.0, 1.0))
    def test_zeta_det(self, m, tol_exponent):
        self.check(["zeta-det", "--m", str(m), "--tol", _z_text(tol_exponent)])

    @settings(deadline=None, max_examples=15)
    @given(mn=_dims_and_sizes(
               16, lambda m: EM_MAX_GRID // GL_ORDER_PATTERNS ** m),
           exponent=st.floats(-300.0, 300.0),
           order=st.one_of(st.none(), st.integers(-2, 1000)))
    def test_em_check(self, mn, exponent, order):
        argv = ["em-check", "--m", str(mn[0]), "--n", str(mn[1]),
                "--z", _z_text(exponent)]
        self.check(argv + ([] if order is None else ["--M", str(order)]))

    # 256 vertices take up to 0.9 s, at (m, n) = (4, 4), so trees stay below
    @settings(deadline=None, max_examples=30)
    @given(mn=_dims_and_sizes(255, lambda m: MAX_TREE_VERTICES))
    def test_trees(self, mn):
        self.check(["trees", "--m", str(mn[0]), "--n", str(mn[1])])

    # the log-determinant reduces n^(m-1) outer modes of an n-point axis
    @settings(deadline=None, max_examples=30)
    @given(mn=_dims_and_sizes(256, lambda m: _logdet_max_n(m) ** m),
           rescaled=st.booleans())
    def test_logdet(self, mn, rescaled):
        self.check(["logdet", "--m", str(mn[0]), "--n", str(mn[1])]
                   + (["--rescaled"] if rescaled else []))

    @settings(deadline=None, max_examples=30)
    @given(mn=_dims_and_sizes(256, lambda m: MAX_SUM_LATTICE),
           alpha=st.integers(1, 8), exponent=st.floats(-300.0, 300.0))
    def test_trace(self, mn, alpha, exponent):
        self.check(["trace", "--m", str(mn[0]), "--n", str(mn[1]),
                    "--alpha", str(alpha), "--z", _z_text(exponent)])

    @settings(deadline=None, max_examples=15)
    @given(mn=_dims_and_sizes(256, lambda m: MAX_SORTED ** m))
    def test_spectrum(self, mn):
        self.check(["spectrum", "--m", str(mn[0]), "--n", str(mn[1])])

    # a grid that stops at 64 bounds every log-determinant series
    @settings(deadline=None, max_examples=40)
    @given(m=st.integers(-1, 6),
           grid=st.one_of(
               st.tuples(st.integers(2, 8), st.integers(32, 64),
                         st.floats(1.2, 1.5)),
               st.tuples(st.integers(-2, 64), st.integers(-2, 64),
                         st.floats(0.5, 4.0))),
           basis=st.one_of(
               st.none(), st.text(max_size=12),
               st.lists(st.tuples(st.integers(-6, 3), st.integers(0, 1)),
                        unique=True, max_size=4).map(
                   lambda pairs: ";".join(
                       f"{a},{k}" for a, k in set(pairs) | {(0, 0)}))))
    def test_main_theorem(self, m, grid, basis):
        argv = ["main-theorem", "--m", str(m), "--n-grid={}:{}:x{}".format(*grid)]
        self.check(argv + ([] if basis is None else [f"--basis={basis}"]))

    # any float, nan, +-inf, subnormals and 1e308 included, half the draws
    # from a range where most runs get past the option checks; "--flag=value"
    # keeps a negative value from being read as an option
    @settings(deadline=None, max_examples=150)
    @given(integrand=st.sampled_from(["lorentzian", "log-kernel"]),
           values=st.tuples(*[st.one_of(st.floats(), st.floats(1e-6, 1e6))] * 5))
    def test_regint(self, integrand, values):
        flags = ("--lam", "--window-start", "--window-end", "--quad-tol", "--tol")
        self.check(["regint", f"--integrand={integrand}"]
                   + [f"{flag}={v!r}" for flag, v in zip(flags, values)])

    @settings(deadline=None, max_examples=10)
    @given(tol=st.floats(), every=st.booleans())
    def test_interchange_check(self, tol, every):
        self.check(["interchange-check", f"--tol={tol!r}"]
                   + (["--all"] if every else []))
