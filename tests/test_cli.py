"""CLI behaviour: subcommands, reports, exit codes, reproducibility."""

import json
import math
import time

import pytest

from torusdet.cli import main, parse_basis, parse_grid
from torusdet.errors import InputError


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
        assert all(r["pass"] for r in rep["results"])

    def test_em_check(self):
        assert main(["em-check", "--m", "1", "--n", "8", "--z", "1.0"]) == 0

    def test_zeta_det(self, tmp_path):
        out = tmp_path / "z.json"
        assert main(["zeta-det", "--m", "1", "--tol", "1e-4",
                     "--json-out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["value"] == pytest.approx(2 * math.log(2 * math.pi),
                                             abs=1e-8)

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
