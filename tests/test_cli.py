"""Command-line front end: exit codes, printed output, and written files."""

from __future__ import annotations

import csv
import json

import pytest

from grdsa.cli import build_parser, main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


QUAD = {
    "objective": "quadratic",
    "quadratic": {"diag": [2.0, 4.0]},
    "dim": 2,
    "budget": 60,
}


def test_no_command_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_parser_program_name():
    assert build_parser().prog == "grdsa"


class TestStencilCommands:
    def test_print_table(self, capsys):
        assert main(["stencil", "print", "--k1", "2"]) == 0
        out = capsys.readouterr().out
        assert "gradient stencil, k=2" in out
        assert "hessian stencil, k1=2, k2=2" in out
        assert "-3/2" in out
        assert "9/4" in out

    def test_print_unequal_orders(self, capsys):
        assert main(["stencil", "print", "--k1", "1", "--k2", "3"]) == 0
        assert "k1=1, k2=3" in capsys.readouterr().out

    def test_print_json(self, capsys):
        assert main(["stencil", "print", "--k1", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gradient"]["weights"] == ["-3/2", "2", "-1/2"]
        assert payload["hessian"]["k1"] == 2
        assert payload["gradient"]["decimals"][1] == 2.0

    def test_verify_passes(self, capsys):
        assert main(["stencil", "verify", "--kmax", "12"]) == 0
        out = capsys.readouterr().out
        assert "181 checks, all exact" in out
        assert "[pass]" in out
        assert "FAIL" not in out

    def test_verify_json(self, capsys):
        assert main(["stencil", "verify", "--kmax", "12", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True
        assert len(payload["checks"]) == 181


class TestNewtonRun:
    def test_writes_csv_and_reports_mean(self, tmp_path, capsys):
        config = write_config(tmp_path, QUAD)
        out = tmp_path / "runs.csv"
        assert main(["newton", "run", "--config", config, "--seeds", "2", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "2 runs ->" in printed
        assert "mean final parameter error" in printed
        rows = read_csv(out)
        assert len(rows) == 3
        assert rows[1][3] == "20"  # budget 60 at 3 evals per iteration

    def test_gradient_only_algorithm(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(QUAD, algorithm="gradient_only"))
        out = tmp_path / "runs.csv"
        assert main(["newton", "run", "--config", config, "--seeds", "1", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[1][3] == "30"  # 2 evals per iteration instead of 3

    def test_unknown_algorithm_raises(self, tmp_path):
        config = write_config(tmp_path, dict(QUAD, algorithm="gradient-only"))
        out = tmp_path / "runs.csv"
        with pytest.raises(ValueError, match="newton, gradient_only.*'gradient-only'"):
            main(["newton", "run", "--config", config, "--seeds", "1", "--out", str(out)])
        assert not out.exists()

    def test_seed_base_respected(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(QUAD, seed_base=10))
        out = tmp_path / "runs.csv"
        main(["newton", "run", "--config", config, "--seeds", "2", "--out", str(out)])
        rows = read_csv(out)
        assert [row[0] for row in rows[1:]] == ["10", "11"]


class TestCrzonRun:
    def test_writes_csv_and_reports_median(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "objective": "saddle",
                "theta0": [0.01, 0.01],
                "crzon": {"N": 2, "m": 4, "b": 4, "k": 1, "delta": 0.1},
            },
        )
        out = tmp_path / "crzon.csv"
        assert main(["crzon", "run", "--config", config, "--seeds", "2", "--out", str(out)]) == 0
        assert "median lambda_min" in capsys.readouterr().out
        rows = read_csv(out)
        assert len(rows) == 3
        assert rows[1][7] == str(2 * (4 * 2 + 4 * 3))


class TestBenchCommands:
    def test_table(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "objective": "quadratic",
                "quadratic": {"diag": [2.0, 4.0]},
                "dim": 2,
                "methods": ["G2SF-3", "GSF-2"],
                "budgets": [60],
                "seeds": 2,
            },
        )
        rows_out = tmp_path / "rows.csv"
        summary_out = tmp_path / "cells.csv"
        code = main(
            [
                "bench",
                "table",
                "--config",
                config,
                "--out",
                str(rows_out),
                "--summary-out",
                str(summary_out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "method" in printed and "G2SF-3" in printed and "GSF-2" in printed
        assert len(read_csv(rows_out)) == 5
        assert len(read_csv(summary_out)) == 3

    def test_table_reports_failed_cells(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "objective": "quadratic",
                "quadratic": {"diag": [2.0, 4.0]},
                "dim": 2,
                "methods": ["G2SF-3"],
                "budgets": [2],
                "seeds": 1,
            },
        )
        assert main(["bench", "table", "--config", config]) == 0
        assert "1 failed cells" in capsys.readouterr().out

    def test_bias_sweep(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "objective": "quartic",
                "dim": 2,
                "estimator_kind": "gradient",
                "k": 1,
                "theta": [0.9, -1.1],
                "samples": 2000,
            },
        )
        out = tmp_path / "sweep.csv"
        assert main(["bench", "bias-sweep", "--config", config, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "fitted log-log slope" in printed
        assert len(read_csv(out)) == 5


class TestConfigValidate:
    def test_valid_config_with_default_schedules(self, tmp_path, capsys):
        config = write_config(tmp_path, {"budget": 100})
        assert main(["config", "validate", config]) == 0
        printed = capsys.readouterr().out
        assert "[PASS ]" in printed
        assert "[WARN ]" in printed
        assert "config ok (1 warning)" in printed

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, {"box": {"lower": 2.0, "upper": -2.0}})
        assert main(["config", "validate", config]) == 2
        printed = capsys.readouterr().out
        assert "[ERROR]" in printed
        assert "config invalid" in printed

    def test_clean_config_reports_no_warnings(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"schedules": {"beta": 0.8, "gamma": 0.1}}
        )
        assert main(["config", "validate", config]) == 0
        printed = capsys.readouterr().out
        assert printed.rstrip().endswith("config ok")

    def test_misspelled_section_warns(self, tmp_path, capsys):
        config = write_config(tmp_path, {"budget": 100, "schedule": {"a0": -1.0}})
        assert main(["config", "validate", config]) == 0
        printed = capsys.readouterr().out
        warned = [line for line in printed.splitlines() if line.startswith("[WARN ]")]
        assert any("config.unknown_key" in line and "'schedule'" in line for line in warned)
        assert "config ok (2 warnings)" in printed
