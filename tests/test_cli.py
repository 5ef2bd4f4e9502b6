"""Command-line front end: exit codes, printed output, and written files."""

from __future__ import annotations

import csv
import json
import re

import numpy as np
import pytest

from grdsa import cli, harness, oracle
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
#: a CRZON config that completes in a few milliseconds
SADDLE_CRZON = {"objective": "saddle", "crzon": {"N": 2, "m": 4, "b": 4}}


@pytest.fixture
def runs(monkeypatch):
    """The arguments of every call to a writing command's runner."""
    calls = []
    for owner, runner in [
        (cli, "run_newton"), (cli, "run_crzon"),
        (harness, "run_table"), (harness, "run_bias_sweep"),
    ]:
        real = getattr(owner, runner)
        monkeypatch.setattr(
            owner, runner, lambda *args, real=real: calls.append(args) or real(*args)
        )
    return calls


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

    def test_print_unequal_orders_in_full(self, capsys):
        assert main(["stencil", "print", "--k1", "2", "--k2", "3"]) == 0
        assert capsys.readouterr().out == (
            "gradient stencil, k=2 (combine values at shifts 0..2, divide by delta)\n"
            " shift              weight                 decimal\n"
            "     0                -3/2                    -1.5\n"
            "     1                   2                       2\n"
            "     2                -1/2                    -0.5\n"
            "\n"
            "hessian stencil, k1=2, k2=3 (combine values at shifts 0..5, divide by delta^2)\n"
            " shift              weight                 decimal\n"
            "     0                11/4                    2.75\n"
            "     1               -49/6      -8.166666666666666\n"
            "     2                55/6       9.166666666666666\n"
            "     3                  -5                      -5\n"
            "     4               17/12       1.416666666666667\n"
            "     5                -1/6     -0.1666666666666667\n"
        )

    def test_print_unequal_orders_json_in_full(self, capsys):
        assert main(["stencil", "print", "--k1", "2", "--k2", "3", "--json"]) == 0
        expected = {
            "gradient": {
                "k": 2,
                "weights": ["-3/2", "2", "-1/2"],
                "decimals": [-1.5, 2.0, -0.5],
            },
            "hessian": {
                "k1": 2,
                "k2": 3,
                "weights": ["11/4", "-49/6", "55/6", "-5", "17/12", "-1/6"],
                "decimals": [
                    2.75,
                    -8.166666666666666,
                    9.166666666666666,
                    -5.0,
                    1.4166666666666667,
                    -0.16666666666666666,
                ],
            },
        }
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

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
        config = write_config(tmp_path, dict(QUAD, seeds=2))
        out = tmp_path / "runs.csv"
        assert main(["newton", "run", "--config", config, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "2 runs ->" in printed
        assert "mean final parameter error" in printed
        rows = read_csv(out)
        assert len(rows) == 3
        assert rows[1][3] == "20"  # budget 60 at 3 evals per iteration

    def test_gradient_only_algorithm(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(QUAD, algorithm="gradient_only", seeds=1))
        out = tmp_path / "runs.csv"
        assert main(["newton", "run", "--config", config, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[1][3] == "30"  # 2 evals per iteration instead of 3

    def test_record_stride_is_an_ignored_unknown_key(self, tmp_path, capsys):
        # a run keeps only its endpoints, so a stride is no longer a setting:
        # like any key no builder reads, it fails validate and the run, even at 0
        config = write_config(tmp_path, dict(QUAD, record_stride=0))
        assert main(["config", "validate", config]) == 2
        printed = capsys.readouterr().out
        assert re.search(r"\[ERROR\] run\.builds +unknown key 'record_stride'\n", printed)
        out = tmp_path / "runs.csv"
        assert main(["newton", "run", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: unknown key 'record_stride'\n"
        assert not out.exists()

    def test_unknown_algorithm_raises(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(QUAD, algorithm="gradient-only", seeds=1))
        out = tmp_path / "runs.csv"
        code = main(["newton", "run", "--config", config, "--out", str(out)])
        assert code == 2
        assert re.fullmatch(
            r"error: .*newton, gradient_only.*'gradient-only'\n", capsys.readouterr().err
        )
        assert not out.exists()

    def test_budget_defaults_to_the_tables(self, tmp_path):
        config = write_config(tmp_path, {"seeds": 1})
        out = tmp_path / "runs.csv"
        assert main(["newton", "run", "--config", config, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 2
        assert rows[1][2] == "1000"

    def test_seed_key_is_ignored(self, tmp_path, capsys):
        # seed_base is the one seed key, so "seed" is rejected, not run at 0
        config = write_config(tmp_path, dict(QUAD, seed=7, seeds=1))
        out = tmp_path / "runs.csv"
        assert main(["newton", "run", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: unknown key 'seed'\n"
        assert not out.exists()

    def test_seed_base_respected(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(QUAD, seed_base=10, seeds=2))
        out = tmp_path / "runs.csv"
        main(["newton", "run", "--config", config, "--out", str(out)])
        rows = read_csv(out)
        assert [row[0] for row in rows[1:]] == ["10", "11"]

    def test_seeds_default_to_one(self, tmp_path, capsys):
        config = write_config(tmp_path, QUAD)
        out = tmp_path / "runs.csv"
        assert main(["newton", "run", "--config", config, "--out", str(out)]) == 0
        assert [row[0] for row in read_csv(out)[1:]] == ["0"]

    def test_memory_does_not_grow_with_the_budget(self, tmp_path, capsys, peak_bytes):
        # the CSV reads only endpoints, and a run keeps no more
        out = str(tmp_path / "runs.csv")
        argv = {
            budget: ["newton", "run", "--out", out, "--config", write_config(
                tmp_path, {"objective": "rastrigin", "dim": 10, "budget": budget}, f"{budget}.json"
            )]
            for budget in (2_000, 20_000)
        }
        main(argv[2_000])  # warm the caches and the interpreter a first run fills
        peaks = [peak_bytes(lambda: main(argv[budget])) for budget in (20_000, 2_000)]
        # a trajectory would add 6,000 rows of 80 bytes (480 KB); the peak of
        # one command (argparse, json, csv) moves by about 10 KB call to call
        assert abs(peaks[0] - peaks[1]) < 32 * 1024


class TestFailedRunIsAnErrorLine:
    """A run that cannot read or write its files, or measures a non-finite
    value, ends in one ``error:`` line on stderr, not a traceback."""

    def test_nonfinite_value_exits_1(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"objective": "quadratic", "quadratic": {"diag": [1e308, 1e308]},
             "theta0": [10, 10], "budget": 30},
        )
        out = tmp_path / "runs.csv"
        # the oracle's products overflow and the stencil dots read inf - inf:
        # at the command line these are printed warnings, not the errors the
        # suite's filter makes of them
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["newton", "run", "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: oracle returned a non-finite value (inf) at [10.0, 10.0]\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["newton", "crzon", "bench", "config"])
    def test_missing_config_exits_2(self, command, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        argv = {
            "newton": ["newton", "run", "--config", missing, "--out", str(tmp_path / "o.csv")],
            "crzon": ["crzon", "run", "--config", missing, "--out", str(tmp_path / "o.csv")],
            "bench": ["bench", "table", "--config", missing],
            "config": ["config", "validate", missing],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {missing!r}\n"
        )

    def test_unwritable_out_exits_2(self, tmp_path, capsys, runs):
        # every path that would be written is checked before the first run
        missing = tmp_path / "no-such-directory" / "runs.csv"
        for command, payload, flag in [
            (["newton", "run"], QUAD, "--out"),
            (["crzon", "run"], SADDLE_CRZON, "--out"),
            (["bench", "table"], QUAD, "--out"),
            (["bench", "table"], QUAD, "--summary-out"),
            (["bench", "bias-sweep"], {"objective": "quartic", "dim": 2}, "--out"),
        ]:
            config = write_config(tmp_path, payload)
            for out, error in [
                (missing, "[Errno 2] No such file or directory"),
                (tmp_path, "[Errno 21] Is a directory"),
            ]:
                assert main([*command, "--config", config, flag, str(out)]) == 2
                assert capsys.readouterr().err == f"error: {error}: {str(out)!r}\n"
        assert runs == []

    @pytest.mark.parametrize(
        "command",
        [["newton", "run"], ["crzon", "run"], ["bench", "table"], ["bench", "bias-sweep"]],
        ids=" ".join,
    )
    @pytest.mark.parametrize("value", [[1, 2], "x", 3, None], ids=repr)
    def test_top_level_that_is_not_an_object_is_named_after_the_paths(
        self, tmp_path, capsys, runs, command, value
    ):
        # a writing command reads its file, checks its paths, then builds:
        # the builders name the top level, and no file is written
        config, missing = write_config(tmp_path, value), tmp_path / "no-such-directory" / "o.csv"
        assert main([*command, "--config", config, "--out", str(missing)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
        )
        assert runs == []
        out = tmp_path / "out.csv"
        assert main([*command, "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: config must be an object, got {value!r}\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    def test_failed_run_keeps_an_existing_out_file(self, tmp_path, capsys):
        # the check before the runs opens the file without truncating it
        config = write_config(
            tmp_path,
            {"objective": "quadratic", "quadratic": {"diag": [1e308, 1e308]},
             "theta0": [10, 10], "budget": 30},
        )
        out = tmp_path / "runs.csv"
        out.write_text("earlier\n")
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["newton", "run", "--config", config, "--out", str(out)]) == 1
        assert out.read_text() == "earlier\n"

    def test_dangling_symlink_out_is_kept(self, tmp_path, capsys):
        # the check opens nothing: a failed run leaves the link dangling and
        # its target absent, and a finished run writes through the link
        target = tmp_path / "target.csv"
        link = tmp_path / "runs.csv"
        link.symlink_to(target)
        config = write_config(
            tmp_path,
            {"objective": "quadratic", "quadratic": {"diag": [1e308, 1e308]},
             "theta0": [10, 10], "budget": 30},
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["newton", "run", "--config", config, "--out", str(link)]) == 1
        assert link.is_symlink() and not target.exists()
        config = write_config(tmp_path, QUAD)
        assert main(["newton", "run", "--config", config, "--out", str(link)]) == 0
        assert link.is_symlink() and read_csv(target)[0][0] == "seed"

    @pytest.mark.parametrize("command,payload", [
        (["bench", "table"], QUAD),
        (["bench", "bias-sweep"], {"objective": "quartic", "dim": 2}),
        (["newton", "run"], QUAD),
        (["crzon", "run"], SADDLE_CRZON),
    ])
    def test_empty_out_writes_nothing(self, command, payload, tmp_path, capsys):
        # the check skips the paths the writers skip, in every writing command
        config = write_config(tmp_path, payload)
        assert main([*command, "--config", config, "--out", ""]) == 0



class TestRadiusARunCannotEvaluateIsABuildError:
    """A schedule that overflows at a run's last iteration, or a radius the
    run would divide by that is 0 in floats, is named when the config is
    built: a ``run.builds`` error, one ``error:`` line with exit 2, and an
    ``error`` row in a table."""

    RASTRIGIN = {"objective": "rastrigin", "dim": 2, "budget": 30}

    @pytest.mark.parametrize(
        "settings,message",
        [
            ({"schedules": {"gamma": 1000}}, "schedules overflow at iteration 10"),
            ({"schedules": {"delta0": 1e-170}},
             "schedules underflow at iteration 10: delta = 6.812868399681547e-171, "
             "and a run divides by delta**2"),
            ({"algorithm": "gradient_only", "methods": ["GSF-2"],
              "schedules": {"delta0": 1e-323, "gamma": 1}},
             "schedules underflow at iteration 15: delta = 0.0, and a run divides by delta"),
        ],
    )
    def test_newton(self, tmp_path, capsys, settings, message):
        payload = dict(self.RASTRIGIN, **settings)
        builds = next(f for f in harness.validate_config(payload) if f.check == "run.builds")
        assert not builds.ok and builds.message == message
        config, out = write_config(tmp_path, payload), str(tmp_path / "runs.csv")
        assert main(["newton", "run", "--config", config, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        rows = harness.run_table(payload).rows
        assert [(r.status, r.message) for r in rows] == [("error", f"ValueError: {message}")]

    def test_crzon(self, tmp_path, capsys):
        payload = {"objective": "saddle", "dim": 2, "budget": 300,
                   "crzon": {"N": 2, "m": 4, "b": 4, "delta": 1e-200}}
        message = "delta = 1e-200 is too small: the Hessian divides by delta**2"
        builds = next(f for f in harness.validate_config(payload) if f.check == "run.builds")
        assert not builds.ok and builds.message == message
        config, out = write_config(tmp_path, payload), str(tmp_path / "runs.csv")
        assert main(["crzon", "run", "--config", config, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        # a CRZON config reaches no table; a radius from_epsilon sizes is checked too
        sized = dict(payload, crzon={"epsilon": 0.5, "delta_prefactor": 1e-200})
        builds = next(f for f in harness.validate_config(sized) if f.check == "run.builds")
        assert not builds.ok and builds.message.endswith("divides by delta**2")


class TestSectionOfTheWrongTypeIsNamedByEveryCommand:
    """A section that is not an object ends every command in exit 0 (a
    command that does not read it) or in exit 2 with one ``error:`` line,
    never in a traceback; ``bench table`` names it as ``newton run`` does."""

    COMMANDS = {
        "newton": ["newton", "run", "--out"],
        "crzon": ["crzon", "run", "--out"],
        "table": ["bench", "table", "--out"],
        "sweep": ["bench", "bias-sweep", "--out"],
    }

    @pytest.mark.parametrize("section", sorted(harness._SECTIONS))
    @pytest.mark.parametrize("value", [5, "x", [1], [], False], ids=repr)
    def test_every_command(self, tmp_path, capsys, section, value):
        config = write_config(tmp_path, dict(QUAD, samples=2000, **{section: value}))
        errors = {}
        for name, command in self.COMMANDS.items():
            argv = [*command, str(tmp_path / f"{name}.csv"), "--config", config]
            assert main(argv) in (0, 2), name
            errors[name] = capsys.readouterr().err
        assert main(["config", "validate", config]) in (0, 2)
        capsys.readouterr()
        assert all(err.count("\n") <= 1 and "Traceback" not in err for err in errors.values())
        if section in ("estimator", "perturb"):
            message = f"error: {section} must be an object, got {value!r}\n"
            assert errors["newton"] == errors["table"] == message


class TestUnknownKeyIsRejectedByEveryCommand:
    """A key no builder reads ends every command that runs a config in exit 2
    with one ``error:`` line naming its path, before any evaluation and
    before any file is written."""

    COMMANDS = {
        "newton": (["newton", "run"], dict(QUAD, seeds=1)),
        "crzon": (["crzon", "run"], SADDLE_CRZON),
        "table": (["bench", "table"], dict(QUAD, seeds=1)),
        "sweep": (["bench", "bias-sweep"], {"objective": "quartic", "dim": 2, "samples": 200}),
    }

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        evaluate_many = oracle.BudgetedOracle.evaluate_many

        def counted(self, *args, **kwargs):
            calls.append(1)
            return evaluate_many(self, *args, **kwargs)

        monkeypatch.setattr(oracle.BudgetedOracle, "evaluate_many", counted)
        return calls

    @pytest.mark.parametrize("name", COMMANDS)
    def test_known_keys_run(self, tmp_path, capsys, evaluations, name):
        command, base = self.COMMANDS[name]
        config, out = write_config(tmp_path, base), tmp_path / "out.csv"
        assert main([*command, "--config", config, "--out", str(out)]) == 0
        assert out.exists() and evaluations

    @pytest.mark.parametrize("name", COMMANDS)
    @pytest.mark.parametrize(
        "unknown,path",
        [
            ({"schedule": {"a0": -1}}, "schedule"),
            ({"estimator": {"K": 3}}, "estimator.K"),
            ({"crzon": {"n": 3}}, "crzon.n"),
            ({"noise": {"sigma": 0.1, "mu": 1}}, "noise.mu"),
            ({"Budget": 100}, "Budget"),
            ({"seed": 3}, "seed"),
        ],
    )
    def test_named_before_any_evaluation(self, tmp_path, capsys, evaluations, name, unknown, path):
        command, base = self.COMMANDS[name]
        payload = dict(base, **unknown)
        if "crzon" in unknown and name == "crzon":
            payload["crzon"] = dict(base["crzon"], **unknown["crzon"])
        config, out = write_config(tmp_path, payload), tmp_path / "out.csv"
        assert main([*command, "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: unknown key {path!r}\n"
        assert not out.exists() and evaluations == []


class TestSeedsComeFromTheConfig:
    @pytest.mark.parametrize("command,payload", [("newton", QUAD), ("crzon", SADDLE_CRZON)])
    def test_seeds_flag_is_rejected(self, command, payload, tmp_path, capsys):
        config = write_config(tmp_path, payload)
        out = tmp_path / "runs.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, "run", "--config", config, "--seeds", "2", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seeds 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,payload", [("newton", QUAD), ("crzon", SADDLE_CRZON)])
    def test_validate_and_run_agree_on_no_seeds(self, command, payload, tmp_path, capsys):
        config = write_config(tmp_path, dict(payload, seeds=0))
        assert main(["config", "validate", config]) == 2
        assert "seeds must be >= 1, got 0" in capsys.readouterr().out
        out = tmp_path / "runs.csv"
        assert main([command, "run", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seeds must be >= 1, got 0\n"
        assert not out.exists()

    def test_crzon_runs_the_configs_seeds(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(SADDLE_CRZON, seeds=3, seed_base=5))
        out = tmp_path / "crzon.csv"
        assert main(["crzon", "run", "--config", config, "--out", str(out)]) == 0
        assert [row[0] for row in read_csv(out)[1:]] == ["5", "6", "7"]


class TestCrzonRun:
    def test_writes_csv_and_reports_median(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "objective": "saddle",
                "theta0": [0.01, 0.01],
                "crzon": {"N": 2, "m": 4, "b": 4, "k": 1, "delta": 0.1},
                "seeds": 2,
            },
        )
        out = tmp_path / "crzon.csv"
        assert main(["crzon", "run", "--config", config, "--out", str(out)]) == 0
        assert "median lambda_min" in capsys.readouterr().out
        rows = read_csv(out)
        assert len(rows) == 3
        assert rows[1][7] == str(2 * (4 * 2 + 4 * 3))

    def test_no_seeds_is_a_one_line_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"objective": "saddle", "crzon": {"N": 2, "m": 4, "b": 4}, "seeds": 0}
        )
        out = tmp_path / "crzon.csv"
        assert main(["crzon", "run", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seeds must be >= 1, got 0\n"
        assert not out.exists()


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
        assert main(["bench", "table", "--config", config]) == 1
        assert "1 failed runs" in capsys.readouterr().out

    def test_failed_runs_exit_1_and_still_write(self, tmp_path, capsys):
        config = write_config(tmp_path, {"schedules": {"a0": -1.0}, "budget": 30})
        rows_out, summary_out = tmp_path / "rows.csv", tmp_path / "cells.csv"
        code = main(
            ["bench", "table", "--config", config,
             "--out", str(rows_out), "--summary-out", str(summary_out)]
        )
        assert code == 1
        assert "1 failed runs" in capsys.readouterr().out
        rows = read_csv(rows_out)
        assert len(rows) == 2 and rows[1][rows[0].index("status")] == "error"
        assert len(read_csv(summary_out)) == 2

    def test_table_exit_contract(self, tmp_path, capsys):
        # a cell whose config fails to build is an error row (exit 1); what
        # stops the table before its first cell is one error: line (exit 2)
        config = write_config(tmp_path, {"objective": "rastrigin", "dim": 2, "budget": 2})
        out = tmp_path / "rows.csv"
        assert main(["bench", "table", "--config", config, "--out", str(out)]) == 1
        assert "1 failed runs (see status column)" in capsys.readouterr().out
        rows = read_csv(out)
        assert rows[1][rows[0].index("message")].startswith("BudgetTooSmall: ")
        config = write_config(tmp_path, {"methods": ["G2SF-4"], "budget": 30})
        assert main(["bench", "table", "--config", config]) == 2
        assert capsys.readouterr().err == (
            "error: 'G2SF-4': second-order methods need an odd measurement count >= 3\n"
        )

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

    def test_crzon_config_is_not_checked_for_a_box(self, tmp_path, capsys):
        # a CRZON run reads no box, so an empty one is no error
        config = write_config(
            tmp_path,
            {
                "objective": "quartic",
                "dim": 2,
                "crzon": {"k": 1, "N": 2, "m": 4, "b": 4, "alpha": 1.0},
                "box": {"lower": 1, "upper": 0},
            },
        )
        assert main(["config", "validate", config]) == 0
        assert capsys.readouterr().out.rstrip().endswith("config ok")

    def test_clean_config_reports_no_warnings(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"schedules": {"beta": 0.8, "gamma": 0.1}}
        )
        assert main(["config", "validate", config]) == 0
        printed = capsys.readouterr().out
        assert printed.rstrip().endswith("config ok")

    def test_section_of_the_wrong_type_is_named(self, tmp_path, capsys):
        config = write_config(tmp_path, {"schedules": 5, "budget": 30, "seeds": 1})
        assert main(["config", "validate", config]) == 2
        printed = capsys.readouterr().out
        assert re.search(r"\[ERROR\] run\.builds +schedules must be an object, got 5\n", printed)
        out = tmp_path / "runs.csv"
        assert main(["newton", "run", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: schedules must be an object, got 5\n"

    def test_top_level_that_is_not_an_object_is_an_error(self, tmp_path, capsys):
        config = write_config(tmp_path, [1, 2])
        assert main(["config", "validate", config]) == 2
        printed = capsys.readouterr().out
        assert re.findall(r"\[ERROR\].*\n", printed) == [
            f"[ERROR] {'run.builds':<36} config must be an object, got [1, 2]\n"
        ]
        assert printed.endswith("config invalid\n")
        out = str(tmp_path / "runs.csv")
        assert main(["newton", "run", "--config", config, "--out", out]) == 2
        assert capsys.readouterr().err == "error: config must be an object, got [1, 2]\n"

    def test_misspelled_section_warns(self, tmp_path, capsys):
        # a misspelled section would leave a0 at its default: it fails the config
        config = write_config(tmp_path, {"budget": 100, "schedule": {"a0": -1.0}})
        assert main(["config", "validate", config]) == 2
        printed = capsys.readouterr().out
        assert re.search(r"\[ERROR\] run\.builds +unknown key 'schedule'\n", printed)
        assert "WARN" not in printed and printed.endswith("config invalid\n")
