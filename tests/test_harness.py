"""Config-driven drivers: method names, tables, sweeps, validation, CSV."""

from __future__ import annotations

import csv
from dataclasses import replace

import numpy as np
import pytest

import grdsa.harness as harness_mod
from grdsa.harness import (
    TableRow,
    aggregate_rows,
    build_cubic_config,
    build_newton_config,
    config_fingerprint,
    failed_warnings,
    has_errors,
    make_noise,
    make_objective,
    make_perturbation,
    method_spec,
    run_bias_sweep,
    run_table,
    seed_range,
    validate_config,
    write_bias_sweep_csv,
    write_crzon_csv,
    write_newton_csv,
    write_summary_csv,
    write_table_csv,
)
from grdsa.cubic import run_crzon
from grdsa.newton import RunRecord, iteration_cost, run_newton
from grdsa.oracle import BudgetTooSmall
from grdsa.stencils import MAX_ORDER


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_failure(config):
    """``(type name, message)`` of the first run of ``config`` that raises, or None.

    The seeds are laid out first, as the commands do.  A config with a
    ``crzon`` section makes one CRZON run; any other makes the table's runs
    (``grdsa newton run`` runs its one cell), whose cells fail one by one
    unless the table cannot be laid out at all.
    """
    try:
        seed_range(config)
        if config.get("crzon") is not None:
            run_crzon(build_cubic_config(config))
            return None
        rows = run_table(config).rows
    except Exception as exc:
        return type(exc).__name__, str(exc)
    for row in rows:
        if row.status == "error":
            return tuple(row.message.split(": ", 1))
    return None


QUAD_CONFIG = {
    "objective": "quadratic",
    "quadratic": {"diag": [2.0, 4.0]},
    "dim": 2,
}

#: the keys only Newton runs read: those that set only NewtonConfig, Schedules
#: or Box fields, and the table's
NEWTON_ONLY = [
    "estimator.k", "eps_pd", "algorithm",
    *(f"schedules.{name}" for name in ("a0", "A", "alpha", "b0", "B", "beta", "delta0", "gamma")),
    "box.lower", "box.upper", "methods", "dims", "budgets",
]
#: the keys only CRZON runs read: those that set only CubicConfig or from_epsilon fields
CRZON_ONLY = [
    "estimator.reuse",
    *(f"crzon.{name}" for name in ("k", "N", "m", "b", "delta", "alpha", "epsilon",
                                   "n_prefactor", "m_prefactor", "b_prefactor",
                                   "delta_prefactor")),
]
#: every method name up to the stencils' order cap, with its measurement count
METHODS = [
    (f"{order}{family}-{count}", count)
    for k in range(1, MAX_ORDER + 1)
    for order, count in (("G", k + 1), ("G2", 2 * k + 1))
    for family in ("SF", "R")
]

#: a small CRZON run that completes
CRZON_CONFIG = {
    "objective": "quartic",
    "dim": 2,
    "crzon": {"k": 1, "N": 2, "m": 4, "b": 4, "alpha": 1.0},
}


class TestMethodSpec:
    @pytest.mark.parametrize(
        "name,algorithm,k,family",
        [
            ("GSF-2", "gradient_only", 1, "gaussian"),
            ("GSF-5", "gradient_only", 4, "gaussian"),
            ("GR-3", "gradient_only", 2, "uniform"),
            ("G2SF-3", "newton", 1, "gaussian"),
            ("G2SF-9", "newton", 4, "gaussian"),
            ("G2R-5", "newton", 2, "uniform"),
        ],
    )
    def test_recognized_names(self, name, algorithm, k, family):
        spec = method_spec(name)
        assert (spec.name, spec.algorithm, spec.k, spec.family) == (
            name,
            algorithm,
            k,
            family,
        )

    @pytest.mark.parametrize(
        "name",
        ["G2SF-4", "G2SF-2", "G2SF-1", "GSF-1", "GSF-0", "XSF-3", "gsf-5", "GSF", "G2R-0",
         "G2SF-03", "G2SF-3\n"],
    )
    def test_rejected_names(self, name):
        with pytest.raises(ValueError):
            method_spec(name)

    @pytest.mark.parametrize("name,count", METHODS, ids=[name for name, _ in METHODS])
    def test_an_iteration_costs_the_count_in_the_name(self, name, count):
        # G2SF-m spends m evaluations an iteration, its gradient's among them
        spec = method_spec(name)
        assert iteration_cost(spec.k, hessian=spec.algorithm == "newton") == count
        [row] = run_table(dict(QUAD_CONFIG, methods=[name], budget=3 * count)).rows
        assert (row.status, row.iterations, row.evals_used) == ("ok", 3, 3 * count)


class TestFingerprint:
    def test_key_order_independent(self):
        assert config_fingerprint({"a": 1, "b": [2, 3]}) == config_fingerprint(
            {"b": [2, 3], "a": 1}
        )

    def test_value_sensitive(self):
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})

    def test_format(self):
        fp = config_fingerprint({"a": 1})
        assert len(fp) == 16
        int(fp, 16)

    def test_numpy_values_digest_as_their_plain_twin(self):
        # the config readers take numpy integers, bools and arrays, so the
        # table's fingerprint must too
        config = dict(QUAD_CONFIG, budget=30, seeds=np.int64(2), theta0=np.array([1.0, 2.0]))
        config["estimator"] = {"paper_literal_scaling": np.bool_(False), "k": np.int32(1)}
        plain = dict(QUAD_CONFIG, budget=30, seeds=2, theta0=[1.0, 2.0])
        plain["estimator"] = {"paper_literal_scaling": False, "k": 1}
        assert config_fingerprint(config) == config_fingerprint(plain)
        assert {row.fingerprint for row in run_table(config).rows} == {config_fingerprint(plain)}


class TestBuilders:
    def test_objectives(self):
        assert make_objective({}).name == "rastrigin"
        assert make_objective({"dim": 7}).dim == 7
        quad = make_objective(QUAD_CONFIG)
        assert np.allclose(quad.hessian(np.zeros(2)), np.diag([2.0, 4.0]))
        full = make_objective(
            {
                "objective": "quadratic",
                "dim": 2,
                "quadratic": {"matrix": [[2.0, 1.0], [1.0, 3.0]], "b": [1.0, 0.0]},
            }
        )
        assert np.allclose(full.hessian(np.zeros(2)), [[2.0, 1.0], [1.0, 3.0]])
        assert make_objective({"objective": "saddle"}).name == "saddle_quartic"
        assert make_objective({"objective": "quartic", "dim": 3}).dim == 3
        assert make_objective({"objective": "exp_sin"}).name == "exp_sin"
        with pytest.raises(ValueError):
            make_objective({"objective": "rosenbrock"})

    def test_noise(self):
        assert make_noise({}) is None
        assert make_noise({"noise": {"sigma": 0.0}}) is None
        assert make_noise({"noise": {"sigma": 0.25}}).sigma == 0.25

    def test_perturbation(self):
        assert make_perturbation({}).family == "gaussian"
        spec = make_perturbation({"perturb": {"family": "uniform", "eta": 2.0}})
        assert spec.family == "uniform" and spec.eta == 2.0
        with pytest.raises(ValueError):
            make_perturbation({"perturb": {"family": "levy"}})

    def test_newton_config(self):
        cfg = build_newton_config(
            dict(
                QUAD_CONFIG,
                budget=90,
                estimator={"k": 2, "paper_literal_scaling": True},
                schedules={"a0": 0.5},
                box={"lower": -2.0, "upper": 2.0},
                theta0=[1.0, -1.0],
            ),
            seed=17,
        )
        assert cfg.budget == 90
        assert cfg.k == 2 and cfg.perturbation.paper_literal_scaling
        assert cfg.schedules.a0 == 0.5
        assert (cfg.box.lower, cfg.box.upper) == (-2.0, 2.0)
        assert np.array_equal(cfg.theta0, [1.0, -1.0])
        assert cfg.seed == 17

    def test_newton_run_and_tables_share_the_budget_default(self):
        assert build_newton_config(dict(QUAD_CONFIG)).budget == 1000
        assert [row.budget for row in run_table(dict(QUAD_CONFIG)).rows] == [1000]

    def test_seed_base_is_the_one_seed_key(self):
        for build in (build_newton_config, build_cubic_config):
            assert build(dict(QUAD_CONFIG, seed_base=7)).seed == 7
            with pytest.raises(ValueError, match=r"^unknown key 'seed'$"):
                build(dict(QUAD_CONFIG, seed=7))

    def test_cubic_config_direct(self):
        cfg = build_cubic_config(
            {
                "objective": "saddle",
                "crzon": {"N": 12, "m": 50, "b": 80, "k": 2, "delta": 0.2, "alpha": 3.0},
            },
            seed=4,
        )
        assert (cfg.n_steps, cfg.m, cfg.b, cfg.k) == (12, 50, 80, 2)
        assert cfg.delta == 0.2 and cfg.alpha == 3.0 and cfg.seed == 4

    def test_cubic_config_defaults(self):
        cfg = build_cubic_config({"objective": "saddle"})
        assert (cfg.n_steps, cfg.m, cfg.b, cfg.delta) == (30, 200, 400, 0.1)

    def test_cubic_config_from_epsilon(self):
        cfg = build_cubic_config(
            {"objective": "saddle", "crzon": {"epsilon": 0.25, "k": 1}}
        )
        assert cfg.epsilon == 0.25
        assert (cfg.n_steps, cfg.m, cfg.b) == (8, 256, 1024)


class TestRunTable:
    def test_grid_and_accounting(self):
        config = dict(
            QUAD_CONFIG, methods=["G2SF-3", "GSF-2"], budgets=[60], seeds=2
        )
        result = run_table(config)
        assert len(result.rows) == 4
        assert all(row.status == "ok" for row in result.rows)
        by_method = {row.method: row for row in result.rows if row.seed == 0}
        assert by_method["G2SF-3"].iterations == 20
        assert by_method["G2SF-3"].evals_used == 60
        assert by_method["GSF-2"].iterations == 30
        assert by_method["GSF-2"].evals_used == 60
        assert len(result.cells) == 2
        fp = config_fingerprint(config)
        assert all(row.fingerprint == fp for row in result.rows)

    def test_failed_cell_does_not_abort_sweep(self):
        config = dict(QUAD_CONFIG, methods=["G2SF-3"], budgets=[2, 60], seeds=1)
        result = run_table(config)
        statuses = {row.budget: row.status for row in result.rows}
        assert statuses == {2: "error", 60: "ok"}
        failed = next(r for r in result.rows if r.status == "error")
        assert failed.message.startswith("BudgetTooSmall:")
        assert failed.final_parameter_error is None
        cell = next(c for c in result.cells if c.budget == 2)
        assert cell.n_ok == 0 and np.isnan(cell.mean_error)

    def test_seed_base(self):
        config = dict(
            QUAD_CONFIG, methods=["GSF-2"], budgets=[20], seeds=2, seed_base=40
        )
        seeds = [row.seed for row in run_table(config).rows]
        assert seeds == [40, 41]

    def test_null_sections_run_as_absent(self):
        config = dict(QUAD_CONFIG, methods=["G2SF-3", "GSF-2"], budgets=[30])
        null = dict(config, estimator=None, perturb=None)
        rows = run_table(null).rows
        assert all(row.status == "ok" for row in rows)
        errors = [row.final_parameter_error for row in run_table(config).rows]
        assert [row.final_parameter_error for row in rows] == errors

    def test_memory_does_not_grow_with_the_budget(self, peak_bytes):
        # a row reads no trajectory, so a run holds one block of draws
        def cell(budget):
            return {"objective": "rastrigin", "dim": 10, "methods": ["G2SF-9"], "budget": budget}

        run_table(cell(5_000))  # warm the caches and the interpreter a first run fills
        peaks = [peak_bytes(lambda: run_table(cell(budget))) for budget in (50_000, 5_000)]
        assert abs(peaks[0] - peaks[1]) < 8192

    @pytest.mark.parametrize("objective", ["quadratic", "rastrigin", "saddle"])
    def test_dim_below_one_is_an_error_row(self, objective):
        # named before any objective is built, whatever the objective
        config = {"objective": objective, "methods": ["G2SF-3"], "dims": [-1, 2], "budget": 30}
        rows = run_table(config).rows
        assert [(row.dim, row.status) for row in rows] == [(-1, "error"), (2, "ok")]
        assert rows[0].message == "ValueError: dim must be >= 1, got -1"

    def test_nonfinite_seed_is_an_error_row(self, monkeypatch):
        # NaN beyond x0 = 4.5: some runs probe there, others never do
        config = dict(QUAD_CONFIG, methods=["G2SF-3", "GSF-2"], budgets=[90], seeds=8)
        clean = {(r.method, r.seed): r for r in run_table(config).rows}
        real = harness_mod.make_objective

        def holed(cfg):
            objective = real(cfg)

            def value(x):
                x = np.asarray(x, dtype=float)
                return np.where(x[..., 0] > 4.5, np.nan, objective.value(x))

            return replace(objective, value=value)

        monkeypatch.setattr(harness_mod, "make_objective", holed)
        rows = run_table(config).rows
        assert len(rows) == 16
        for method in ("G2SF-3", "GSF-2"):
            statuses = {r.status for r in rows if r.method == method}
            assert statuses == {"ok", "error"}
        for row in rows:
            if row.status == "error":
                assert row.message.startswith("NonFiniteEvaluation:")
                assert row.final_parameter_error is None and row.evals_used == 0
            else:
                ref = clean[(row.method, row.seed)]
                assert row.final_parameter_error.hex() == ref.final_parameter_error.hex()
                assert (row.iterations, row.evals_used) == (ref.iterations, ref.evals_used)


class TestAggregateRows:
    @staticmethod
    def row(method="M", dim=2, budget=10, seed=0, error=0.5, status="ok"):
        return TableRow(
            fingerprint="f",
            method=method,
            dim=dim,
            budget=budget,
            seed=seed,
            k=1,
            iterations=3,
            final_parameter_error=error,
            evals_used=9,
            status=status,
            message="",
            wall_time_s=0.0,
        )

    def test_mean_and_sample_sd(self):
        cells = aggregate_rows([self.row(error=0.2), self.row(error=0.4, seed=1)])
        assert len(cells) == 1
        assert cells[0].n_ok == 2
        assert cells[0].mean_error == pytest.approx(0.3)
        assert cells[0].sd_error == pytest.approx(np.std([0.2, 0.4], ddof=1))
        assert cells[0].mean_evals == 9.0

    def test_single_run_sd_zero(self):
        cells = aggregate_rows([self.row()])
        assert cells[0].sd_error == 0.0

    def test_error_rows_excluded(self):
        cells = aggregate_rows(
            [self.row(error=0.2), self.row(error=None, status="error", seed=1)]
        )
        assert cells[0].n_ok == 1
        assert cells[0].mean_error == pytest.approx(0.2)

    def test_all_failed_gives_nan(self):
        cells = aggregate_rows([self.row(error=None, status="error")])
        assert cells[0].n_ok == 0
        assert np.isnan(cells[0].mean_error) and np.isnan(cells[0].sd_error)
        assert np.isnan(cells[0].mean_evals)

    def test_ok_rows_without_an_error_value_count(self):
        # an objective with no known optimum: the runs are ok, with no error
        cells = aggregate_rows([self.row(error=None), self.row(error=None, seed=1)])
        assert cells[0].n_ok == 2
        assert np.isnan(cells[0].mean_error) and np.isnan(cells[0].sd_error)
        assert cells[0].mean_evals == 9.0

    def test_keys_kept_separate(self):
        cells = aggregate_rows(
            [self.row(method="A"), self.row(method="B", error=1.0)]
        )
        assert {c.method for c in cells} == {"A", "B"}


class TestRunBiasSweep:
    def test_gradient_slope(self):
        result = run_bias_sweep(
            {
                "objective": "quartic",
                "dim": 2,
                "estimator_kind": "gradient",
                "k": 2,
                "theta": [0.9, -1.1],
                "samples": 4000,
                "seed_base": 3,
            }
        )
        assert result.estimator == "gradient"
        assert (result.k1, result.k2) == (2, 2)
        assert result.mode == "residual"
        assert result.deltas == [0.4, 0.2, 0.1, 0.05]
        assert 1.7 < result.slope < 2.4

    def test_hessian_defaults_and_unequal_orders(self):
        result = run_bias_sweep(
            {
                "objective": "quartic",
                "dim": 2,
                "k": 1,
                "k2": 3,
                "theta": [0.9, -1.1],
                "samples": 4000,
            }
        )
        assert result.estimator == "hessian"
        assert (result.k1, result.k2) == (1, 3)
        assert result.slope < 1.5

    def test_mean_bias_mode(self):
        result = run_bias_sweep(
            {
                "objective": "quartic",
                "dim": 2,
                "k": 1,
                "mode": "mean_bias",
                "theta": [0.9, -1.1],
                "samples": 20000,
                "seed_base": 1,
            }
        )
        assert result.mode == "mean_bias"
        assert result.slope > 1.6

    def test_deltas_override(self):
        result = run_bias_sweep(
            {
                "objective": "quartic",
                "dim": 2,
                "estimator_kind": "gradient",
                "k": 1,
                "theta": [0.9, -1.1],
                "deltas": [0.2, 0.1],
                "samples": 500,
            }
        )
        assert result.deltas == [0.2, 0.1]
        assert len(result.deviations) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_bias_sweep({"estimator_kind": "jacobian"})

    def test_paper_literal_scaling_reaches_the_sweep(self):
        # the literal scaling's mean is 2H, so its bias is about |H|_F; the
        # moment-matched mean is H, leaving only the sampling error
        config = {
            "objective": "quadratic",
            "quadratic": {"diag": [1.0, 2.0]},
            "dim": 2,
            "mode": "mean_bias",
            "samples": 2000,
        }
        norm_h = np.sqrt(5.0)
        matched = run_bias_sweep(config)
        literal = run_bias_sweep({**config, "estimator": {"paper_literal_scaling": True}})
        assert all(dev < 0.25 * norm_h for dev in matched.deviations)
        assert all(0.6 * norm_h < dev < 1.4 * norm_h for dev in literal.deviations)


class TestValidateConfig:
    def test_default_config_passes_with_one_warning(self):
        findings = validate_config({})
        assert len(findings) == 6
        assert not has_errors(findings)
        warned = failed_warnings(findings)
        assert [f.check for f in warned] == ["schedules.b_delta_square_summable"]

    def test_budget_feasibility(self):
        findings = validate_config({"budget": 2})
        finding = next(f for f in findings if f.check == "run.builds")
        assert not finding.ok
        assert has_errors(findings)
        ok = validate_config({"budget": 3})
        assert not has_errors(ok)

    def test_unsupported_order(self):
        findings = validate_config({"budget": 1000, "estimator": {"k": 20}})
        assert not next(
            f for f in findings if f.check == "run.builds"
        ).ok

    def test_crzon_order_also_checked(self):
        findings = validate_config({"crzon": {"k": 0}})
        assert not next(
            f for f in findings if f.check == "run.builds"
        ).ok

    def test_empty_box(self):
        findings = validate_config({"box": {"lower": 2.0, "upper": -2.0}})
        assert not next(f for f in findings if f.check == "run.builds").ok

    def test_unknown_family(self):
        findings = validate_config({"perturb": {"family": "levy"}})
        assert not next(f for f in findings if f.check == "run.builds").ok

    def test_negative_sigma(self):
        findings = validate_config({"noise": {"sigma": -0.5}})
        assert not next(f for f in findings if f.check == "run.builds").ok

    def test_null_noise_is_no_noise(self):
        # make_noise reads "noise": null as no noise; the validator agrees
        config = {"noise": None}
        assert make_noise(config) is None
        findings = validate_config(config)
        assert next(f for f in findings if f.check == "run.builds").ok
        assert not has_errors(findings)

    @pytest.mark.parametrize("key", ["estimator", "box", "perturb", "schedules", "crzon"])
    def test_null_section_is_absent(self, key):
        base = {"budget": 2000}
        null = dict(base, **{key: None})
        assert validate_config(null) == validate_config(base)
        for build in (build_newton_config, build_cubic_config):
            # compared with one objective, whose arrays have no == of their own
            objective = build(base).objective
            assert replace(build(null), objective=objective) == replace(
                build(base), objective=objective
            )

    def test_null_quadratic_section_is_absent(self):
        base = {"objective": "quadratic", "dim": 3}
        null = dict(base, quadratic=None)
        assert np.array_equal(
            make_objective(null).hessian(np.zeros(3)), make_objective(base).hessian(np.zeros(3))
        )

    @pytest.mark.parametrize("reuse,cost", [(False, 1600), (True, 1200)])
    def test_crzon_budget_covers_one_step(self, reuse, cost):
        # the budget is checked against the CRZON outer step, not a Newton
        # iteration: m(k+1) + b(2k+1) evaluations, or b(2k+1) with reuse
        config = {
            "objective": "quartic",
            "dim": 4,
            "crzon": {"k": 1, "N": 1, "m": 200, "b": 400, "delta": 0.1, "alpha": 2.0},
            "estimator": {"reuse": reuse},
        }
        short = dict(config, budget=cost - 1)
        findings = validate_config(short)
        finding = next(f for f in findings if f.check == "run.builds")
        assert not finding.ok
        assert f"({cost} evaluations)" in finding.message
        assert has_errors(findings)
        with pytest.raises(BudgetTooSmall):
            run_crzon(build_cubic_config(short))

        exact = dict(config, budget=cost)
        assert not has_errors(validate_config(exact))
        assert run_crzon(build_cubic_config(exact)).evals_used == cost

    @pytest.mark.parametrize("crzon", [None, {"k": 1}], ids=["newton", "crzon"])
    def test_unknown_objective_is_an_error(self, crzon):
        config = {"objective": "rosenbrock", "budget": 100}
        if crzon is not None:
            config["crzon"] = crzon
        findings = validate_config(config)
        finding = next(f for f in findings if f.check == "run.builds")
        assert not finding.ok and finding.severity == "error"
        assert "'rosenbrock'" in finding.message
        assert has_errors(findings)
        with pytest.raises(ValueError, match="unknown objective"):
            (build_newton_config if crzon is None else build_cubic_config)(config)

    @pytest.mark.parametrize("crzon", [None, {}], ids=["newton", "crzon"])
    def test_objective_that_cannot_be_built_is_an_error(self, crzon):
        # a known name, but every run of this config raises
        config = {"objective": "rastrigin", "dim": 0, "budget": 100}
        if crzon is not None:
            config["crzon"] = crzon
        findings = validate_config(config)
        finding = next(f for f in findings if f.check == "run.builds")
        assert not finding.ok and finding.message == "dim must be >= 1, got 0"
        # no schedule warnings without a run
        assert findings == [finding]
        with pytest.raises(ValueError, match="dim must be >= 1"):
            build_newton_config(config)

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"objective": "saddle", "dims": [2, 7]},
             "objective 'saddle' is 2-dimensional, but dim is 7"),
            ({"objective": "quadratic", "quadratic": {"diag": [1.0, 2.0, 3.0]}},
             "objective 'quadratic' is 3-dimensional, but dim is 2"),
            ({"dims": [2, 5, 2]}, "dims lists 2 more than once"),
            ({"methods": ["G2SF-3", "G2SF-3"]}, "methods lists 'G2SF-3' more than once"),
            ({"budgets": [100, 100]}, "budgets lists 100 more than once"),
            ({"schedules": 5}, "schedules must be an object, got 5"),
            ({"estimator": "x"}, "estimator must be an object, got 'x'"),
            ({"crzon": [1]}, "crzon must be an object, got [1]"),
            ({"theta0": [0.0, 0.0]},
             "theta0 must be away from the objective's optimum, got [0.0, 0.0]"),
            # named as dim, not as the empty diagonal or array it would make
            ({"objective": "quadratic", "dim": 0}, "dim must be >= 1, got 0"),
            ({"objective": "quadratic", "dim": -1}, "dim must be >= 1, got -1"),
        ],
    )
    def test_config_errors_name_their_cause(self, config, message):
        errors = [f for f in validate_config(dict(config, budget=100)) if not f.ok]
        assert [(f.check, f.message) for f in errors] == [("run.builds", message)]

    def test_known_objectives_pass(self):
        for name in ("rastrigin", "quadratic", "saddle", "quartic", "exp_sin"):
            findings = validate_config({"objective": name, "budget": 100})
            assert next(f for f in findings if f.check == "run.builds").ok
            make_objective({"objective": name})

    @pytest.mark.parametrize(
        "config, cause",
        [
            ({"algorithm": "gradient-only"}, "'gradient-only'"),
            ({"methods": ["G2SF-3", "G2SF-4"]}, "odd measurement count"),
            ({"methods": ["GSF-5", "XSF-3"]}, "unrecognized method name"),
            ({"methods": ["G2SF-3", "G2SF-03"]}, "unrecognized method name"),
        ],
        ids=["algorithm", "methods-even", "methods-name", "methods-zero-padded"],
    )
    def test_unknown_name_is_an_error(self, config, cause):
        # every run of these configs raises; the validator says why instead
        findings = validate_config(dict(config, budget=100))
        errors = [f for f in findings if not f.ok and f.severity == "error"]
        assert [f.check for f in errors] == ["run.builds"]
        assert cause in errors[0].message
        failure = run_failure(dict(config, budget=100))
        assert failure[0] == "ValueError" and cause in failure[1]

    def test_known_names_pass(self):
        # a method name sets its cells' algorithm, so the two are set apart
        for config in ({"algorithm": "newton"}, {"algorithm": "gradient_only"},
                       {"methods": ["GSF-5", "G2R-9"]}):
            findings = validate_config(config)
            assert next(f for f in findings if f.check == "run.builds").ok

    @pytest.mark.parametrize(
        "config,cause",
        [
            ({"perturb": {"family": "uniform", "eta": -1.0}, "budget": 100}, "ValueError"),
            ({"eps_pd": -1.0, "budget": 100}, "ValueError"),
            ({"objective": "quadratic", "dim": 0, "budget": 100}, "ValueError"),
            ({"estimator": {"k": 13}, "budget": 100}, "OrderError"),
            ({"methods": ["G2SF-9"], "budget": 5}, "BudgetTooSmall"),
            ({"dims": [0]}, "ValueError"),
            ({"budgets": [2]}, "BudgetTooSmall"),
            ({"crzon": {"m": 0}}, "ValueError"),
            ({"crzon": {"N": 0}}, "ValueError"),
            ({"crzon": {"alpha": -1.0}}, "ValueError"),
            ({"objective": "quartic", "crzon": {}}, "ValueError"),
            ({"theta0": [1.0, 2.0, 3.0], "budget": 100}, "ValueError"),
            # priced at the gradient-only k+1 = 3, not the Newton 2k+1 = 5
            ({"algorithm": "gradient_only", "budget": 3, "estimator": {"k": 2}}, None),
            ({"crzon": {"delta": 0.0, "N": 2, "m": 10, "b": 10}}, "ValueError"),
            # "seed" is an unknown key, which no run builds with; seed_base
            # is where every run starts
            ({"seed": -1, "budget": 30}, "ValueError"),
            ({"seed_base": -1, "budget": 30}, "ValueError"),
            # the schedules' signs, checked when they are built
            ({"schedules": {"a0": -1.0}}, "ValueError"),
            ({"schedules": {"B": -1.0}}, "ValueError"),
            ({"schedules": {"gamma": 0.0}}, "ValueError"),
            ({"schedules": {"delta0": 0.0}}, "ValueError"),
            # values that do not fit their key's type are not rounded or
            # read for their truth
            ({"budget": 999.9}, "ValueError"),
            ({"estimator": {"k": 2.7}, "budget": 100}, "ValueError"),
            ({"estimator": {"reuse": "false"}, "budget": 100}, "ValueError"),
            ({"crzon": {"b": 10.5}}, "ValueError"),
            ({"dims": [5.9]}, "ValueError"),
            ({"dims": 5}, "ValueError"),
            ({"schedules": {"alpha": True}}, "ValueError"),
            ({"noise": {"sigma": "0.1"}}, "ValueError"),
            ({"crzon": {"k": 1, "N": 1, "m": 4, "b": 4, "alpha": 1.0}, "budget": 19},
             "BudgetTooSmall"),
            # a CRZON run reads no algorithm, box, methods or schedules, so a
            # crzon section rejects them
            (
                {
                    "objective": "quartic", "dim": 2, "algorithm": "bogus",
                    "crzon": {"k": 1, "N": 1, "m": 4, "b": 4, "alpha": 1.0},
                },
                "ValueError",
            ),
            (dict(CRZON_CONFIG, box={"lower": 1, "upper": 0}), "ValueError"),
            (dict(CRZON_CONFIG, methods=["G2SF-4"]), "ValueError"),
            (dict(CRZON_CONFIG, schedules={"a0": -1}), "ValueError"),
            # a table laid out with no seeds, methods, dims or budgets fails,
            # not gives no rows
            ({"seeds": 0}, "ValueError"),
            ({"seeds": -2}, "ValueError"),
            ({"methods": []}, "ValueError"),
            ({"dims": []}, "ValueError"),
            ({"budgets": []}, "ValueError"),
            # non-finite values; a NaN sigma used to switch the noise off
            ({"objective": "quadratic", "budget": 30, "noise": {"sigma": float("nan")}},
             "ValueError"),
            ({"budget": 30, "noise": {"sigma": float("inf")}}, "ValueError"),
            ({"theta0": [float("nan"), 1.0], "budget": 30}, "ValueError"),
            (dict(CRZON_CONFIG, theta0=[float("inf"), 0.0]), "ValueError"),
            # crzon.epsilon sizes the run, so the sizes cannot be set next to it
            ({"objective": "saddle", "crzon": {"epsilon": 0.3, "N": 3}}, "ValueError"),
            ({"objective": "saddle", "crzon": {"epsilon": 0.3, "delta": 0.1}}, "ValueError"),
            # infinite values, checked where each is built; a box bound must
            # be finite too (see Box)
            *[
                ({"schedules": {key: float("inf")}, "budget": 30}, "ValueError")
                for key in ("a0", "A", "alpha", "b0", "B", "beta", "delta0", "gamma")
            ],
            ({"eps_pd": float("inf"), "budget": 30}, "ValueError"),
            ({"perturb": {"eta": float("inf")}, "budget": 30}, "ValueError"),
            ({"perturb": {"family": "uniform", "eta": float("inf")}, "budget": 30}, "ValueError"),
            # a uniform eta whose moments overflow or underflow in floats
            *[
                ({"perturb": {"family": "uniform", "eta": eta}, "budget": 30}, "ValueError")
                for eta in (1e100, 1e-200, 1e-100)
            ],
            ({"box": {"upper": float("inf")}, "budget": 30}, "ValueError"),
            ({"box": {"lower": -float("inf")}, "budget": 30}, "ValueError"),
            (dict(CRZON_CONFIG, crzon={"N": 2, "m": 4, "b": 4, "delta": float("inf")}),
             "ValueError"),
            (dict(CRZON_CONFIG, crzon={"N": 2, "m": 4, "b": 4, "alpha": float("inf")}),
             "ValueError"),
            ({"objective": "saddle", "crzon": {"epsilon": 0.3, "alpha": float("inf")}},
             "ValueError"),
            ({"objective": "saddle", "crzon": {"epsilon": 0.3, "delta_prefactor": float("inf")}},
             "ValueError"),
            ({"objective": "saddle", "crzon": {"epsilon": 0.3, "n_prefactor": float("inf")}},
             "ValueError"),
            # non-finite quadratic coefficients, checked before symmetry
            *[
                ({"objective": "quadratic", "dim": 2, "quadratic": {"diag": [bad, 1.0]},
                  "budget": 30}, "ValueError")
                for bad in (float("inf"), float("nan"))
            ],
            ({"objective": "quadratic", "dim": 2,
              "quadratic": {"matrix": [[1.0, float("inf")], [float("inf"), 1.0]]}, "budget": 30},
             "ValueError"),
            ({"objective": "quadratic", "dim": 2, "quadratic": {"b": [float("nan"), 0.0]},
              "budget": 30}, "ValueError"),
            # a run's dimension is its objective's, or the config fails
            ({"objective": "saddle", "dims": [2, 7], "budget": 60}, "ValueError"),
            ({"objective": "exp_sin", "dim": 3, "budget": 60}, "ValueError"),
            (dict(CRZON_CONFIG, objective="saddle", dim=3), "ValueError"),
            ({"objective": "quadratic", "quadratic": {"diag": [1.0, 2.0, 3.0]}, "budget": 30},
             "ValueError"),
            ({"objective": "quadratic", "dim": 3, "quadratic": {"diag": [1.0, 2.0, 3.0]},
              "budget": 30}, None),
            ({"objective": "quadratic", "dim": 3,
              "quadratic": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}, "budget": 30}, "ValueError"),
            # a table cell listed twice would run its seeds twice
            ({"dims": [2, 2], "seeds": 2, "budget": 30}, "ValueError"),
            ({"methods": ["G2SF-3", "GSF-5", "G2SF-3"], "budget": 30}, "ValueError"),
            ({"budgets": [30, 30]}, "ValueError"),
            # sections of the wrong JSON type, and a start at the optimum
            ({"schedules": 5, "budget": 30}, "ValueError"),
            ({"estimator": "x", "budget": 30}, "ValueError"),
            ({"crzon": [1]}, "ValueError"),
            ({"theta0": [0.0, 0.0], "budget": 30}, "ValueError"),
            # a CRZON config's seeds are laid out as a table's are
            (dict(CRZON_CONFIG, seeds=0), "ValueError"),
            # a quadratic key that no run would read
            ({"objective": "quadratic", "dim": 2,
              "quadratic": {"diag": [1.0, 2.0], "matrix": [[1.0, 0.0], [0.0, 1.0]]},
              "budget": 30}, "ValueError"),
            ({"objective": "rastrigin", "quadratic": {"diag": [1.0, 2.0]}, "budget": 30},
             "ValueError"),
            (dict(CRZON_CONFIG, quadratic={"b": [1.0, 0.0]}), "ValueError"),
            ({"objective": "rastrigin", "quadratic": None, "budget": 30}, None),
            # a zero-padded count would name the same cell twice
            ({"methods": ["G2SF-3", "G2SF-03"], "budget": 30}, "ValueError"),
            # a size crzon.epsilon sets past the float range is named
            ({"objective": "saddle", "crzon": {"epsilon": 1e-300}}, "ValueError"),
            ({"crzon": {"epsilon": 0.5, "m_prefactor": 1e308}}, "ValueError"),
        ],
    )
    def test_validator_agrees_with_the_run(self, config, cause):
        errors = [f for f in validate_config(config) if not f.ok and f.severity == "error"]
        failure = run_failure(config)
        assert (failure or (None,))[0] == cause
        if cause is None:
            assert errors == []
        else:
            assert [f.message for f in errors] == [failure[1]]

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"objective": "quadratic", "dim": 2,
              "quadratic": {"diag": [1.0, 2.0], "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
             "quadratic.diag cannot be set with quadratic.matrix"),
            ({"objective": "rastrigin", "quadratic": {"diag": [1.0, 2.0]}},
             "quadratic is read only by objective 'quadratic', got 'rastrigin'"),
            ({"objective": "saddle", "quadratic": {}},
             "quadratic is read only by objective 'quadratic', got 'saddle'"),
        ],
    )
    def test_unread_quadratic_keys_are_named(self, config, message):
        with pytest.raises(ValueError) as exc:
            make_objective(config)
        assert str(exc.value) == message

    def test_crzon_config_gets_no_schedule_findings(self):
        # CRZON runs never read the schedules, so their warnings do not apply,
        # and a crzon section rejects a schedule set beside it
        findings = validate_config(CRZON_CONFIG)
        assert not any(f.check.startswith("schedules.") for f in findings)
        assert not has_errors(findings)
        findings = validate_config(dict(CRZON_CONFIG, schedules={"beta": 2.0}))
        message = "schedules.beta is read only by Newton runs, and a crzon section runs CRZON"
        assert [(f.check, f.message) for f in findings if not f.ok] == [("run.builds", message)]

    def test_newton_only_keys_are_derived_from_the_table(self):
        # a new key has to be classified: it joins this list or CRZON reads it
        assert harness_mod._NEWTON_ONLY == NEWTON_ONLY

    def test_crzon_only_keys_are_derived_from_the_table(self):
        # a new key has to be classified: it joins this list or Newton reads it
        assert harness_mod._CRZON_ONLY == CRZON_ONLY
        assert not set(CRZON_ONLY) & set(NEWTON_ONLY)

    @pytest.mark.parametrize("path", CRZON_ONLY)
    def test_crzon_only_key_in_a_newton_build_is_named(self, path):
        value = {int: 2, float: 0.5, bool: True}[harness_mod.KEYS[path].kind]
        section, _, name = path.rpartition(".")
        with pytest.raises(ValueError) as exc:
            build_newton_config(dict(QUAD_CONFIG, budget=30, **{section: {name: value}}))
        assert str(exc.value) == (
            f"{path} is read only by CRZON runs, and a config without a crzon section runs Newton"
        )

    @pytest.mark.parametrize("path", NEWTON_ONLY)
    def test_newton_only_key_beside_crzon_is_named(self, path):
        value = {int: 2, float: 1.0, str: "newton", list[str]: ["G2SF-3"], list[int]: [2]}[
            harness_mod.KEYS[path].kind
        ]
        section, _, name = path.rpartition(".")
        config = dict(CRZON_CONFIG, **({section: {name: value}} if section else {name: value}))
        message = f"{path} is read only by Newton runs, and a crzon section runs CRZON"
        with pytest.raises(ValueError) as exc:
            build_cubic_config(config)
        assert str(exc.value) == message
        assert [f.message for f in validate_config(config) if not f.ok] == [message]

    @pytest.mark.parametrize(
        "keys,message",
        [
            ({"estimator_kind": "jacobian"},
             "estimator_kind must be one of gradient, hessian, got 'jacobian'"),
            ({"mode": "meanbias"}, "mode must be one of residual, mean_bias, got 'meanbias'"),
            ({"k": 13}, "k=13 exceeds the supported cap 12"),
            ({"k1": 0}, "k1 must be >= 1, got 0"),
            ({"k2": 13}, "k2=13 exceeds the supported cap 12"),
            ({"deltas": [0.1, 0.0]}, "deltas must be > 0, got [0.1, 0.0]"),
            ({"samples": 0}, "samples must be >= 1, got 0"),
            ({"deltas": [0.1, float("inf")]}, "deltas must be finite, got [0.1, inf]"),
            ({"theta": [float("inf"), 1.0]}, "theta must be finite, got [inf, 1.0]"),
            ({"theta": [1.0, float("nan")]}, "theta must be finite, got [1.0, nan]"),
            ({"theta": [1.0, 2.0, 3.0]}, "theta must have shape (2,), got (3,)"),
            ({"deltas": [0.1]}, "deltas must hold at least two distinct radii, got [0.1]"),
            ({"deltas": [0.1, 0.1]},
             "deltas must hold at least two distinct radii, got [0.1, 0.1]"),
            ({"k": 1, "k1": 3}, "k cannot be set with k1"),
        ],
    )
    def test_bias_sweep_keys_are_checked(self, keys, message):
        # the validator and the sweep reject them with one message
        config = dict(QUAD_CONFIG, budget=30, **keys)
        errors = [f for f in validate_config(config) if not f.ok]
        assert [(f.check, f.message) for f in errors] == [("run.builds", message)]
        with pytest.raises(ValueError) as exc:
            run_bias_sweep(config)
        assert str(exc.value) == message

    def test_bad_schedule_fails_every_run(self):
        config = {"schedules": {"a0": -1.0}, "budget": 30}
        message = "a0 must be > 0, got -1.0"
        errors = [f for f in validate_config(config) if not f.ok]
        assert [(f.check, f.message) for f in errors] == [("run.builds", message)]
        rows = run_table(config).rows
        assert rows and all(row.status == "error" for row in rows)
        assert {row.message for row in rows} == {f"ValueError: {message}"}


class TestCsvWriters:
    def test_newton_csv(self, tmp_path):
        cfg_kwargs = dict(budget=60, k=1)
        records = [
            run_newton(build_newton_config(dict(QUAD_CONFIG, **cfg_kwargs), seed=s))
            for s in (0, 1)
        ]
        path = tmp_path / "runs.csv"
        write_newton_csv(str(path), records)
        rows = read_csv(path)
        assert rows[0] == [
            "seed",
            "k",
            "budget",
            "iterations",
            "final_parameter_error",
            "evals_used",
        ]
        assert len(rows) == 3
        assert rows[1][0] == "0" and rows[2][0] == "1"
        assert rows[1][3] == "20" and rows[1][5] == "60"
        assert float(rows[1][4]) == records[0].final_parameter_error

    def test_newton_csv_blank_for_missing_error(self, tmp_path):
        record = RunRecord(
            algorithm="newton",
            seed=0,
            k=1,
            dim=2,
            budget=9,
            iterations=3,
            evals_used=9,
            theta_init=np.zeros(2),
            theta_final=np.zeros(2),
            final_parameter_error=None,
            wall_time_s=0.0,
        )
        path = tmp_path / "runs.csv"
        write_newton_csv(str(path), [record])
        assert read_csv(path)[1][4] == ""

    def test_table_csv_deterministic_up_to_wall_time(self, tmp_path):
        config = dict(QUAD_CONFIG, methods=["G2SF-3"], budgets=[60], seeds=2)
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            write_table_csv(str(path), run_table(config))
            paths.append(path)
        first, second = (read_csv(p) for p in paths)
        assert first[0][-1] == "wall_time_s"
        stripped = [[row[:-1] for row in table] for table in (first, second)]
        assert stripped[0] == stripped[1]

    def test_summary_csv(self, tmp_path):
        config = dict(QUAD_CONFIG, methods=["G2SF-3"], budgets=[60], seeds=2)
        path = tmp_path / "summary.csv"
        write_summary_csv(str(path), run_table(config))
        rows = read_csv(path)
        assert rows[0] == [
            "method",
            "dim",
            "budget",
            "n_ok",
            "mean_error",
            "sd_error",
            "mean_evals",
        ]
        assert rows[1][:4] == ["G2SF-3", "2", "60", "2"]
        assert rows[1][6] == "60.0"

    def test_crzon_csv(self, tmp_path):
        from grdsa.cubic import run_crzon

        cfg = build_cubic_config(
            {
                "objective": "saddle",
                "theta0": [0.01, 0.01],
                "crzon": {"N": 2, "m": 4, "b": 4, "k": 1, "delta": 0.1},
            }
        )
        path = tmp_path / "crzon.csv"
        write_crzon_csv(str(path), [run_crzon(cfg)])
        rows = read_csv(path)
        assert rows[0] == [
            "seed",
            "k",
            "epsilon",
            "N",
            "m",
            "b",
            "delta",
            "evals_used",
            "grad_norm_at_R",
            "lambda_min_at_R",
        ]
        assert rows[1][2] == ""  # epsilon not set
        assert rows[1][7] == str(2 * (4 * 2 + 4 * 3))

    def test_bias_sweep_csv(self, tmp_path):
        result = run_bias_sweep(
            {
                "objective": "quartic",
                "dim": 2,
                "estimator_kind": "gradient",
                "k": 1,
                "theta": [0.9, -1.1],
                "samples": 500,
            }
        )
        path = tmp_path / "sweep.csv"
        write_bias_sweep_csv(str(path), result)
        rows = read_csv(path)
        assert rows[0] == ["estimator", "k1", "k2", "mode", "delta", "deviation", "slope"]
        assert len(rows) == 5
        assert {row[6] for row in rows[1:]} == {repr(result.slope)}
