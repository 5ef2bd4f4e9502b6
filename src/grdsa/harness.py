"""Experiment drivers: benchmark tables, order sweeps, config validation.

Configs are plain dicts (loaded from JSON files by the CLI); every run is
fully determined by the config plus a seed, and the CSV writers emit the
rows in a fixed order so identical inputs give identical files, the
wall-time column aside.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import time
from dataclasses import dataclass, replace

import numpy as np

from . import cubic as cubic_mod
from .estimators import fit_loglog_slope, gradient_deviation, hessian_deviation
from .newton import (
    Box,
    Finding,
    NewtonConfig,
    RunRecord,
    Schedules,
    iteration_cost,
    run_first_order,
    run_newton,
    validate_schedules,
)
from .oracle import (
    LinearGaussianNoise,
    Objective,
    exp_sin,
    quadratic,
    quartic,
    rastrigin,
    saddle_quartic,
)
from .perturb import PerturbationSpec, gaussian, uniform
from .stencils import MAX_ORDER

_METHOD_RE = re.compile(r"^(G2|G)(SF|R)-(\d+)$")


@dataclass(frozen=True)
class MethodSpec:
    """Algorithm, truncation order and direction family behind a method name.

    Names encode the per-iteration measurement count: ``GSF-5`` is the
    gradient-only scheme with k=4 (5 measurements), ``G2SF-3``/``G2SF-9``
    are the Newton scheme with k=1/k=4 (3/9 measurements with reuse), and
    the ``R`` variants swap Gaussian directions for uniform ones.
    """

    name: str
    algorithm: str  # "newton" | "gradient_only"
    k: int
    family: str  # "gaussian" | "uniform"


def method_spec(name: str) -> MethodSpec:
    match = _METHOD_RE.match(name)
    if match is None:
        raise ValueError(f"unrecognized method name {name!r}")
    order_tag, family_tag, meas_str = match.groups()
    measurements = int(meas_str)
    family = "gaussian" if family_tag == "SF" else "uniform"
    if order_tag == "G2":
        if measurements < 3 or measurements % 2 == 0:
            raise ValueError(
                f"{name!r}: second-order methods need an odd measurement count >= 3"
            )
        return MethodSpec(name, "newton", (measurements - 1) // 2, family)
    if measurements < 2:
        raise ValueError(f"{name!r}: gradient methods need >= 2 measurements")
    return MethodSpec(name, "gradient_only", measurements - 1, family)


def config_fingerprint(config: dict) -> str:
    """Stable digest of a config dict (key order independent)."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# --- config assembly ------------------------------------------------------

def _quadratic_objective(config: dict, dim: int) -> Objective:
    spec = config.get("quadratic") or {}
    if "matrix" in spec:
        a = np.asarray(spec["matrix"], dtype=float)
    else:
        a = np.diag(np.asarray(spec.get("diag", np.ones(dim)), dtype=float))
    b = np.asarray(spec["b"], dtype=float) if "b" in spec else None
    return quadratic(a, b)


#: objective name -> factory(config, dim)
_OBJECTIVES = {
    "rastrigin": lambda config, dim: rastrigin(dim),
    "quadratic": _quadratic_objective,
    "saddle": lambda config, dim: saddle_quartic(),
    "quartic": lambda config, dim: quartic(dim),
    "exp_sin": lambda config, dim: exp_sin(),
}


def make_objective(config: dict) -> Objective:
    name = config.get("objective", "rastrigin")
    if name not in _OBJECTIVES:
        raise ValueError(f"unknown objective {name!r}")
    return _OBJECTIVES[name](config, int(config.get("dim", 2)))


def make_noise(config: dict) -> LinearGaussianNoise | None:
    noise = config.get("noise")
    if noise is None:
        return None
    sigma = float(noise.get("sigma", 0.0))
    if sigma == 0.0:
        return None
    return LinearGaussianNoise(sigma)


def make_perturbation(config: dict) -> PerturbationSpec:
    spec = config.get("perturb") or {}
    family = spec.get("family", "gaussian")
    if family == "gaussian":
        return gaussian()
    if family == "uniform":
        return uniform(float(spec.get("eta", 1.0)))
    raise ValueError(f"unknown perturbation family {family!r}")


def make_schedules(config: dict) -> Schedules:
    sched = config.get("schedules") or {}
    return Schedules(
        a0=float(sched.get("a0", 0.9)),
        big_a=float(sched.get("A", 20.0)),
        alpha=float(sched.get("alpha", 0.9)),
        b0=float(sched.get("b0", 0.9)),
        big_b=float(sched.get("B", 10.0)),
        beta=float(sched.get("beta", 0.56)),
        delta0=float(sched.get("delta0", 0.9)),
        gamma=float(sched.get("gamma", 0.16667)),
    )


def make_box(config: dict) -> Box:
    box = config.get("box") or {}
    return Box(lower=float(box.get("lower", -5.12)), upper=float(box.get("upper", 5.12)))


def build_newton_config(config: dict, seed: int | None = None) -> NewtonConfig:
    estimator = config.get("estimator") or {}
    theta0 = config.get("theta0")
    return NewtonConfig(
        objective=make_objective(config),
        budget=int(config["budget"]),
        k=int(estimator.get("k", 1)),
        noise=make_noise(config),
        perturbation=make_perturbation(config),
        schedules=make_schedules(config),
        box=make_box(config),
        eps_pd=float(config.get("eps_pd", 0.1)),
        reuse=bool(estimator.get("reuse", True)),
        paper_literal_scaling=bool(estimator.get("paper_literal_scaling", False)),
        seed=int(config.get("seed", 0)) if seed is None else seed,
        theta0=None if theta0 is None else np.asarray(theta0, dtype=float),
        record_stride=int(config.get("record_stride", 1)),
    )


def build_cubic_config(config: dict, seed: int | None = None) -> cubic_mod.CubicConfig:
    objective = make_objective(config)
    section = config.get("crzon") or {}
    estimator = config.get("estimator") or {}
    theta0 = config.get("theta0")
    common = dict(
        noise=make_noise(config),
        perturbation=make_perturbation(config),
        seed=int(config.get("seed", 0)) if seed is None else seed,
        theta0=None if theta0 is None else np.asarray(theta0, dtype=float),
        budget=config.get("budget"),
        reuse=bool(estimator.get("reuse", False)),
        paper_literal_scaling=bool(estimator.get("paper_literal_scaling", False)),
    )
    if section.get("epsilon") is not None:
        return cubic_mod.from_epsilon(
            objective,
            float(section["epsilon"]),
            k=int(section.get("k", 1)),
            n_prefactor=float(section.get("n_prefactor", 1.0)),
            m_prefactor=float(section.get("m_prefactor", 1.0)),
            b_prefactor=float(section.get("b_prefactor", 1.0)),
            delta_prefactor=float(section.get("delta_prefactor", 1.0)),
            **common,
        )
    return cubic_mod.CubicConfig(
        objective=objective,
        k=int(section.get("k", 1)),
        n_steps=int(section.get("N", 30)),
        m=int(section.get("m", 200)),
        b=int(section.get("b", 400)),
        delta=float(section.get("delta", 0.1)),
        alpha=section.get("alpha"),
        **common,
    )


# --- benchmark table ------------------------------------------------------

@dataclass
class TableRow:
    fingerprint: str
    method: str
    dim: int
    budget: int
    seed: int
    k: int
    iterations: int
    final_parameter_error: float | None
    evals_used: int
    status: str  # "ok" | "error"
    message: str
    wall_time_s: float


@dataclass
class TableCell:
    method: str
    dim: int
    budget: int
    n_ok: int
    mean_error: float
    sd_error: float
    mean_evals: float


@dataclass
class TableResult:
    rows: list[TableRow]
    cells: list[TableCell]


def run_table(config: dict) -> TableResult:
    """Run every method x dim x budget x seed cell; failures don't abort."""
    fingerprint = config_fingerprint(config)
    methods = [method_spec(name) for name in config.get("methods", ["G2SF-3"])]
    dims = [int(d) for d in config.get("dims", [config.get("dim", 2)])]
    budgets = [int(b) for b in config.get("budgets", [config.get("budget", 1000)])]
    n_seeds = int(config.get("seeds", 1))
    seed_base = int(config.get("seed_base", 0))

    rows: list[TableRow] = []
    for method in methods:
        for dim in dims:
            for budget in budgets:
                for seed in range(seed_base, seed_base + n_seeds):
                    sub = dict(config)
                    sub["dim"] = dim
                    sub["budget"] = budget
                    sub["estimator"] = dict(config.get("estimator") or {}, k=method.k)
                    sub["perturb"] = dict(
                        config.get("perturb") or {}, family=method.family
                    )
                    start = time.perf_counter()
                    try:
                        cfg = build_newton_config(sub, seed=seed)
                        runner = run_newton if method.algorithm == "newton" else run_first_order
                        record = runner(cfg)
                        rows.append(
                            TableRow(
                                fingerprint=fingerprint,
                                method=method.name,
                                dim=dim,
                                budget=budget,
                                seed=seed,
                                k=method.k,
                                iterations=record.iterations,
                                final_parameter_error=record.final_parameter_error,
                                evals_used=record.evals_used,
                                status="ok",
                                message="",
                                wall_time_s=record.wall_time_s,
                            )
                        )
                    except Exception as exc:  # mark the cell, keep sweeping
                        rows.append(
                            TableRow(
                                fingerprint=fingerprint,
                                method=method.name,
                                dim=dim,
                                budget=budget,
                                seed=seed,
                                k=method.k,
                                iterations=0,
                                final_parameter_error=None,
                                evals_used=0,
                                status="error",
                                message=f"{type(exc).__name__}: {exc}",
                                wall_time_s=time.perf_counter() - start,
                            )
                        )
    return TableResult(rows=rows, cells=aggregate_rows(rows))


def aggregate_rows(rows: list[TableRow]) -> list[TableCell]:
    """Mean and sample standard deviation (ddof=1) per table cell."""
    cells: list[TableCell] = []
    seen: list[tuple[str, int, int]] = []
    for row in rows:
        key = (row.method, row.dim, row.budget)
        if key not in seen:
            seen.append(key)
    for method, dim, budget in seen:
        errs = [
            r.final_parameter_error
            for r in rows
            if (r.method, r.dim, r.budget) == (method, dim, budget)
            and r.status == "ok"
            and r.final_parameter_error is not None
        ]
        evals = [
            r.evals_used
            for r in rows
            if (r.method, r.dim, r.budget) == (method, dim, budget) and r.status == "ok"
        ]
        if errs:
            arr = np.asarray(errs)
            mean = float(arr.mean())
            sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        else:
            mean = float("nan")
            sd = float("nan")
        cells.append(
            TableCell(
                method=method,
                dim=dim,
                budget=budget,
                n_ok=len(errs),
                mean_error=mean,
                sd_error=sd,
                mean_evals=float(np.mean(evals)) if evals else float("nan"),
            )
        )
    return cells


# --- bias sweep -----------------------------------------------------------

@dataclass
class BiasSweepResult:
    estimator: str
    k1: int
    k2: int
    mode: str
    deltas: list[float]
    deviations: list[float]
    slope: float


def run_bias_sweep(config: dict) -> BiasSweepResult:
    """Deviation-vs-radius sweep with common random directions.

    One direction matrix is drawn up front and shared across the whole
    radius grid, so the fitted log-log slope reflects the truncation order
    rather than sampling noise.
    """
    objective = make_objective(config)
    spec = make_perturbation(config)
    estimator = config.get("estimator_kind", "hessian")
    k1 = int(config.get("k", config.get("k1", 1)))
    k2 = int(config["k2"]) if "k2" in config else None
    mode = config.get("mode", "residual")
    theta = np.asarray(config.get("theta", np.ones(objective.dim)), dtype=float)
    deltas = [float(d) for d in config.get("deltas", [0.4, 0.2, 0.1, 0.05])]
    samples = int(config.get("samples", 100_000))
    seed = int(config.get("seed", 0))

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    directions = spec.sample(rng, (samples, objective.dim))

    deviations = []
    for delta in deltas:
        if estimator == "gradient":
            dev = gradient_deviation(objective, theta, delta, k1, spec, directions, mode)
        elif estimator == "hessian":
            dev = hessian_deviation(
                objective, theta, delta, k1, k2, spec, directions, mode
            )
        else:
            raise ValueError(f"unknown estimator kind {estimator!r}")
        deviations.append(dev)

    return BiasSweepResult(
        estimator=estimator,
        k1=k1,
        k2=k1 if k2 is None else k2,
        mode=mode,
        deltas=deltas,
        deviations=deviations,
        slope=fit_loglog_slope(deltas, deviations),
    )


# --- config validation ----------------------------------------------------

def validate_config(config: dict) -> list[Finding]:
    """Schedule compliance, budget feasibility, and estimator-order checks.

    A null section counts as absent.  With a ``crzon`` section the order is
    ``crzon.k`` and the budget must cover one CRZON outer step (priced only
    for a known objective); otherwise the order is ``estimator.k`` and the
    budget must cover one Newton iteration.
    """
    findings = [
        replace(f, check=f"schedules.{f.check}")
        for f in validate_schedules(make_schedules(config))
    ]

    name = config.get("objective", "rastrigin")
    objective_known = name in _OBJECTIVES
    findings.append(
        Finding(
            "objective.known",
            "error",
            objective_known,
            f"objective must be one of {', '.join(_OBJECTIVES)}, got {name!r}",
        )
    )

    estimator = config.get("estimator") or {}
    crzon = config.get("crzon")
    k = int(crzon.get("k", 1) if crzon is not None else estimator.get("k", 1))
    findings.append(
        Finding(
            "estimator.order_supported",
            "error",
            1 <= k <= MAX_ORDER,
            f"truncation order k must be in 1..{MAX_ORDER}, got {k}",
        )
    )

    box = config.get("box") or {}
    lower = float(box.get("lower", -5.12))
    upper = float(box.get("upper", 5.12))
    findings.append(
        Finding(
            "box.nonempty",
            "error",
            lower < upper,
            f"projection box [{lower}, {upper}] must be nonempty",
        )
    )

    family = (config.get("perturb") or {}).get("family", "gaussian")
    findings.append(
        Finding(
            "perturb.family_known",
            "error",
            family in ("gaussian", "uniform"),
            f"perturbation family must be gaussian or uniform, got {family!r}",
        )
    )

    budget = config.get("budget")
    if budget is not None and 1 <= k <= MAX_ORDER and (crzon is None or objective_known):
        if crzon is not None:
            cost = build_cubic_config(config).step_cost()
        else:
            cost = iteration_cost(k, bool(estimator.get("reuse", True)))
        findings.append(
            Finding(
                "budget.covers_one_iteration",
                "error",
                int(budget) >= cost,
                f"budget {budget} vs per-iteration cost {cost}",
            )
        )

    sigma = (config.get("noise") or {}).get("sigma", 0.0)
    findings.append(
        Finding(
            "noise.sigma_nonnegative",
            "error",
            float(sigma) >= 0.0,
            f"noise sigma must be >= 0, got {sigma}",
        )
    )
    return findings


def has_errors(findings: list[Finding]) -> bool:
    return any((not f.ok) and f.severity == "error" for f in findings)


def failed_warnings(findings: list[Finding]) -> list[Finding]:
    return [f for f in findings if (not f.ok) and f.severity == "warning"]


# --- CSV writers ----------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_newton_csv(path: str, records: list[RunRecord]) -> None:
    """One row per run: seed, k, budget, iterations, error, evals."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["seed", "k", "budget", "iterations", "final_parameter_error", "evals_used"]
        )
        for rec in records:
            writer.writerow(
                [
                    rec.seed,
                    rec.k,
                    rec.budget,
                    rec.iterations,
                    _fmt(rec.final_parameter_error),
                    rec.evals_used,
                ]
            )


def write_crzon_csv(path: str, reports: list[cubic_mod.SospReport]) -> None:
    """One row per run with the random-iterate diagnostics."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "seed", "k", "epsilon", "N", "m", "b", "delta",
                "evals_used", "grad_norm_at_R", "lambda_min_at_R",
            ]
        )
        for rep in reports:
            writer.writerow(
                [
                    rep.seed,
                    rep.k,
                    _fmt(rep.epsilon),
                    rep.n_steps,
                    rep.m,
                    rep.b,
                    _fmt(rep.delta),
                    rep.evals_used,
                    _fmt(rep.grad_norm_at_r),
                    _fmt(rep.lambda_min_at_r),
                ]
            )


def write_table_csv(path: str, result: TableResult) -> None:
    """Per-run rows; wall-time sits in the last column so byte comparisons
    can strip it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "fingerprint", "method", "dim", "budget", "seed", "k",
                "iterations", "final_parameter_error", "evals_used",
                "status", "message", "wall_time_s",
            ]
        )
        for row in result.rows:
            writer.writerow(
                [
                    row.fingerprint,
                    row.method,
                    row.dim,
                    row.budget,
                    row.seed,
                    row.k,
                    row.iterations,
                    _fmt(row.final_parameter_error),
                    row.evals_used,
                    row.status,
                    row.message,
                    _fmt(row.wall_time_s),
                ]
            )


def write_summary_csv(path: str, result: TableResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "dim", "budget", "n_ok", "mean_error", "sd_error", "mean_evals"]
        )
        for cell in result.cells:
            writer.writerow(
                [
                    cell.method,
                    cell.dim,
                    cell.budget,
                    cell.n_ok,
                    _fmt(cell.mean_error),
                    _fmt(cell.sd_error),
                    _fmt(cell.mean_evals),
                ]
            )


def write_bias_sweep_csv(path: str, result: BiasSweepResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimator", "k1", "k2", "mode", "delta", "deviation", "slope"])
        for delta, dev in zip(result.deltas, result.deviations):
            writer.writerow(
                [
                    result.estimator,
                    result.k1,
                    result.k2,
                    result.mode,
                    _fmt(delta),
                    _fmt(dev),
                    _fmt(result.slope),
                ]
            )
