"""Experiment drivers: benchmark tables, order sweeps, config validation.

Configs are plain dicts (loaded from JSON files by the CLI); every run is
fully determined by the config plus a seed, and the CSV writers emit the
rows in a fixed order so identical inputs give identical files, the
wall-time column aside.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import inspect
import itertools
import json
import math
import re
import time
import typing
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, fields, replace

import numpy as np

from . import cubic as cubic_mod
from .estimators import _check_mode, fit_loglog_slope, gradient_deviation, hessian_deviation
from .newton import (
    Box,
    Finding,
    NewtonConfig,
    RunRecord,
    Schedules,
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
from .perturb import PerturbationSpec
from .stencils import _check_order

# matched whole, with no leading zero, so one method has one name
_METHOD_RE = re.compile(r"(G2|G)(SF|R)-([1-9]\d*)")


@dataclass(frozen=True)
class MethodSpec:
    """Algorithm, truncation order and direction family behind a method name.

    Names encode the per-iteration measurement count: ``GSF-5`` is the
    gradient-only scheme with k=4 (5 measurements), ``G2SF-3``/``G2SF-9``
    are the Newton scheme with k=1/k=4 (3/9 measurements), and the ``R``
    variants swap Gaussian directions for uniform ones.
    """

    name: str
    algorithm: str  # "newton" | "gradient_only"
    k: int
    family: str  # "gaussian" | "uniform"


def method_spec(name: str) -> MethodSpec:
    match = _METHOD_RE.fullmatch(name)
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


def _plain(value):
    """A numpy scalar or array as the plain JSON value it holds."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def config_fingerprint(config: dict) -> str:
    """Stable digest of a config dict (key order independent); a numpy value
    digests as its plain-JSON twin."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# --- config schema --------------------------------------------------------

def _convert(path: str, kind: Callable, value):
    """``value`` of the key ``path`` as ``kind``, neither rounded (an int takes
    ``1e4`` but not 2.7), read for its truth (a bool takes only a boolean) nor
    parsed (a float takes only a number, a str only a string); ``list[kind]``
    takes only a non-empty list (or array) and converts each item.  A value
    that does not fit names ``path``."""
    if typing.get_origin(kind) is list:
        if not (isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim):
            raise ValueError(f"{path} must be a list, got {value!r}")
        if len(value) == 0:
            raise ValueError(f"{path} must not be empty")
        return [_convert(f"{path}[{i}]", typing.get_args(kind)[0], v) for i, v in enumerate(value)]
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, float) and value.is_integer()
    )
    if kind is int and (isinstance(value, bool) or not integral):
        raise ValueError(f"{path} must be an integer, got {value!r}")
    number = isinstance(value, (int, float, np.integer, np.floating))
    if kind is float and (isinstance(value, bool) or not number):
        raise ValueError(f"{path} must be a number, got {value!r}")
    if kind is bool and not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{path} must be true or false, got {value!r}")
    if kind is str and not isinstance(value, str):
        raise ValueError(f"{path} must be a string, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class Key:
    """One known config key: how its value is read and what it sets.

    A key with ``targets`` sets their parameter ``field`` (the key's last
    part unless named) and takes its default from the first target.  Only
    a key with no target carries a ``default`` of its own.
    """

    kind: Callable
    targets: tuple = ()
    field: str = ""
    default: object = None


#: the parameters of one run, Newton or CRZON (``from_epsilon`` passes them on)
_RUN = (NewtonConfig, cubic_mod.CubicConfig, cubic_mod.from_epsilon)

#: every known config key, by dotted path
KEYS = {
    path: replace(key, field=key.field or path.rpartition(".")[2])
    for path, key in {
        # the problem
        "objective": Key(str, default="rastrigin"),
        "dim": Key(int, default=2),
        "quadratic.diag": Key(list[float]),
        "quadratic.matrix": Key(list[list[float]]),
        "quadratic.b": Key(list[float]),
        "noise.sigma": Key(float, default=0.0),
        "perturb.family": Key(str, default="gaussian"),
        "perturb.eta": Key(float, (PerturbationSpec,)),
        # one run
        "budget": Key(int, _RUN),
        "seed_base": Key(int, _RUN, "seed"),
        "theta0": Key(list[float], _RUN),
        "estimator.reuse": Key(bool, (cubic_mod.CubicConfig, cubic_mod.from_epsilon)),
        "estimator.paper_literal_scaling": Key(bool, (PerturbationSpec,)),
        "estimator.k": Key(int, (NewtonConfig,)),
        "eps_pd": Key(float, (NewtonConfig,)),
        "algorithm": Key(str, (NewtonConfig,)),
        "schedules.a0": Key(float, (Schedules,)),
        "schedules.A": Key(float, (Schedules,), "big_a"),
        "schedules.alpha": Key(float, (Schedules,)),
        "schedules.b0": Key(float, (Schedules,)),
        "schedules.B": Key(float, (Schedules,), "big_b"),
        "schedules.beta": Key(float, (Schedules,)),
        "schedules.delta0": Key(float, (Schedules,)),
        "schedules.gamma": Key(float, (Schedules,)),
        "box.lower": Key(float, (Box,)),
        "box.upper": Key(float, (Box,)),
        "crzon.k": Key(int, (cubic_mod.CubicConfig, cubic_mod.from_epsilon)),
        "crzon.N": Key(int, (cubic_mod.CubicConfig,), "n_steps"),
        "crzon.m": Key(int, (cubic_mod.CubicConfig,)),
        "crzon.b": Key(int, (cubic_mod.CubicConfig,)),
        "crzon.delta": Key(float, (cubic_mod.CubicConfig,)),
        "crzon.alpha": Key(float, (cubic_mod.CubicConfig, cubic_mod.from_epsilon)),
        "crzon.epsilon": Key(float, (cubic_mod.from_epsilon,)),
        "crzon.n_prefactor": Key(float, (cubic_mod.from_epsilon,)),
        "crzon.m_prefactor": Key(float, (cubic_mod.from_epsilon,)),
        "crzon.b_prefactor": Key(float, (cubic_mod.from_epsilon,)),
        "crzon.delta_prefactor": Key(float, (cubic_mod.from_epsilon,)),
        # run_table, so Newton runs only; methods default to the one that algorithm,
        # estimator.k and perturb.family name, dims and budgets to [dim] and [budget]
        "methods": Key(list[str]),
        "dims": Key(list[int]),
        "budgets": Key(list[int]),
        # how many runs newton run, crzon run and each table cell make
        "seeds": Key(int, default=1),
        # run_bias_sweep; k is another name for k1, and k2 defaults to k1
        "estimator_kind": Key(str, default="hessian"),
        "k": Key(int),
        "k1": Key(int, default=1),
        "k2": Key(int),
        "mode": Key(str, default="residual"),
        "theta": Key(list[float]),
        "deltas": Key(list[float], default=(0.4, 0.2, 0.1, 0.05)),
        "samples": Key(int, default=100_000),
    }.items()
}

_SECTIONS = {path.rpartition(".")[0] for path in KEYS} - {""}
#: the keys only Newton runs read, so a ``crzon`` section, which runs CRZON, rejects them
_NEWTON_ONLY = [path for path, key in KEYS.items() if path in ("methods", "dims", "budgets")
                or key.targets and set(key.targets) <= {NewtonConfig, Schedules, Box}]
#: the keys only CRZON runs read, so a Newton build rejects them
_CRZON_ONLY = [path for path, key in KEYS.items() if key.targets
               and set(key.targets) <= {cubic_mod.CubicConfig, cubic_mod.from_epsilon}]


@functools.cache
def _parameters(target) -> Mapping[str, inspect.Parameter]:
    return inspect.signature(target).parameters


def _lookup(config: dict, path: str):
    """The raw value at dotted ``path``, unconverted; a null section or value
    is None.  A section on the way that is not an object raises
    ``ValueError`` naming it, as :func:`_check_keys` does."""
    node, section = config, "config"
    for name in path.split("."):
        if node is None:
            return None
        if not isinstance(node, dict):
            raise ValueError(f"{section} must be an object, got {node!r}")
        node, section = node.get(name), name
    return node


def setting(config: dict, path: str, default=None):
    """The known key ``path`` of ``config``, converted to its type.

    An absent key gives ``default`` if one is passed, else the key's own
    default: the table's, or that of the parameter it sets in its first
    target (None for a required parameter).
    """
    key = KEYS[path]
    value = _lookup(config, path)
    if value is None:
        value = _default(key) if default is None else default
    return None if value is None else _convert(path, key.kind, value)


def _default(key: Key):
    if not key.targets:
        return key.default
    param = _parameters(key.targets[0])[key.field]
    return None if param.default is param.empty else param.default


def _arguments(config: dict, target, **given) -> dict:
    """Keyword arguments for ``target``: the keys ``config`` sets, then ``given``.

    Absent keys are left out, so ``target`` applies its own defaults.  A
    ``given`` value of None is skipped.
    """
    kwargs = {}
    for path, key in KEYS.items():
        if target in key.targets:
            value = _lookup(config, path)
            if value is not None:
                kwargs[key.field] = _convert(path, key.kind, value)
    kwargs.update((name, value) for name, value in given.items() if value is not None)
    return kwargs


def _check_keys(config: dict, prefix: str = "") -> None:
    """Raise ``ValueError`` naming the first path of ``config`` no builder can
    read: one not in :data:`KEYS` or a name with a dot, a set section that is
    not an object, or a set value that does not fit its key's kind.  Every
    command runs this before its first evaluation, so a config's shape fails
    them all alike; range rules stay with the builders."""
    if not isinstance(config, dict):  # a null top level included: it is no section
        raise ValueError(f"{prefix[:-1] or 'config'} must be an object, got {config!r}")
    for name, value in config.items():
        path = prefix + name
        if path in _SECTIONS:
            if value is not None:
                _check_keys(value, path + ".")
        elif path not in KEYS or "." in name:
            raise ValueError(f"unknown key {path!r}")
        elif value is not None:
            _convert(path, KEYS[path].kind, value)


# --- config assembly ------------------------------------------------------

def _quadratic_objective(config: dict, dim: int) -> Objective:
    a = setting(config, "quadratic.matrix")
    if a is None:
        a = np.diag(setting(config, "quadratic.diag", np.ones(dim)))
    elif _lookup(config, "quadratic.diag") is not None:
        raise ValueError("quadratic.diag cannot be set with quadratic.matrix")
    elif any(len(row) != len(a) for row in a):
        raise ValueError(f"quadratic.matrix must be square, got {a}")
    return quadratic(a, setting(config, "quadratic.b"))


#: objective name -> factory(config, dim)
_OBJECTIVES = {
    "rastrigin": lambda config, dim: rastrigin(dim),
    "quadratic": _quadratic_objective,
    "saddle": lambda config, dim: saddle_quartic(),
    "quartic": lambda config, dim: quartic(dim),
    "exp_sin": lambda config, dim: exp_sin(),
}


def make_objective(config: dict) -> Objective:
    """The objective named by ``objective``, which must be ``dim``-dimensional;
    only the quadratic reads a ``quadratic`` section; a config
    :func:`_check_keys` rejects is an error."""
    _check_keys(config)
    name = setting(config, "objective")
    if name not in _OBJECTIVES:
        raise ValueError(f"unknown objective {name!r} (one of {', '.join(_OBJECTIVES)})")
    if name != "quadratic" and _lookup(config, "quadratic") is not None:
        raise ValueError(f"quadratic is read only by objective 'quadratic', got {name!r}")
    dim = setting(config, "dim")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    objective = _OBJECTIVES[name](config, dim)
    if objective.dim != dim:
        raise ValueError(f"objective {name!r} is {objective.dim}-dimensional, but dim is {dim}")
    return objective


def make_noise(config: dict) -> LinearGaussianNoise | None:
    sigma = setting(config, "noise.sigma")
    return None if sigma == 0.0 else LinearGaussianNoise(sigma)


def make_perturbation(config: dict) -> PerturbationSpec:
    family = setting(config, "perturb.family")
    return PerturbationSpec(family, **_arguments(config, PerturbationSpec))


def make_schedules(config: dict) -> Schedules:
    return Schedules(**_arguments(config, Schedules))


def make_box(config: dict) -> Box:
    return Box(**_arguments(config, Box))


def _reject_unread(config: dict, paths: list[str], reason: str) -> None:
    for path in paths:
        if _lookup(config, path) is not None:
            raise ValueError(f"{path} is read only by {reason}")


def build_newton_config(config: dict, seed: int | None = None) -> NewtonConfig:
    _reject_unread(config, _CRZON_ONLY,
                   "CRZON runs, and a config without a crzon section runs Newton")
    return NewtonConfig(
        objective=make_objective(config),
        noise=make_noise(config),
        perturbation=make_perturbation(config),
        schedules=make_schedules(config),
        box=make_box(config),
        **_arguments(config, NewtonConfig, seed=seed),
    )


def build_cubic_config(config: dict, seed: int | None = None) -> cubic_mod.CubicConfig:
    """A :class:`~grdsa.cubic.CubicConfig`, sized by ``from_epsilon`` when
    ``crzon.epsilon`` is set; a size set beside it, or a Newton-only key, is an error."""
    _reject_unread(config, _NEWTON_ONLY, "Newton runs, and a crzon section runs CRZON")
    build = cubic_mod.CubicConfig
    if setting(config, "crzon.epsilon") is not None:
        build = cubic_mod.from_epsilon
        for path in ("crzon.N", "crzon.m", "crzon.b", "crzon.delta"):
            if _lookup(config, path) is not None:
                raise ValueError(f"{path} cannot be set with crzon.epsilon, which sizes the run")
    return build(
        objective=make_objective(config),
        noise=make_noise(config),
        perturbation=make_perturbation(config),
        **_arguments(config, build, seed=seed),
    )


def seed_range(config: dict) -> range:
    """The seeds of a config's runs: ``seeds`` of them, from ``seed_base``."""
    count = setting(config, "seeds")
    if count < 1:
        raise ValueError(f"seeds must be >= 1, got {count}")
    start = setting(config, "seed_base")
    return range(start, start + count)


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


_METHOD_KEYS = ("algorithm", "estimator.k", "perturb.family")  # a method name sets these


def _config_method(config: dict) -> MethodSpec:
    """The method that the ``_METHOD_KEYS`` of ``config`` name; its builds check them."""
    algorithm, k, family = (setting(config, path) for path in _METHOD_KEYS)
    order, count = ("G2", 2 * k + 1) if algorithm == "newton" else ("G", k + 1)
    name = f"{order}{'SF' if family == 'gaussian' else 'R'}-{count}"
    return MethodSpec(name, algorithm, k, family)


def table_cells(config: dict) -> Iterator[tuple[MethodSpec, dict]]:
    """Each method x dim x budget cell of a table, with the config its runs
    build from.  Unset ``methods`` is the one method that the ``_METHOD_KEYS``
    name; setting both, a key :func:`_check_keys` rejects, or a method, dim
    or budget listed twice is an error."""
    _check_keys(config)
    listed = setting(config, "methods")
    for path in _METHOD_KEYS if listed else ():
        if _lookup(config, path) is not None:
            raise ValueError(f"{path} cannot be set with methods, whose names set it")
    methods = [method_spec(name) for name in listed] if listed else [_config_method(config)]
    dims = setting(config, "dims", [setting(config, "dim")])
    budgets = setting(config, "budgets", [setting(config, "budget")])
    names = [method.name for method in methods]
    for key, values in (("methods", names), ("dims", dims), ("budgets", budgets)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"{key} lists {value!r} more than once")
    for method, dim, budget in itertools.product(methods, dims, budgets):
        sub = dict(config, dim=dim, budget=budget, algorithm=method.algorithm)
        sub["estimator"] = dict(_lookup(config, "estimator") or {}, k=method.k)
        sub["perturb"] = dict(_lookup(config, "perturb") or {}, family=method.family)
        yield method, sub


def run_table(config: dict) -> TableResult:
    """Run every method x dim x budget x seed cell; failures don't abort.

    A row reads only a run's endpoints, as :func:`run_newton` keeps them, so
    a run holds one block of draws, whatever its budget.
    """
    fingerprint = config_fingerprint(config)
    seeds = seed_range(config)
    rows: list[TableRow] = []
    for (method, sub), seed in itertools.product(table_cells(config), seeds):
        dim, budget = sub["dim"], sub["budget"]
        start = time.perf_counter()
        try:
            record = run_newton(build_newton_config(sub, seed=seed))
            outcome = dict(
                iterations=record.iterations,
                final_parameter_error=record.final_parameter_error,
                evals_used=record.evals_used,
                status="ok",
                message="",
                wall_time_s=record.wall_time_s,
            )
        except Exception as exc:  # mark the cell, keep sweeping
            outcome = dict(
                iterations=0,
                final_parameter_error=None,
                evals_used=0,
                status="error",
                message=f"{type(exc).__name__}: {exc}",
                wall_time_s=time.perf_counter() - start,
            )
        rows.append(TableRow(fingerprint, method.name, dim, budget, seed, method.k, **outcome))
    return TableResult(rows=rows, cells=aggregate_rows(rows))


def aggregate_rows(rows: list[TableRow]) -> list[TableCell]:
    """Per table cell: its ok runs, and the mean and sample standard
    deviation (ddof=1) of those runs' parameter errors."""
    groups: dict[tuple[str, int, int], list[TableRow]] = {}
    for row in rows:
        groups.setdefault((row.method, row.dim, row.budget), []).append(row)
    cells: list[TableCell] = []
    for (method, dim, budget), group in groups.items():
        ok = [r for r in group if r.status == "ok"]
        errs = [r.final_parameter_error for r in ok if r.final_parameter_error is not None]
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
                n_ok=len(ok),
                mean_error=mean,
                sd_error=sd,
                mean_evals=float(np.mean([r.evals_used for r in ok])) if ok else float("nan"),
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


def bias_sweep_settings(config: dict) -> tuple[str, int, int, str, list[float], int]:
    """The settings :func:`run_bias_sweep` reads, checked, as ``(estimator,
    k1, k2, mode, deltas, samples)``: a known ``estimator_kind`` and ``mode``,
    supported orders (``k`` is another name for ``k1``, so only one of the
    two may be set; ``k2`` defaults to ``k1``),
    at least two distinct positive finite ``deltas`` (a slope needs two
    radii), at least one sample and a finite ``theta`` of the objective's
    shape."""
    estimator = setting(config, "estimator_kind")
    if estimator not in ("gradient", "hessian"):
        raise ValueError(f"estimator_kind must be one of gradient, hessian, got {estimator!r}")
    mode = setting(config, "mode")
    _check_mode(mode)
    order = "k" if _lookup(config, "k") is not None else "k1"
    if order == "k" and _lookup(config, "k1") is not None:
        raise ValueError("k cannot be set with k1")
    k1 = setting(config, order)
    _check_order(k1, order)
    k2 = setting(config, "k2", k1)
    _check_order(k2, "k2")
    deltas = setting(config, "deltas")
    if not all(delta > 0 for delta in deltas):
        raise ValueError(f"deltas must be > 0, got {deltas}")
    if not all(math.isfinite(delta) for delta in deltas):
        raise ValueError(f"deltas must be finite, got {deltas}")
    if len(set(deltas)) < 2:
        raise ValueError(f"deltas must hold at least two distinct radii, got {deltas}")
    samples = setting(config, "samples")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    theta = setting(config, "theta")
    if theta is not None:
        if not np.isfinite(theta).all():
            raise ValueError(f"theta must be finite, got {theta}")
        dim = make_objective(config).dim
        if np.shape(theta) != (dim,):
            raise ValueError(f"theta must have shape ({dim},), got {np.shape(theta)}")
    return estimator, k1, k2, mode, deltas, samples


def run_bias_sweep(config: dict) -> BiasSweepResult:
    """Deviation-vs-radius sweep with common random directions.

    One direction matrix is drawn up front and shared across the whole
    radius grid, so the fitted log-log slope reflects the truncation order
    rather than sampling noise.
    """
    estimator, k1, k2, mode, deltas, samples = bias_sweep_settings(config)
    objective = make_objective(config)
    spec = make_perturbation(config)
    theta = setting(config, "theta", np.ones(objective.dim))
    seed = setting(config, "seed_base")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    directions = spec.sample(rng, (samples, objective.dim))

    deviations = []
    for delta in deltas:
        if estimator == "gradient":
            dev = gradient_deviation(objective, theta, delta, k1, spec, directions, mode)
        else:
            dev = hessian_deviation(objective, theta, delta, k1, k2, spec, directions, mode)
        deviations.append(dev)

    return BiasSweepResult(
        estimator=estimator,
        k1=k1,
        k2=k2,
        mode=mode,
        deltas=deltas,
        deviations=deviations,
        slope=fit_loglog_slope(deltas, deviations),
    )


# --- config validation ----------------------------------------------------

def _build_runs(config: dict, solver: str | None = None) -> list:
    """The configs of every run of ``config``, built as every command builds
    them before its first evaluation: the keys, the bias sweep's settings and
    the seeds are checked first, then the CRZON config and its regularizer
    are built, or without a ``crzon`` section every table cell's config; only
    then must a set ``solver``, ``"newton"`` or ``"crzon"``, be the config's."""
    _check_keys(config)
    bias_sweep_settings(config)
    seed_range(config)
    if crzon := (_lookup(config, "crzon") is not None):
        runs = [build_cubic_config(config)]
        runs[0].alpha_value()
    else:
        runs = [build_newton_config(cell) for _, cell in table_cells(config)]
    if solver not in (None, "crzon" if crzon else "newton"):
        message = "crzon is read only by crzon run" if crzon else "crzon run needs a crzon section"
        raise ValueError(message)
    return runs


def validate_config(config: dict) -> list[Finding]:
    """One ``run.builds`` finding, failing with the first message
    :func:`_build_runs` raises, which every command raises too; when Newton
    runs build, the asymptotic warnings on the first one's schedules."""
    try:
        runs, problem = _build_runs(config), ""
    except (ValueError, TypeError, ArithmeticError) as exc:
        runs, problem = [], str(exc)
    findings = [Finding("run.builds", "error", not problem, problem or "builds")]
    if runs and isinstance(runs[0], NewtonConfig):
        findings += [
            replace(f, check=f"schedules.{f.check}") for f in validate_schedules(runs[0].schedules)
        ]
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


def _write_csv(path: str, header: list[str], rows) -> None:
    """``header``, then one line per row of values, formatted by :func:`_fmt`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in row] for row in rows)


def _columns(items, names: list[str]):
    """Rows of the attributes ``names`` of each item."""
    return ([getattr(item, name) for name in names] for item in items)


def write_newton_csv(path: str, records: list[RunRecord]) -> None:
    """One row per run: seed, k, budget, iterations, error, evals."""
    names = ["seed", "k", "budget", "iterations", "final_parameter_error", "evals_used"]
    _write_csv(path, names, _columns(records, names))


def write_crzon_csv(path: str, reports: list[cubic_mod.SospReport]) -> None:
    """One row per run with the random-iterate diagnostics."""
    header = [
        "seed", "k", "epsilon", "N", "m", "b", "delta",
        "evals_used", "grad_norm_at_R", "lambda_min_at_R",
    ]
    names = [
        "seed", "k", "epsilon", "n_steps", "m", "b", "delta",
        "evals_used", "grad_norm_at_r", "lambda_min_at_r",
    ]
    _write_csv(path, header, _columns(reports, names))


def write_table_csv(path: str, result: TableResult) -> None:
    """Per-run rows; wall-time sits in the last column so byte comparisons
    can strip it."""
    names = [f.name for f in fields(TableRow)]
    _write_csv(path, names, _columns(result.rows, names))


def write_summary_csv(path: str, result: TableResult) -> None:
    names = [f.name for f in fields(TableCell)]
    _write_csv(path, names, _columns(result.cells, names))


def write_bias_sweep_csv(path: str, result: BiasSweepResult) -> None:
    _write_csv(
        path,
        ["estimator", "k1", "k2", "mode", "delta", "deviation", "slope"],
        (
            [result.estimator, result.k1, result.k2, result.mode, delta, dev, result.slope]
            for delta, dev in zip(result.deltas, result.deviations)
        ),
    )
