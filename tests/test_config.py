"""The config schema: one table of keys, their types, targets and defaults.

Every key of ``harness.KEYS`` that sets a dataclass field is checked both
ways: a set value reaches the field unchanged, and an absent key (or a null
section) leaves the dataclass default.  ``validate_config`` must report,
never raise, on any config drawn from the table; every run of a config it
passes must build; and it must warn on keys the table does not know, but
not on the configs this repository ships.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grdsa import cubic
from grdsa.harness import (
    KEYS,
    build_cubic_config,
    build_newton_config,
    has_errors,
    make_box,
    make_perturbation,
    make_schedules,
    setting,
    table_cells,
    validate_config,
)
from grdsa.newton import Box, NewtonConfig, Schedules
from grdsa.perturb import PerturbationSpec
from grdsa.stencils import MAX_ORDER

ROOT = Path(__file__).resolve().parents[1]

#: target -> the harness builder that makes it from a config
BUILDERS = {
    Schedules: make_schedules,
    Box: make_box,
    NewtonConfig: build_newton_config,
    cubic.CubicConfig: build_cubic_config,
    cubic.from_epsilon: build_cubic_config,
    PerturbationSpec: make_perturbation,
}

#: target -> the config that makes its builder reach it
BASES = {
    NewtonConfig: {"budget": 100},
    cubic.from_epsilon: {"crzon": {"epsilon": 0.5}},
    PerturbationSpec: {"perturb": {"family": "uniform"}},
}

#: values the builders accept, where the key's type alone allows bad ones
VALID = {
    "box.lower": st.floats(-100.0, 5.0),
    "box.upper": st.floats(-5.0, 100.0),
    "crzon.k": st.integers(1, MAX_ORDER),
    "estimator.k": st.integers(1, MAX_ORDER),
    "crzon.epsilon": st.floats(0.05, 0.95),
    "perturb.eta": st.floats(0.01, 10.0),
    "theta0": st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
}
VALID_BY_KIND = {
    int: st.integers(1, 10_000),
    float: st.floats(0.01, 100.0),
    bool: st.booleans(),
}

TARGETED = [(path, target) for path, key in KEYS.items() for target in key.targets]
#: run configs that take the spec's switch through their ``perturbation``
THROUGH_SPEC = [
    ("estimator.paper_literal_scaling", target)
    for target in (NewtonConfig, cubic.CubicConfig, cubic.from_epsilon)
]
DATACLASS_TARGETED = [
    (path, target) for path, target in TARGETED if dataclasses.is_dataclass(target)
]
SECTIONS = sorted({path.rpartition(".")[0] for path in KEYS} - {""})


def _id(case) -> str:
    path, target = case
    return f"{path}->{target.__name__}"


def with_key(config: dict, path: str, value) -> dict:
    """A copy of ``config`` with dotted ``path`` set to ``value``."""
    *sections, name = path.split(".")
    out = copy.deepcopy(config)
    node = out
    for section in sections:
        node = node.setdefault(section, {})
    node[name] = value
    return out


class TestRoundTrip:
    @pytest.mark.parametrize("case", TARGETED + THROUGH_SPEC, ids=_id)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_value_reaches_its_field(self, case, data):
        path, target = case
        key = KEYS[path]
        value = data.draw(VALID[path] if path in VALID else VALID_BY_KIND[key.kind])
        built = BUILDERS[target](with_key(BASES.get(target, {}), path, value))
        if (path, target) in THROUGH_SPEC:
            built = built.perturbation
        if key.field.endswith("_prefactor"):
            # a prefactor is not kept; it sizes the run
            want = cubic.from_epsilon(built.objective, 0.5, **{key.field: value})
            assert (built.n_steps, built.m, built.b, built.delta) == (
                want.n_steps, want.m, want.b, want.delta
            )
        else:
            assert np.array_equal(getattr(built, key.field), value)

    @pytest.mark.parametrize("case", DATACLASS_TARGETED, ids=_id)
    def test_absent_key_gives_the_dataclass_default(self, case):
        path, target = case
        key = KEYS[path]
        default = {f.name: f.default for f in dataclasses.fields(target)}[key.field]
        base = {name: v for name, v in BASES.get(target, {}).items() if name != path}
        absent = [base, with_key(base, path, None)]
        section = path.rpartition(".")[0]
        if section:
            absent.append(dict(base, **{section: None}))
        for config in absent:
            if default is dataclasses.MISSING:
                with pytest.raises(KeyError, match=path):
                    BUILDERS[target](config)
            else:
                assert getattr(BUILDERS[target](config), key.field) == default

    def test_reuse_keeps_its_two_defaults(self):
        assert build_newton_config({"budget": 100}).reuse is True
        assert build_cubic_config({}).reuse is False

    def test_table_is_consistent(self):
        # a key with a target takes its default from it, so carries none;
        # every target takes the key's field, directly or (from_epsilon)
        # through to CubicConfig
        cubic_fields = {f.name for f in dataclasses.fields(cubic.CubicConfig)}
        for path, key in KEYS.items():
            if key.targets:
                assert key.default is None, path
            for target in key.targets:
                params = inspect.signature(target).parameters
                assert key.field in params or key.field in cubic_fields, path
            setting({}, path)  # every default can be read


# --- validate_config never raises -----------------------------------------

_FLOATS = st.floats(-10.0, 10.0)
#: broad values per key: right type, but often out of range
BROAD = {
    "objective": st.sampled_from(["rastrigin", "quadratic", "saddle", "quartic", "exp_sin", "x"]),
    "perturb.family": st.sampled_from(["gaussian", "uniform", "levy"]),
    "algorithm": st.sampled_from(["newton", "gradient_only", "gradient-only"]),
    "methods": st.lists(st.sampled_from(["G2SF-3", "GSF-5", "G2SF-4"]), max_size=3),
    "dims": st.lists(st.integers(-2, 12), max_size=3),
    "budgets": st.lists(st.integers(-2, 10_000), max_size=3),
    "deltas": st.lists(_FLOATS, max_size=4),
    "quadratic.matrix": st.lists(st.lists(_FLOATS, max_size=3), max_size=3),
}
BROAD_BY_KIND = {
    int: st.integers(-3, 12),
    float: _FLOATS,
    bool: st.booleans(),
    str: st.text(max_size=6),
}


def _broad(path: str):
    if path in BROAD:
        return BROAD[path]
    if KEYS[path].kind in BROAD_BY_KIND:
        return BROAD_BY_KIND[KEYS[path].kind]
    return st.lists(_FLOATS, max_size=4)  # the float arrays


@st.composite
def drawn_configs(draw):
    flat = draw(st.fixed_dictionaries({}, optional={path: _broad(path) for path in KEYS}))
    config: dict = {}
    for path, value in flat.items():
        config = with_key(config, path, value)
    for section in draw(st.sets(st.sampled_from(SECTIONS))):
        config[section] = None
    return config


class TestValidateNeverRaises:
    @settings(max_examples=300, deadline=None)
    @given(config=drawn_configs())
    def test_drawn_configs(self, config):
        findings = validate_config(config)
        assert not any(f.check == "config.unknown_key" for f in findings)

    @settings(max_examples=300, deadline=None)
    @given(config=drawn_configs())
    def test_clean_configs_build(self, config):
        # what the validator passes, the runs can build
        if has_errors(validate_config(config)):
            return
        if config.get("crzon") is not None:
            build_cubic_config(config)
            return
        for _, cell in table_cells(config):
            build_newton_config(cell)
        if setting(config, "budget") is not None:
            build_newton_config(config)

    @pytest.mark.parametrize(
        "config,check,cause",
        [
            ({"crzon": {"epsilon": 2.0}}, "run.builds", "epsilon must be in (0, 1)"),
            ({"crzon": {"epsilon": 1e-300}}, "run.builds", "out of range"),
            ({"crzon": {"epsilon": 0.5, "n_prefactor": 1e308}}, "run.builds", "infinity"),
            (
                {"crzon": {}, "perturb": {"family": "levy"}},
                "perturb.family_known",
                "unknown perturbation family",
            ),
            (
                {"crzon": {}, "noise": {"sigma": -1.0}},
                "noise.sigma_nonnegative",
                "sigma must be >= 0",
            ),
        ],
    )
    def test_unsizable_crzon_step_is_an_error(self, config, check, cause):
        findings = validate_config(dict(config, budget=100))
        finding = next(f for f in findings if f.check == check)
        assert not finding.ok and cause in finding.message
        assert has_errors(findings)


# --- unknown keys ---------------------------------------------------------

class TestUnknownKeys:
    @pytest.mark.parametrize(
        "config,path",
        [
            ({"schedule": {"a0": -1}}, "schedule"),
            ({"estimator": {"K": 3}}, "estimator.K"),
            ({"crzon": {"n": 3}}, "crzon.n"),
            ({"noise": {"sigma": 0.1, "mu": 1}}, "noise.mu"),
            ({"Budget": 100}, "Budget"),
        ],
    )
    def test_warned_by_path(self, config, path):
        findings = validate_config(config)
        unknown = [f for f in findings if f.check == "config.unknown_key"]
        assert len(unknown) == 1
        assert unknown[0].severity == "warning" and not unknown[0].ok
        assert repr(path) in unknown[0].message
        assert not has_errors(findings)
        assert len(findings) == len(validate_config({})) + 1

    def test_null_section_is_known(self):
        config = {section: None for section in SECTIONS}
        assert not any(f.check == "config.unknown_key" for f in validate_config(config))


def _literal(node: ast.AST):
    """A dict literal as a dict; values that are not literals become None."""
    if isinstance(node, ast.Dict):
        return {ast.literal_eval(k): _literal(v) for k, v in zip(node.keys, node.values)}
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def _config_literals(path: Path, function: str | None = None) -> list[dict]:
    """The dict literals passed to ``run_table`` / ``run_bias_sweep`` or bound
    to ``config`` in a module (or in one of its functions)."""
    tree = ast.parse(path.read_text())
    if function is not None:
        tree = next(
            n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == function
        )
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") in (
            "run_table", "run_bias_sweep"
        ):
            found += [_literal(a) for a in node.args if isinstance(a, ast.Dict)]
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            if any(getattr(t, "id", "") == "config" for t in node.targets):
                found.append(_literal(node.value))
    return found


def _readme_configs() -> list[dict]:
    text = (ROOT / "README.md").read_text()
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", text, re.S)]


REPO_CONFIGS = {
    "README": _readme_configs(),
    "acceptance-06": _config_literals(
        ROOT / "tests" / "test_acceptance.py", "test_06_rastrigin_benchmark_ordering"
    ),
    "demo-03": _config_literals(ROOT / "demos" / "03_bias_order_sweep.py"),
    "demo-04": _config_literals(ROOT / "demos" / "04_newton_benchmark.py"),
}


@pytest.mark.parametrize("name", REPO_CONFIGS)
def test_repo_configs_have_no_unknown_keys(name):
    configs = REPO_CONFIGS[name]
    assert configs, f"no config found in {name}"
    for config in configs:
        unknown = [f.message for f in validate_config(config) if f.check == "config.unknown_key"]
        assert unknown == []
