"""The config schema: one table of keys, their types, targets and defaults.

Every key of ``harness.KEYS`` that sets a dataclass field is checked both
ways: a set value reaches the field unchanged, and an absent key (or a null
section) leaves the dataclass default.  ``validate_config`` must report,
never raise, on any config drawn from the table; every run of a config it
passes must build; and a key the table does not know fails the config,
while the configs this repository and its benchmark ship hold none.
"""

from __future__ import annotations

import ast
import contextlib
import copy
import dataclasses
import importlib.util
import inspect
import io
import json
import re
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grdsa import cli, cubic, harness
from grdsa.cli import build_parser, main
from grdsa.harness import (
    KEYS,
    _check_keys,
    bias_sweep_settings,
    build_cubic_config,
    build_newton_config,
    has_errors,
    make_box,
    make_objective,
    make_perturbation,
    make_schedules,
    run_bias_sweep,
    seed_range,
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
    cubic.from_epsilon: {"crzon": {"epsilon": 0.5}},
    PerturbationSpec: {"perturb": {"family": "uniform"}},
}

#: values the builders accept, where the key's type alone allows bad ones
VALID = {
    "algorithm": st.sampled_from(["newton", "gradient_only"]),
    "budget": st.integers(1600, 10_000),  # one default CRZON step costs 1600
    "box.lower": st.floats(-100.0, 5.0),
    "box.upper": st.floats(-5.0, 100.0),
    "crzon.k": st.integers(1, MAX_ORDER),
    "estimator.k": st.integers(1, MAX_ORDER),
    "crzon.epsilon": st.floats(0.05, 0.95),
    "perturb.eta": st.floats(0.01, 10.0),
    # away from the default objective's optimum at the origin
    "theta0": st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2).filter(
        lambda v: sum(x * x for x in v) > 0
    ),
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
            assert getattr(BUILDERS[target](config), key.field) == default

    @pytest.mark.parametrize("path", ["crzon.N", "crzon.m", "crzon.b", "crzon.delta"])
    def test_epsilon_sizes_cannot_be_set_with_it(self, path):
        config = with_key({"crzon": {"epsilon": 0.5}}, path, 3)
        message = f"^{path} cannot be set with crzon.epsilon, which sizes the run$"
        with pytest.raises(ValueError, match=message):
            build_cubic_config(config)

    def test_reuse_is_crzons_and_defaults_to_false(self):
        # a Newton iteration always reuses its measurements, so a Newton build rejects the key
        assert build_cubic_config({}).reuse is False
        message = (
            "^estimator.reuse is read only by CRZON runs, and a config without a crzon section "
            "runs Newton$"
        )
        for reuse in (True, False):
            with pytest.raises(ValueError, match=message):
                build_newton_config({"budget": 100, "estimator": {"reuse": reuse}})

    def test_integral_floats_read_as_ints(self):
        # JSON writes 1e4 as a float; it is still the integer 10000
        assert build_newton_config({"budget": 1e4}).budget == 10000
        assert setting({"dims": [5.0]}, "dims") == [5]

    @pytest.mark.parametrize(
        "path,value,message",
        [
            ("budget", 999.9, "budget must be an integer, got 999.9"),
            ("budget", True, "budget must be an integer, got True"),
            ("estimator.k", "2", "estimator.k must be an integer, got '2'"),
            ("estimator.reuse", "false", "estimator.reuse must be true or false, got 'false'"),
            ("estimator.reuse", 0, "estimator.reuse must be true or false, got 0"),
            ("dims", [2, 5.9], r"dims\[1\] must be an integer, got 5.9"),
            ("methods", "G2SF-3", "methods must be a list, got 'G2SF-3'"),
            # the array keys are lists of numbers: nothing parsed, nothing
            # read as a number that is not one
            ("theta0", "ab", "theta0 must be a list, got 'ab'"),
            ("theta0", "12", "theta0 must be a list, got '12'"),
            ("theta0", True, "theta0 must be a list, got True"),
            ("theta0", [1.0, "a"], r"theta0\[1\] must be a number, got 'a'"),
            ("theta0", [True, False], r"theta0\[0\] must be a number, got True"),
            ("theta0", [], "theta0 must not be empty"),
            ("theta", [[1.0, 2.0]], r"theta\[0\] must be a number, got \[1.0, 2.0\]"),
            ("quadratic.diag", "xy", "quadratic.diag must be a list, got 'xy'"),
            ("quadratic.diag", [1.0, None], r"quadratic.diag\[1\] must be a number, got None"),
            ("quadratic.b", {"x": 1}, r"quadratic.b must be a list, got \{'x': 1\}"),
            ("quadratic.matrix", [1.0, 2.0], r"quadratic.matrix\[0\] must be a list, got 1.0"),
            ("quadratic.matrix", [[1.0], []], r"quadratic.matrix\[1\] must not be empty"),
        ],
    )
    def test_mistyped_value_names_its_key(self, path, value, message):
        with pytest.raises(ValueError, match=message):
            setting(with_key({}, path, value), path)

    def test_arrays_read_as_lists_of_floats(self):
        # a Python caller may pass numpy arrays; they read as the same floats
        for value in ([1, 2.5], np.array([1.0, 2.5])):
            assert setting({"theta0": value}, "theta0") == [1.0, 2.5]
        with pytest.raises(ValueError, match=r"^theta0 must be a list, got array\(1\.\)$"):
            setting({"theta0": np.array(1.0)}, "theta0")

    def test_ragged_matrix_names_its_key(self):
        config = {"objective": "quadratic", "quadratic": {"matrix": [[1, 2], [3]]}, "budget": 30}
        message = r"^quadratic.matrix must be square, got \[\[1.0, 2.0\], \[3.0\]\]$"
        with pytest.raises(ValueError, match=message):
            build_newton_config(config)

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
    # a uniform eta whose moments overflow or underflow in floats
    "perturb.eta": st.one_of(_FLOATS, st.sampled_from([1e100, 1e-200, 1e-100])),
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
    # a section may also be null, or not an object at all
    for section in draw(st.sets(st.sampled_from(SECTIONS))):
        config[section] = draw(
            st.one_of(st.none(), st.integers(), st.text(max_size=3), st.lists(st.integers()))
        )
    return config


#: where each writing command finds its runner
RUNNERS = [(cli, "run_newton"), (cli, "run_crzon"), (harness, "run_table"),
           (harness, "run_bias_sweep")]
WRITING_COMMANDS = [["newton", "run"], ["crzon", "run"], ["bench", "table"],
                    ["bench", "bias-sweep"]]


def _runner_called(*args):
    raise AssertionError("a runner started on a config that does not build")


class RunnerReached(Exception):
    """Raised by a stubbed runner; ``main`` lets it through."""


def _runner_reached(*args):
    raise RunnerReached


class TestValidateNeverRaises:
    @settings(max_examples=300, deadline=None)
    @given(config=drawn_configs())
    def test_drawn_configs(self, config):
        findings = validate_config(config)
        # every key is known, but a section or value may not fit its shape;
        # then no run builds, so validate fails run.builds
        try:
            _check_keys(config)
        except ValueError:
            assert next(f for f in findings if f.check == "run.builds").ok is False

    @settings(max_examples=300, deadline=None)
    @given(config=drawn_configs())
    def test_clean_configs_build(self, config):
        # the validator errs exactly when a run of the config cannot be built
        # or its bias-sweep settings are rejected; a Newton config's runs are
        # its table cells, newton run's one included
        try:
            bias_sweep_settings(config)
            seed_range(config)
            if config.get("crzon") is not None:
                build_cubic_config(config).alpha_value()
            else:
                for _, cell in table_cells(config):
                    build_newton_config(cell)
            raised = False
        except Exception:
            raised = True
        assert has_errors(validate_config(config)) == raised

    @settings(max_examples=300, deadline=None)
    @given(config=drawn_configs())
    def test_failed_build_fails_every_command_alike(self, config):
        # one verdict: a config validate fails, every writing command rejects
        # with its message before any runner starts
        builds = next(f for f in validate_config(config) if f.check == "run.builds")
        if builds.ok:
            return
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            for owner, runner in RUNNERS:
                patch.setattr(owner, runner, _runner_called)
            path, out = Path(tmp, "config.json"), Path(tmp, "out.csv")
            path.write_text(json.dumps(config))
            for command in WRITING_COMMANDS:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([*command, "--config", str(path), "--out", str(out)])
                assert (code, err.getvalue()) == (2, f"error: {builds.message}\n"), command
                assert not out.exists()

    @settings(max_examples=300, deadline=None)
    @given(config=drawn_configs())
    @example(config={"objective": "saddle", "crzon": {"N": 2, "m": 4, "b": 4}})
    @example(config={"budget": 30})
    @example(config={"budget": 30, "methods": ["GSF-5", "G2SF-3"]})
    def test_valid_config_reaches_the_runners_of_its_solver(self, config):
        # one solver per config: a crzon section is crzon run's, any other
        # config is newton run's (one table cell) and bench table's; the
        # bias sweep reads either, and the other solver's run command
        # rejects the config before any runner starts
        if has_errors(validate_config(config)):
            return
        crzon = config.get("crzon") is not None
        cells = 0 if crzon else len(list(table_cells(config)))
        expected = {
            "newton": "crzon is read only by crzon run" if crzon else None,
            "crzon": None if crzon else "crzon run needs a crzon section",
            "table": "crzon is read only by crzon run" if crzon else None,
            "bias-sweep": None,
        }
        if cells > 1:
            expected["newton"] = f"newton run runs one table cell, got {cells}"
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            for owner, runner in RUNNERS:
                patch.setattr(owner, runner, _runner_reached)
            path, out = Path(tmp, "config.json"), Path(tmp, "out.csv")
            path.write_text(json.dumps(config))
            for command in WRITING_COMMANDS:
                message = expected[command[-1] if command[0] == "bench" else command[0]]
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    if message is None:
                        with pytest.raises(RunnerReached):
                            main([*command, "--config", str(path), "--out", str(out)])
                    else:
                        code = main([*command, "--config", str(path), "--out", str(out)])
                        assert (code, err.getvalue()) == (2, f"error: {message}\n"), command
                assert not out.exists()

    @pytest.mark.parametrize(
        "config,cause",
        [
            ({"crzon": {"epsilon": 2.0}}, "epsilon must be in (0, 1)"),
            ({"crzon": {"epsilon": 1e-300}}, "out of range"),
            ({"crzon": {"epsilon": 0.5, "n_prefactor": 1e308}}, "infinity"),
            ({"crzon": {}, "perturb": {"family": "levy"}}, "unknown perturbation family"),
            ({"crzon": {}, "noise": {"sigma": -1.0}}, "sigma must be >= 0"),
            # sizes numpy cannot draw as one array, set by epsilon or directly
            ({"crzon": {"epsilon": 1e-50}},
             "m = 1.0 * epsilon**-4 = 1e+200 at epsilon = 1e-50 is too large"),
            ({"crzon": {"b": 2**62}}, "b = 4611686018427387904 is too large"),
        ],
    )
    def test_unsizable_crzon_step_is_an_error(self, config, cause):
        findings = validate_config(dict(config, budget=100))
        finding = next(f for f in findings if f.check == "run.builds")
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
            ({"seed": 3}, "seed"),
        ],
    )
    def test_warned_by_path(self, config, path):
        # one verdict: the runs fail to build, so validate fails run.builds
        findings = validate_config(config)
        assert [(f.check, f.message) for f in findings if not f.ok] == [
            ("run.builds", f"unknown key {path!r}")
        ]
        assert has_errors(findings)
        base = {"crzon": {}} if "crzon" in config else {}
        assert not has_errors(validate_config(base))

    def test_dotted_name_is_no_path(self):
        # the runs read estimator.k from an estimator section, never from here
        with pytest.raises(ValueError, match=r"^unknown key 'estimator\.k'$"):
            _check_keys({"estimator.k": 3})

    @pytest.mark.parametrize("config", [[1, 2], "x", 5, None])
    def test_top_level_that_is_not_an_object_is_one_error(self, config):
        findings = validate_config(config)
        assert [(f.check, f.ok) for f in findings] == [("run.builds", False)]
        assert findings[0].message == f"config must be an object, got {config!r}"

    def test_null_top_level_is_named_by_every_builder(self):
        # a null section is absent, but a null config is no config
        for build in (make_objective, lambda config: list(table_cells(config)), run_bias_sweep):
            with pytest.raises(ValueError, match=r"^config must be an object, got None$"):
                build(None)

    def test_null_section_is_known(self):
        config = {section: None for section in SECTIONS}
        _check_keys(config)
        assert not has_errors(validate_config(config))


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
    for name in function.split(".") if function else ():  # e.g. "Class.method"
        tree = next(
            n for n in ast.walk(tree)
            if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name
        )
    found = []
    for node in ast.walk(tree):
        # a bare name, or an attribute such as lib.harness.run_table
        func = getattr(node, "func", None)
        if getattr(func, "id", getattr(func, "attr", "")) in ("run_table", "run_bias_sweep"):
            found += [_literal(a) for a in node.args if isinstance(a, ast.Dict)]
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            if any(getattr(t, "id", "") == "config" for t in node.targets):
                found.append(_literal(node.value))
    return found


def _readme_blocks(language: str) -> list[str]:
    text = (ROOT / "README.md").read_text()
    return re.findall(rf"```{language}\n(.*?)```", text, re.S)


def _readme_configs() -> list[dict]:
    return [json.loads(block) for block in _readme_blocks("json")]


def test_readme_python_blocks_run():
    # the quick tour's blocks build on each other, so they share one namespace
    blocks = _readme_blocks("python")
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def _readme_command_lines() -> list[list[str]]:
    """The arguments of every ``grdsa`` line of README's ``sh`` blocks."""
    lines = [line for block in _readme_blocks("sh") for line in block.splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("grdsa ")]


def _key_paths(config: dict, prefix: str = ""):
    for name, value in config.items():
        yield prefix + name
        if isinstance(value, dict):
            yield from _key_paths(value, f"{prefix}{name}.")


def test_readme_names_every_key():
    # by its dotted path, or set in one of the example configs
    text = (ROOT / "README.md").read_text()
    shown = {path for config in _readme_configs() for path in _key_paths(config)}
    assert [path for path in KEYS if path not in text and path not in shown] == []


def test_readme_shows_every_command():
    assert len({tuple(argv[:2]) for argv in _readme_command_lines()}) == 7


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=" ".join)
def test_readme_command_lines_parse(argv):
    # README's examples cannot drift from the parser
    build_parser().parse_args(argv)


def _benchmark_crzon_configs() -> list[dict]:
    """The configs the benchmark's CRZON workloads run, as they build them."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    # registered first: dataclasses resolve annotations through sys.modules
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    workloads = [w for size in module.WORKLOADS.values() for w in size.values()]
    return [w.config() for w in workloads if isinstance(w, module.Crzon)]


REPO_CONFIGS = {
    "README": _readme_configs(),
    "acceptance-06": _config_literals(
        ROOT / "tests" / "test_acceptance.py", "test_06_rastrigin_benchmark_ordering"
    ),
    "demo-03": _config_literals(ROOT / "demos" / "03_bias_order_sweep.py"),
    "demo-04": _config_literals(ROOT / "demos" / "04_newton_benchmark.py"),
    "newton-table": _config_literals(ROOT / "perfbench" / "workloads.py", "NewtonTable.run"),
    "crzon": _benchmark_crzon_configs(),
}


@pytest.mark.parametrize("index", range(len(_readme_configs())))
def test_readme_configs_build(index):
    # every config README shows builds as each command builds it first
    findings = validate_config(_readme_configs()[index])
    assert next(f for f in findings if f.check == "run.builds").ok, findings


@pytest.mark.parametrize("name", REPO_CONFIGS)
def test_repo_configs_have_no_unknown_keys(name):
    configs = REPO_CONFIGS[name]
    assert configs, f"no config found in {name}"
    for config in configs:
        _check_keys(config)
