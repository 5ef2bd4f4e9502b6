"""Span tracer that wraps grdsa's functions from outside the package.

Each wrapped call records one span: its label, start, end and the span
that was open when it began (its parent).  Spans live in flat arrays
until the run ends; :meth:`Tracer.summary` then turns them into calls
and self time per label, where self time is a span's duration minus the
durations of its direct children.

Targets are named as their callers look them up (``grdsa.newton`` calls
its own global ``estimate_gradient``, so that is the name patched).  A
target that no longer exists is skipped and listed in
:attr:`Tracer.skipped`, so the same tracer runs on commits before and
after a refactor that renames or removes a function.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from array import array
from time import perf_counter
from typing import Callable

import numpy as np

#: hook(counters, result) adds a span's work counts to ``counters``
Hook = Callable[[dict, object], None]


def _count_rows(counters: dict, result) -> None:
    counters["oracle.evals"] = counters.get("oracle.evals", 0) + len(result)


def _count_bytes(counters: dict, result) -> None:
    # computed from the returned array's shape (b * d * d * 8), not measured
    key = "perturb.scaling_bytes_computed"
    counters[key] = counters.get(key, 0) + result.nbytes


def _count_subproblem(counters: dict, result) -> None:
    counters["cubic.subproblem_iters"] = (
        counters.get("cubic.subproblem_iters", 0) + result.iterations
    )
    counters["cubic.hard_cases"] = counters.get("cubic.hard_cases", 0) + int(
        result.hard_case
    )


#: (owner, attribute, span label, hook); labels start with the layer name
TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("grdsa.harness", "run_table", "harness.run_table", None),
    ("grdsa.harness", "build_cubic_config", "harness.build_cubic_config", None),
    ("grdsa.harness", "write_table_csv", "harness.csv", None),
    ("grdsa.harness", "write_summary_csv", "harness.csv", None),
    ("grdsa.harness", "write_crzon_csv", "harness.csv", None),
    ("grdsa.harness", "write_newton_csv", "harness.csv", None),
    ("grdsa.harness", "run_newton", "newton.run", None),
    ("grdsa.harness", "run_first_order", "newton.run", None),
    ("grdsa.newton", "newton_step", "newton.step", None),
    ("grdsa.newton", "clamped_newton_direction", "newton.solve", None),
    ("grdsa.newton", "estimate_hessian", "estimators.estimate_hessian", None),
    ("grdsa.newton", "estimate_gradient", "estimators.estimate_gradient", None),
    ("grdsa.cubic", "run_crzon", "cubic.run", None),
    ("grdsa.cubic", "crzon_step", "cubic.step", None),
    ("grdsa.cubic", "solve_cubic_subproblem", "cubic.subproblem", _count_subproblem),
    ("grdsa.cubic", "batch_hessian", "estimators.batch_hessian", None),
    ("grdsa.cubic", "batch_gradient", "estimators.batch_gradient", None),
    ("grdsa.estimators", "grad_stencil", "stencils.grad_stencil", None),
    ("grdsa.estimators", "hess_stencil", "stencils.hess_stencil", None),
    ("grdsa.cubic", "grad_stencil", "stencils.grad_stencil", None),
    ("grdsa.cubic", "hess_stencil", "stencils.hess_stencil", None),
    ("grdsa.estimators", "scaling_matrix", "perturb.scaling", _count_bytes),
    ("grdsa.estimators", "scaling_matrices", "perturb.scaling", _count_bytes),
    ("grdsa.cubic", "scaling_matrices", "perturb.scaling", _count_bytes),
    ("grdsa.perturb.PerturbationSpec", "sample", "perturb.sample", None),
    ("grdsa.oracle.BudgetedOracle", "evaluate_many", "oracle.evaluate_many", _count_rows),
    ("grdsa.oracle.LinearGaussianNoise", "sample", "oracle.noise", None),
)

#: objectives are built per run, so their ``value`` is wrapped at the factory
OBJECTIVE_FACTORY = ("grdsa.harness", "make_objective")
OBJECTIVE_LABEL = "oracle.objective"


def _resolve(dotted: str):
    """Import the longest module prefix of ``dotted`` and walk the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(dotted)


@dataclasses.dataclass(frozen=True)
class LabelStats:
    calls: int
    self_s: float


class Tracer:
    """Patches the targets in :data:`TARGETS` while installed."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self._names = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.skipped: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def wrap(self, fn: Callable, label: str, hook: Hook | None = None) -> Callable:
        """Return ``fn`` recording one span per call under ``label``."""
        label_id = self._label_id(label)
        names, parents = self._names, self._parents
        starts, ends, stack = self._starts, self._ends, self._stack
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(label_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(counters, result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner_name, attr, label, hook in TARGETS:
            try:
                owner = _resolve(owner_name)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.skipped.append(f"{owner_name}.{attr}")
                continue
            self._patch(owner, attr, self.wrap(original, label, hook))

        owner_name, attr = OBJECTIVE_FACTORY
        try:
            owner = _resolve(owner_name)
            make_objective = owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            self.skipped.append(f"{owner_name}.{attr}")
            return

        def traced_make_objective(*args, **kwargs):
            objective = make_objective(*args, **kwargs)
            return dataclasses.replace(
                objective, value=self.wrap(objective.value, OBJECTIVE_LABEL)
            )

        self._patch(owner, attr, traced_make_objective)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @property
    def n_spans(self) -> int:
        return len(self._names)

    def summary(self) -> dict[str, LabelStats]:
        """Calls and self time per label over every recorded span."""
        names = np.asarray(self._names, dtype=np.intp)
        parents = np.asarray(self._parents, dtype=np.intp)
        dur = np.asarray(self._ends) - np.asarray(self._starts)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        n_labels = len(self.labels)
        calls = np.bincount(names, minlength=n_labels)
        self_s = np.bincount(names, weights=own, minlength=n_labels)
        return {
            label: LabelStats(int(calls[i]), float(self_s[i]))
            for i, label in enumerate(self.labels)
        }
