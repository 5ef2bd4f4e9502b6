"""The benchmark's workloads, driven through grdsa's public API.

A workload is a list of independent runs ("items").  The benchmark times
each item on its own and groups the times by cell: items in one cell do
the same amount of work (same method, dimension and budget), so the median
item time of a cell, times the cell's item count, is a steady estimate of
the time the whole workload takes.

The benchmark's ``--seed n`` selects the run seeds ``n*S .. n*S + S - 1``
(``S`` runs per cell), so two benchmark seeds never share a run and the
solution-quality metric of a set of benchmark runs averages independent
seeds.

``lib`` is a namespace holding the grdsa modules the benchmark imported
(``harness``, ``cubic``, ``newton``, ``oracle``); every call goes through
its module attribute so that the tracer's patches apply.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path


def _csv_digest(paths: list[Path]) -> str:
    """sha256 over the CSV files with any ``wall_time_s`` column removed."""
    digest = hashlib.sha256()
    for path in paths:
        rows = list(csv.reader(io.StringIO(path.read_text())))
        drop = rows[0].index("wall_time_s") if "wall_time_s" in rows[0] else None
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for row in rows:
            writer.writerow(row if drop is None else row[:drop] + row[drop + 1 :])
        digest.update(f"{path.name}\n{out.getvalue()}".encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class NewtonTable:
    """``harness.run_table`` on the acceptance-06 config, one run per call.

    Per-iteration Python overhead dominates: thousands of tiny estimator
    calls of 3-9 evaluations each.  It is the only workload that runs the
    ``newton`` layer and ``run_table``.
    """

    #: reference kernel that calibrates this workload's run times
    reference = "python"

    name: str
    methods: tuple[str, ...] = ("GSF-5", "G2SF-3", "G2SF-9")
    dims: tuple[int, ...] = (5, 10)
    budget: int = 5000
    seeds: int = 10

    def items(self, seed: int) -> list[tuple[str, int, int]]:
        """Every run, in the row order ``run_table`` writes."""
        base = seed * self.seeds
        return [
            (method, dim, s)
            for method in self.methods
            for dim in self.dims
            for s in range(base, base + self.seeds)
        ]

    def timing_order(self, items: list) -> list:
        # seed-major, so any prefix of a pass samples every cell
        return sorted(items, key=lambda it: (it[2], self.methods.index(it[0]), it[1]))

    def cell(self, item) -> tuple[str, int]:
        return item[:2]

    def warmup(self, seed: int) -> list[tuple[str, int, int]]:
        """One seed of every cell."""
        return [(method, dim, seed * self.seeds) for method in self.methods for dim in self.dims]

    def run(self, lib, item):
        method, dim, seed = item
        result = lib.harness.run_table(
            {
                "objective": "rastrigin",
                "methods": [method],
                "dims": [dim],
                "budgets": [self.budget],
                "seeds": 1,
                "seed_base": seed,
            }
        )
        return result.rows[0]

    def identity(self, row) -> str:
        return repr(
            (row.fingerprint, row.method, row.dim, row.budget, row.seed, row.k,
             row.iterations, row.final_parameter_error, row.evals_used,
             row.status, row.message)
        )

    def failed(self, row) -> bool:
        return row.status != "ok"

    def evals(self, row) -> int:
        return row.evals_used

    def budget_of(self, lib, row) -> int:
        return row.budget

    def evals_without_reuse(self, lib, row) -> int:
        """Evaluations the same estimates cost if no measurement were shared.

        A Newton iteration buys ``2k+1`` Hessian points and, without reuse,
        ``k+1`` more for the gradient; gradient-only runs share nothing.
        """
        spec = lib.harness.method_spec(row.method)
        if spec.algorithm == "newton":
            return row.iterations * (3 * spec.k + 2)
        return row.evals_used

    def accounting_errors(self, lib, row) -> list[str]:
        if self.failed(row):
            return []
        spec = lib.harness.method_spec(row.method)
        cost = lib.newton.iteration_cost(spec.k) if spec.algorithm == "newton" else spec.k + 1
        if row.evals_used <= row.budget and row.evals_used == row.iterations * cost:
            return []
        return [
            f"{self.name}: {row.method} d={row.dim} seed={row.seed} used "
            f"{row.evals_used} evaluations for {row.iterations} iterations of "
            f"cost {cost} (budget {row.budget})"
        ]

    def quality(self, lib, rows) -> float:
        """Mean normalized squared distance of the final iterate to the optimum."""
        errors = [r.final_parameter_error for r in rows if not self.failed(r)]
        return sum(errors) / len(errors)

    def write_csvs(self, lib, rows, out_dir: Path) -> str:
        result = lib.harness.TableResult(rows=rows, cells=lib.harness.aggregate_rows(rows))
        paths = [out_dir / "table.csv", out_dir / "summary.csv"]
        lib.harness.write_table_csv(str(paths[0]), result)
        lib.harness.write_summary_csv(str(paths[1]), result)
        return _csv_digest(paths)


@dataclass(frozen=True)
class Crzon:
    """``cubic.run_crzon`` on Rastrigin, one run per seed.

    A few very large vectorized calls per step.  With ``reuse`` the
    gradient reads the Hessian batch's measurements through the inline
    estimator in ``cubic``, which builds a ``(b, d, d)`` scaling array;
    without it the steps go through ``batch_hessian`` and ``batch_gradient``
    and the oracle dominates.
    """

    reference = "array"

    name: str
    reuse: bool
    dim: int = 50
    n_steps: int = 10
    batch: int = 1024
    delta: float = 0.1
    sigma: float = 0.001
    seeds: int = 20

    def config(self) -> dict:
        return {
            "objective": "rastrigin",
            "dim": self.dim,
            "noise": {"sigma": self.sigma},
            "estimator": {"reuse": self.reuse},
            "crzon": {
                "k": 1,
                "N": self.n_steps,
                "m": self.batch,
                "b": self.batch,
                "delta": self.delta,
            },
        }

    def items(self, seed: int) -> list[int]:
        return list(range(seed * self.seeds, (seed + 1) * self.seeds))

    def timing_order(self, items: list) -> list:
        return items

    def cell(self, item) -> str:
        return "run"

    def warmup(self, seed: int) -> list[int]:
        return [seed * self.seeds]

    def run(self, lib, seed: int):
        return lib.cubic.run_crzon(lib.harness.build_cubic_config(self.config(), seed=seed))

    def identity(self, rep) -> str:
        return repr(
            (rep.seed, rep.iterations, rep.r_index, rep.evals_used,
             rep.grad_norm_at_r, rep.lambda_min_at_r,
             rep.theta_r.tobytes(), rep.theta_final.tobytes())
        )

    def failed(self, rep) -> bool:
        return False  # a failing run raises instead of returning a report

    def evals(self, rep) -> int:
        return rep.evals_used

    def _step_cost(self, lib) -> int:
        return lib.harness.build_cubic_config(self.config()).step_cost()

    def budget_of(self, lib, rep) -> int:
        # runs have no budget: count the evaluations the planned steps buy
        return rep.n_steps * self._step_cost(lib)

    def evals_without_reuse(self, lib, rep) -> int:
        return rep.iterations * (rep.m * (rep.k + 1) + rep.b * (2 * rep.k + 1))

    def accounting_errors(self, lib, rep) -> list[str]:
        cost = self._step_cost(lib)
        if rep.evals_used == rep.iterations * cost:
            return []
        return [
            f"{self.name}: seed={rep.seed} used {rep.evals_used} evaluations for "
            f"{rep.iterations} steps of cost {cost}"
        ]

    def quality(self, lib, reports) -> float:
        """Mean normalized squared distance of the reported iterate to the optimum."""
        optimum = lib.harness.make_objective(self.config()).optimum
        errors = [
            lib.oracle.parameter_error(r.theta_r, r.theta_init, optimum) for r in reports
        ]
        return sum(errors) / len(errors)

    def write_csvs(self, lib, reports, out_dir: Path) -> str:
        path = out_dir / "crzon.csv"
        lib.harness.write_crzon_csv(str(path), reports)
        return _csv_digest([path])


WORKLOADS = {
    "full": {
        "newton-table": NewtonTable("newton-table"),
        "crzon-reuse": Crzon("crzon-reuse", reuse=True),
        "crzon-fresh": Crzon("crzon-fresh", reuse=False),
    },
    # seconds-long versions of the same shapes, for the smoke test
    "tiny": {
        "newton-table": NewtonTable("newton-table", dims=(3,), budget=90, seeds=2),
        "crzon-reuse": Crzon("crzon-reuse", reuse=True, dim=4, n_steps=2, batch=16, seeds=2),
        "crzon-fresh": Crzon("crzon-fresh", reuse=False, dim=4, n_steps=2, batch=16, seeds=2),
    },
}
