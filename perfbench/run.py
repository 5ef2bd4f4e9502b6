"""grdsa performance benchmark: one workload per invocation.

Usage (from the repository root):

    python3 perfbench/run.py --workload newton-table --seed 0 --seconds 30 --trace 0

Times are calibrated: every timed run follows one run of a fixed reference
kernel and counts as ``elapsed * REFERENCE_S / kernel_time`` reference
seconds, which cancels the drift of a shared machine's speed (see
``reference.py``).  The uncalibrated figures are printed too.

With ``--trace 0`` the run reports the end-to-end metrics:

1. set-up, three times: import grdsa afresh from ``src/`` and run one seed
   of every cell as a warm-up (``setup_s`` is the median);
2. the timed loop: every run of the workload, timed one by one, cycling
   until ``--seconds`` have passed and at least one whole pass is done
   (``wall_s`` sums, over cells, the cell's run count times its median run
   time);
3. a tracemalloc pass over the warm-up runs (``peak_mem_mb``), kept apart
   from the timed loop because tracemalloc slows allocation-heavy code.

With ``--trace 1`` it reports the per-layer metrics instead: it times the
runs untraced for a third of ``--seconds``, then repeats whole passes with
the tracer installed (see ``tracer.py``) and divides every count and time
by the number of traced passes.  Per-layer times are uncalibrated seconds;
``trace.overhead_ratio`` compares calibrated traced and untraced times.

Either way the run checks its outputs: the same run must give the same
outputs every time it repeats (traced or not), the sha256 of the pass's
CSV outputs (wall-time column removed) must match across passes, every
run must use exactly the evaluations its iterations cost, and every metric
must be finite.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a failed check
exits with status 1.  BLAS is pinned to one thread and the run uses one
process with no worker threads.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import statistics
import sys
import tracemalloc
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from reference import REFERENCE_S, kernel_seconds
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "peak_mem_mb": "MB",
    "ok_frac": "frac",
    "param_error_mean": "ratio",
}

LAYER_UNITS = {
    "stencils.calls": "count",
    "stencils.self_s": "s",
    "stencils.share": "frac",
    "perturb.sample_s": "s",
    "perturb.scaling_s": "s",
    "perturb.scaling_bytes_computed": "B",
    "oracle.calls": "count",
    "oracle.evals": "count",
    "oracle.evals_per_call": "evals/call",
    "oracle.self_s": "s",
    "oracle.objective_s": "s",
    "oracle.noise_s": "s",
    "oracle.budget_used_frac": "frac",
    "estimators.calls": "count",
    "estimators.self_s": "s",
    "estimators.reused_evals_frac": "frac",
    "newton.run_self_s": "s",
    "newton.step_calls": "count",
    "newton.step_self_s": "s",
    "newton.solve_calls": "count",
    "newton.solve_s": "s",
    "cubic.run_self_s": "s",
    "cubic.step_calls": "count",
    "cubic.step_self_s": "s",
    "cubic.subproblem_s": "s",
    "cubic.subproblem_iters": "count",
    "cubic.hard_cases": "count",
    "harness.self_s": "s",
    "harness.csv_s": "s",
    "harness.rows_error": "count",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "trace.skipped_names": "count",
}


def import_library() -> SimpleNamespace:
    """Import grdsa from ``src/``, dropping any copy imported before.

    Re-importing resets module-level caches, so each set-up pays for them.
    """
    for name in [n for n in sys.modules if n == "grdsa" or n.startswith("grdsa.")]:
        del sys.modules[name]
    lib = SimpleNamespace(
        **{
            name: importlib.import_module(f"grdsa.{name}")
            for name in ("harness", "cubic", "newton", "oracle")
        }
    )
    if not Path(lib.harness.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"grdsa was imported from {lib.harness.__file__}, not {SRC}")
    return lib


class Outcomes:
    """Counts runs and checks their outputs against every repeat."""

    def __init__(self, workload, out_dir: Path) -> None:
        self.workload = workload
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.hashes: list[str] = []
        self.first_pass: list | None = None
        self._identities: dict[object, str] = {}

    def run(self, lib, item, counted: bool = True):
        """Run one item; a run that raises returns ``None`` and counts as failed."""
        wl = self.workload
        try:
            out = wl.run(lib, item)
        except Exception:  # one broken run must not hide the others
            traceback.print_exc()
            out = None
        if counted:
            self.attempted += 1
            self.failed += out is None or wl.failed(out)
        if out is not None:
            identity = wl.identity(out)
            if self._identities.setdefault(item, identity) != identity:
                self.errors.append(f"{wl.name}: run {item} gave different outputs on repeat")
        return out

    def finish_pass(self, lib, outputs: list) -> None:
        """Write a whole pass's CSV outputs and compare their hash with earlier passes."""
        wl = self.workload
        if any(out is None for out in outputs):
            self.errors.append(f"{wl.name}: a failed run left no CSV output")
            return
        digest = wl.write_csvs(lib, outputs, self.out_dir)
        if self.hashes and digest != self.hashes[0]:
            self.errors.append(f"{wl.name}: CSV hash changed between passes")
        self.hashes.append(digest)
        if self.first_pass is None:
            self.first_pass = outputs


def set_up(wl, seed: int, outcomes: Outcomes):
    """Import grdsa afresh and warm up; returns reference seconds and the library.

    The import and each warm-up run are calibrated by a kernel timed just before.
    """
    reference = kernel_seconds(wl.reference)
    start = perf_counter()
    lib = import_library()
    ratio = (perf_counter() - start) / reference
    for item in wl.warmup(seed):
        reference = kernel_seconds(wl.reference)
        start = perf_counter()
        outcomes.run(lib, item, counted=False)
        ratio += (perf_counter() - start) / reference
    return ratio * REFERENCE_S, lib


def timed_run(wl, lib, item, outcomes: Outcomes, samples: dict):
    """Run one item right after a reference kernel; record both times under its cell."""
    reference = kernel_seconds(wl.reference)
    start = perf_counter()
    out = outcomes.run(lib, item)
    elapsed = perf_counter() - start
    samples[wl.cell(item)].append((elapsed, reference))
    return out, elapsed


def timed_runs(wl, lib, items, seconds: float, outcomes: Outcomes, min_runs: int) -> dict:
    """Time runs one by one, cycling through ``items``.

    Stops once ``seconds`` have passed and ``min_runs`` runs are done.
    Returns, per cell, the (run, reference kernel) time pairs.
    """
    order = wl.timing_order(items)
    samples: dict[object, list[tuple[float, float]]] = defaultdict(list)
    deadline = perf_counter() + seconds
    done = 0
    while True:
        outputs = {}
        for item in order:
            if done >= min_runs and perf_counter() >= deadline:
                return samples
            outputs[item] = timed_run(wl, lib, item, outcomes, samples)[0]
            done += 1
        outcomes.finish_pass(lib, [outputs[item] for item in items])


def estimate_wall(wl, items, samples: dict, calibrated: bool = True) -> float:
    """Workload time from per-cell medians, in reference seconds if ``calibrated``."""
    per_cell: dict[object, int] = defaultdict(int)
    for item in items:
        per_cell[wl.cell(item)] += 1
    if calibrated:
        return REFERENCE_S * sum(
            n * statistics.median(t / ref for t, ref in samples[cell])
            for cell, n in per_cell.items()
        )
    return sum(n * statistics.median(t for t, _ in samples[cell]) for cell, n in per_cell.items())


def report_calibration(wl, items, samples: dict) -> None:
    kernel = statistics.median(ref for cell in samples.values() for _, ref in cell)
    print(
        f"calibration: reference kernel {wl.reference!r} median {kernel:.6f} s "
        f"(nominal {REFERENCE_S} s); uncalibrated wall_s "
        f"{estimate_wall(wl, items, samples, calibrated=False):.6f} s"
    )


def peak_memory_mb(wl, lib, seed: int, outcomes: Outcomes) -> float:
    """Largest tracemalloc peak of one warm-up run, above what was live before it."""
    peak = 0
    tracemalloc.start()
    try:
        for item in wl.warmup(seed):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            outcomes.run(lib, item, counted=False)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 1e6


def check_accounting(wl, lib, outcomes: Outcomes) -> None:
    for out in outcomes.first_pass or []:
        outcomes.errors.extend(wl.accounting_errors(lib, out))


def measure_end_to_end(wl, seed: int, seconds: float, outcomes: Outcomes) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, lib = set_up(wl, seed, outcomes)
        setups.append(elapsed)
    items = wl.items(seed)
    samples = timed_runs(wl, lib, items, seconds, outcomes, len(items))
    peak = peak_memory_mb(wl, lib, seed, outcomes)
    check_accounting(wl, lib, outcomes)

    report_calibration(wl, items, samples)
    wall = estimate_wall(wl, items, samples)
    ok = [out for out in outcomes.first_pass or [] if not wl.failed(out)]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "evals_per_s": sum(wl.evals(out) for out in ok) / wall,
        "peak_mem_mb": peak,
        "ok_frac": 1.0 - outcomes.failed / outcomes.attempted,
        "param_error_mean": wl.quality(lib, ok) if ok else math.nan,
    }


def measure_layers(wl, seed: int, seconds: float, outcomes: Outcomes) -> dict:
    _, lib = set_up(wl, seed, outcomes)
    items = wl.items(seed)
    n_cells = len({wl.cell(item) for item in items})
    untraced = timed_runs(wl, lib, items, seconds / 3, outcomes, n_cells)

    tracer = Tracer()
    traced: dict[object, list[tuple[float, float]]] = defaultdict(list)
    walls: list[float] = []
    deadline = perf_counter() + 2 * seconds / 3
    with tracer:
        while not walls or perf_counter() + walls[-1] <= deadline:
            wall = 0.0
            outputs = []
            for item in items:
                out, elapsed = timed_run(wl, lib, item, outcomes, traced)
                outputs.append(out)
                wall += elapsed
            start = perf_counter()
            outcomes.finish_pass(lib, outputs)
            walls.append(wall + perf_counter() - start)
    check_accounting(wl, lib, outcomes)

    passes = len(walls)
    traced_wall = sum(walls) / passes
    stats = tracer.summary()

    def spans(prefix: str) -> list:
        return [s for label, s in stats.items() if label.startswith(prefix)]

    def calls(prefix: str) -> float:
        return sum(s.calls for s in spans(prefix)) / passes

    def self_s(prefix: str) -> float:
        return sum(s.self_s for s in spans(prefix)) / passes

    def counter(name: str) -> float:
        return tracer.counters.get(name, 0) / passes

    ok = [out for out in outputs if out is not None and not wl.failed(out)]
    evals = sum(wl.evals(out) for out in ok)
    if "grdsa.oracle.BudgetedOracle.evaluate_many" not in tracer.skipped:
        if counter("oracle.evals") != evals:
            outcomes.errors.append(
                f"{wl.name}: the oracle evaluated {counter('oracle.evals')} points "
                f"per pass but the runs report {evals}"
            )
    without_reuse = sum(wl.evals_without_reuse(lib, out) for out in ok)
    oracle_calls = calls("oracle.evaluate_many")
    print(f"traced {passes} pass(es), {tracer.n_spans} spans")
    for name in tracer.skipped:
        print(f"trace: skipped {name} (not found)")
    return {
        "stencils.calls": calls("stencils."),
        "stencils.self_s": self_s("stencils."),
        "stencils.share": self_s("stencils.") / traced_wall,
        "perturb.sample_s": self_s("perturb.sample"),
        "perturb.scaling_s": self_s("perturb.scaling"),
        "perturb.scaling_bytes_computed": counter("perturb.scaling_bytes_computed"),
        "oracle.calls": oracle_calls,
        "oracle.evals": counter("oracle.evals"),
        "oracle.evals_per_call": counter("oracle.evals") / oracle_calls if oracle_calls else 0.0,
        "oracle.self_s": self_s("oracle.evaluate_many"),
        "oracle.objective_s": self_s("oracle.objective"),
        "oracle.noise_s": self_s("oracle.noise"),
        "oracle.budget_used_frac": evals / sum(wl.budget_of(lib, out) for out in ok),
        "estimators.calls": calls("estimators."),
        "estimators.self_s": self_s("estimators."),
        "estimators.reused_evals_frac": 1.0 - evals / without_reuse,
        "newton.run_self_s": self_s("newton.run"),
        "newton.step_calls": calls("newton.step"),
        "newton.step_self_s": self_s("newton.step"),
        "newton.solve_calls": calls("newton.solve"),
        "newton.solve_s": self_s("newton.solve"),
        "cubic.run_self_s": self_s("cubic.run"),
        "cubic.step_calls": calls("cubic.step"),
        "cubic.step_self_s": self_s("cubic.step"),
        "cubic.subproblem_s": self_s("cubic.subproblem"),
        "cubic.subproblem_iters": counter("cubic.subproblem_iters"),
        "cubic.hard_cases": counter("cubic.hard_cases"),
        "harness.self_s": self_s("harness.") - self_s("harness.csv"),
        "harness.csv_s": self_s("harness.csv"),
        "harness.rows_error": sum(out is None or wl.failed(out) for out in outputs),
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": estimate_wall(wl, items, traced) / estimate_wall(wl, items, untraced),
        "trace.spans": tracer.n_spans / passes,
        "trace.skipped_names": len(tracer.skipped),
    }


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the record is informational
        blas = "unknown"
    uname = os.uname()
    return {
        "machine": f"{uname.machine} {uname.sysname} {uname.release}",
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=sorted(WORKLOADS), default="full",
        help="'tiny' shrinks every workload for the smoke test",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "grdsa" / "__init__.py").is_file():
        print(f"error: no grdsa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.size][args.workload]
    out_dir = OUT / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    outcomes = Outcomes(wl, out_dir)

    measure = measure_layers if args.trace else measure_end_to_end
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    kernel_seconds(wl.reference)  # the first call pays one-off allocation costs
    try:
        values = measure(wl, args.seed, args.seconds, outcomes)
    except ImportError as exc:
        print(f"error: cannot import grdsa: {exc}", file=sys.stderr)
        return 2
    for name, value in values.items():
        if not math.isfinite(value):
            outcomes.errors.append(f"metric {name} is not finite: {value}")

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"csv_sha256 {wl.name} seed={args.seed} {outcomes.hashes[0] if outcomes.hashes else 'none'}")
    for name, value in values.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    for error in outcomes.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    result = {
        "correct": not outcomes.errors,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
