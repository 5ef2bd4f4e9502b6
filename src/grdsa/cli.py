"""Command-line front end: stencil tables, runs, benchmarks, validation."""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

import numpy as np

from . import harness
from .cubic import run_crzon
from .estimators import NonFiniteEvaluation
from .newton import run_newton
from .stencils import (
    MAX_ORDER,
    all_identities_pass,
    grad_stencil,
    hess_stencil,
    verify_identities,
)


def _load_config(path: str):
    with open(path) as fh:
        return json.load(fh)


def _check_writable(*paths: str | None) -> None:
    """Raise, before any run, the error that writing each given path would
    raise: a missing or non-directory parent, a directory in its place, or
    no write permission.  Nothing is opened or created, so a file, symlink
    or FIFO stays as it was; empty paths are skipped, as the writers skip
    them."""
    for path in paths:
        if not path:
            continue
        target = os.path.realpath(path)  # a dangling symlink names its target
        if os.path.isdir(target):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if os.path.exists(target):
            where, mode = target, os.W_OK
        else:
            where, mode = os.path.dirname(target), os.W_OK | os.X_OK
            if not os.path.isdir(where):
                code = errno.ENOTDIR if os.path.exists(where) else errno.ENOENT
                raise OSError(code, os.strerror(code), path)
        if not os.access(where, mode):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _cmd_stencil_print(args: argparse.Namespace) -> int:
    tables = [
        ("gradient", grad_stencil(args.k1), ("k",), "delta"),
        ("hessian", hess_stencil(args.k1, args.k2), ("k1", "k2"), "delta^2"),
    ]
    if args.json:
        payload = {
            kind: {
                **dict(zip(names, stencil.orders)),
                "weights": [str(w) for w in stencil.weights],
                "decimals": [float(w) for w in stencil.weights],
            }
            for kind, stencil, names, _ in tables
        }
        print(json.dumps(payload, indent=2))
        return 0
    for i, (kind, stencil, names, divisor) in enumerate(tables):
        if i:
            print()
        orders = ", ".join(f"{n}={k}" for n, k in zip(names, stencil.orders))
        print(
            f"{kind} stencil, {orders} "
            f"(combine values at shifts 0..{len(stencil.weights) - 1}, divide by {divisor})"
        )
        print(f"{'shift':>6}  {'weight':>18}  {'decimal':>22}")
        for s, w in enumerate(stencil.weights):
            print(f"{s:>6}  {str(w):>18}  {float(w):>22.16g}")
    return 0


def _cmd_stencil_verify(args: argparse.Namespace) -> int:
    report = verify_identities(args.kmax)
    ok = all_identities_pass(report)
    if args.json:
        payload = [
            {
                "identity": row.identity,
                "k": row.k,
                "q": row.q,
                "lhs": str(row.lhs),
                "rhs": str(row.rhs),
                "passed": row.passed,
            }
            for row in report
        ]
        print(json.dumps({"checks": payload, "all_passed": ok}, indent=2))
        return 0 if ok else 1
    for row in report:
        verdict = "pass" if row.passed else "FAIL"
        where = f"k={row.k}" + (f", q={row.q}" if row.q is not None else "")
        detail = "" if row.passed else f"  lhs={row.lhs} rhs={row.rhs}"
        print(f"[{verdict}] {row.identity:<22} {where}{detail}")
    print(f"{len(report)} checks, all exact" if ok else "IDENTITY FAILURES PRESENT")
    return 0 if ok else 1


def _run_config(args: argparse.Namespace, run, **writers):
    """Read ``args.config``, check the output paths that ``writers`` names,
    in order, before the first run, run ``run`` on the config and write the
    result to each path that is set.  The builders check the config itself."""
    config = _load_config(args.config)
    paths = {name: getattr(args, name) for name in writers}
    _check_writable(*paths.values())
    result = run(config)
    for name, write in writers.items():
        if paths[name]:
            write(paths[name], result)
    return result


def _per_seed(run, build):
    return lambda config: [run(build(config, seed=seed)) for seed in harness.seed_range(config)]


def _cmd_newton_run(args: argparse.Namespace) -> int:
    records = _run_config(
        args, _per_seed(run_newton, harness.build_newton_config), out=harness.write_newton_csv
    )
    errors = [r.final_parameter_error for r in records if r.final_parameter_error is not None]
    mean = f"; mean final parameter error {np.mean(errors):.4g}" if errors else ""
    print(f"{len(records)} runs -> {args.out}{mean}")
    return 0


def _cmd_crzon_run(args: argparse.Namespace) -> int:
    reports = _run_config(
        args, _per_seed(run_crzon, harness.build_cubic_config), out=harness.write_crzon_csv
    )
    lam = [r.lambda_min_at_r for r in reports]
    print(
        f"{len(reports)} runs -> {args.out}; "
        f"median lambda_min at reported iterate {np.median(lam):.4g}"
    )
    return 0


def _cmd_bench_table(args: argparse.Namespace) -> int:
    result = _run_config(
        args, harness.run_table, out=harness.write_table_csv, summary_out=harness.write_summary_csv
    )
    print(f"{'method':<10} {'dim':>4} {'budget':>8} {'n':>3} {'mean_err':>10} {'sd':>10}")
    for cell in result.cells:
        print(
            f"{cell.method:<10} {cell.dim:>4} {cell.budget:>8} {cell.n_ok:>3} "
            f"{cell.mean_error:>10.4g} {cell.sd_error:>10.4g}"
        )
    failed = [r for r in result.rows if r.status != "ok"]
    if failed:
        print(f"{len(failed)} failed runs (see status column)")
        return 1
    return 0


def _cmd_bench_bias_sweep(args: argparse.Namespace) -> int:
    result = _run_config(args, harness.run_bias_sweep, out=harness.write_bias_sweep_csv)
    label = f"{result.estimator} k1={result.k1} k2={result.k2} mode={result.mode}"
    for delta, dev in zip(result.deltas, result.deviations):
        print(f"{label}  delta={delta:<8g} deviation={dev:.6g}")
    print(f"{label}  fitted log-log slope = {result.slope:.4f}")
    return 0


def _cmd_config_validate(args: argparse.Namespace) -> int:
    config = _load_config(args.file)
    findings = harness.validate_config(config)
    for f in findings:
        if f.ok:
            tag = "PASS"
        else:
            tag = "ERROR" if f.severity == "error" else "WARN"
        print(f"[{tag:<5}] {f.check:<36} {f.message}")
    if harness.has_errors(findings):
        print("config invalid")
        return 2
    n_warn = len(harness.failed_warnings(findings))
    print("config ok" + (f" ({n_warn} warning{'s' if n_warn != 1 else ''})" if n_warn else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grdsa",
        description="Random-direction derivative estimators and the solvers built on them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stencil = sub.add_parser("stencil", help="exact stencil tables and certification")
    stencil_sub = stencil.add_subparsers(dest="subcommand", required=True)
    sp = stencil_sub.add_parser("print", help="print gradient/Hessian stencil weights")
    sp.add_argument("--k1", type=int, required=True, help=f"truncation order (1..{MAX_ORDER})")
    sp.add_argument("--k2", type=int, default=None, help="second order (defaults to k1)")
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.set_defaults(func=_cmd_stencil_print)
    sv = stencil_sub.add_parser("verify", help="certify identities in exact arithmetic")
    sv.add_argument("--kmax", type=int, required=True)
    sv.add_argument("--json", action="store_true")
    sv.set_defaults(func=_cmd_stencil_verify)

    newton = sub.add_parser("newton", help="two-timescale projected Newton runs")
    newton_sub = newton.add_subparsers(dest="subcommand", required=True)
    nr = newton_sub.add_parser("run", help="run the config's seeds and write a CSV")
    nr.add_argument("--config", required=True)
    nr.add_argument("--out", required=True)
    nr.set_defaults(func=_cmd_newton_run)

    crzon = sub.add_parser("crzon", help="cubic-regularized Newton runs")
    crzon_sub = crzon.add_subparsers(dest="subcommand", required=True)
    cr = crzon_sub.add_parser("run", help="run the config's seeds and write a CSV")
    cr.add_argument("--config", required=True)
    cr.add_argument("--out", required=True)
    cr.set_defaults(func=_cmd_crzon_run)

    bench = sub.add_parser("bench", help="benchmark tables and order sweeps")
    bench_sub = bench.add_subparsers(dest="subcommand", required=True)
    bt = bench_sub.add_parser("table", help="method x dim x budget table")
    bt.add_argument("--config", required=True)
    bt.add_argument("--out", default=None, help="per-run rows CSV")
    bt.add_argument("--summary-out", default=None, help="aggregated cells CSV")
    bt.set_defaults(func=_cmd_bench_table)
    bb = bench_sub.add_parser("bias-sweep", help="deviation-vs-radius slope")
    bb.add_argument("--config", required=True)
    bb.add_argument("--out", default=None)
    bb.set_defaults(func=_cmd_bench_bias_sweep)

    config = sub.add_parser("config", help="configuration checks")
    config_sub = config.add_subparsers(dest="subcommand", required=True)
    cv = config_sub.add_parser("validate", help="schedule and feasibility report")
    cv.add_argument("file")
    cv.set_defaults(func=_cmd_config_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  A writing command reads its config file, checks its
    output paths, then builds and runs.  A file that cannot be read or
    written, or a config its builders reject (a key they do not read or a top
    level that is not an object included), exits 2, and a run that measures a
    non-finite value exits 1, each with one ``error:`` line.
    ``bench table`` exits 2 only for what stops it before its first cell; a
    cell whose config fails to build is ``error`` rows, and the table exits 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteEvaluation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
