"""Golden bits: outputs pinned to recorded values, so drift between commits fails.

The determinism tests elsewhere compare two runs of the same code, so they
cannot see an output drift between commits.  These tests compare against
values recorded once (x86_64, numpy 2.4, OpenBLAS): a refactor or speed-up
that changes the float order of operations changes these bits.  They also pin the cached float stencil weights to the exact
``Fraction`` tables they come from.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from grdsa.cubic import CubicConfig, crzon_step, run_crzon
from grdsa.harness import build_cubic_config, build_newton_config, run_table
from grdsa.newton import run_newton
from grdsa.oracle import BudgetedOracle, LinearGaussianNoise, rastrigin
from grdsa.stencils import (
    MAX_ORDER,
    grad_stencil,
    grad_weights,
    hess_stencil,
    hess_weights,
)

#: (reuse, method) -> (final_parameter_error.hex(), evals_used)
TABLE_GOLDEN = {
    (True, "GSF-5"): ("0x1.099d368192c9ap+1", 600),
    (True, "G2SF-3"): ("0x1.3c314fd7c020ep+0", 600),
    (True, "G2SF-9"): ("0x1.0792ce7ae587dp+2", 594),
    (True, "G2R-3"): ("0x1.deb5034db3189p-1", 600),
    (False, "GSF-5"): ("0x1.099d368192c9ap+1", 600),
    (False, "G2SF-3"): ("0x1.6ae19ded76c76p+1", 600),
    (False, "G2SF-9"): ("0x1.c69109323a9cap+1", 588),
    (False, "G2R-3"): ("0x1.a615e55e865f5p+1", 600),
}

#: (method, dim) -> (final_parameter_error.hex(), evals_used); the
#: benchmark's newton-table cells (rastrigin, budget 5000), seed 0.  Late in
#: these runs the dynamics are chaotic, so a last-bit change anywhere in an
#: iteration moves the final error by O(10) and shows here.
BENCHMARK_TABLE_GOLDEN = {
    ("GSF-5", 5): ("0x1.bba027a9791f1p+0", 5000),
    ("GSF-5", 10): ("0x1.07ae460daf6f2p+1", 5000),
    ("G2SF-3", 5): ("0x1.4125831fb8826p+0", 4998),
    ("G2SF-3", 10): ("0x1.42d850f8a773bp-1", 4998),
    ("G2SF-9", 5): ("0x1.234e5928ef7afp+1", 4995),
    ("G2SF-9", 10): ("0x1.cea0521444d23p+0", 4995),
}

#: (m, b, k, seed, reuse) -> (evals_used, r_index, sha256 of theta_r bytes)
CRZON_GOLDEN = {
    (6, 4, 2, 1, True): (
        104, 1, "2523e82259be31ab5e9b88be8732cd1c653cbef82928c1d5c5699b642b0397f4"
    ),
    (6, 4, 2, 1, False): (
        152, 1, "ba9e2c43a759870cc1cd3b2ddd92d4a721bc192ef0cfb613dbdf544690462913"
    ),
    (3, 5, 1, 2, True): (
        60, 3, "be37fb52bcbfe965c21a0cfc8c23a9fb7fca099e1799e414907259704fd5fd66"
    ),
    (3, 5, 1, 2, False): (
        84, 3, "af9a57d247a1995d9d5208a990c9cd1459f1692b9e613809431ddd5d9796cc21"
    ),
}

#: reuse -> sha256 of the new theta bytes of one crzon_step on rastrigin(50),
#: k=1, m=b=1024, delta 0.1, sigma 0.001, the default alpha.  A batch this
#: size spans several blocks of hessian_mean, so its summation order shows.
CRZON_STEP_GOLDEN = {
    True: "f89eb391fe59930c5d5e51cc05c9ce1dd73a3eed1525654eb71e5803ee83c5a2",
    False: "a024ed79c45f25f4dd68a76d7d1433fb5c4285899cd13e4dfba33637224dd2c1",
}

#: (algorithm, reuse, record_stride) -> (iterations, evals_used,
#: sha256 of trajectory bytes); rastrigin d=3, k=2, budget 200, sigma 0.01,
#: seed 4.  No iteration count is a multiple of 7, so the final snapshot
#: appended after the loop is pinned too.
TRAJECTORY_GOLDEN = {
    ("newton", True, 1): (
        40, 200, "dcc1f0ddc917da68b5de22ec44688797ac5e3784d0fdf28f1b426ece313cc2f0"
    ),
    ("newton", True, 7): (
        40, 200, "204b79101708ce8b7414e57c025a65d77a3df8c5c48b10f84c5abc0444990fe5"
    ),
    ("newton", False, 1): (
        25, 200, "8c69dad7023b9abdde75715bfd283216976e341ac1421ecc4feee9dcc4dc278b"
    ),
    ("newton", False, 7): (
        25, 200, "53311c23694be3e060eb52206a2ae5fb13083593babe776c3a5d4409380bc89e"
    ),
    ("gradient_only", True, 1): (
        66, 198, "a2581f74b7683bb80eefc4f3e62b6e185e0700a670722d4064162b3e25906236"
    ),
    ("gradient_only", True, 7): (
        66, 198, "27e656916186d02c5838abee84557bdc3acf2decef9fb43e1b0d883a8a1684af"
    ),
}


@pytest.mark.parametrize("key", sorted(TRAJECTORY_GOLDEN), ids=str)
def test_trajectory_bits(key):
    algorithm, reuse, stride = key
    cfg = build_newton_config(
        {
            "objective": "rastrigin",
            "dim": 3,
            "budget": 200,
            "noise": {"sigma": 0.01},
            "estimator": {"k": 2, "reuse": reuse},
            "record_stride": stride,
            "algorithm": algorithm,
        },
        seed=4,
    )
    rec = run_newton(cfg)
    digest = hashlib.sha256(rec.trajectory.tobytes()).hexdigest()
    assert rec.algorithm == algorithm
    assert (rec.iterations, rec.evals_used, digest) == TRAJECTORY_GOLDEN[key]


@pytest.mark.parametrize("reuse", [True, False])
def test_table_bits(reuse):
    result = run_table(
        {
            "objective": "rastrigin",
            "methods": ["GSF-5", "G2SF-3", "G2SF-9", "G2R-3"],
            "dims": [5],
            "budgets": [600],
            "seeds": 1,
            "seed_base": 0,
            "estimator": {"reuse": reuse},
        }
    )
    got = {
        (reuse, row.method): (row.final_parameter_error.hex(), row.evals_used)
        for row in result.rows
    }
    assert got == {key: val for key, val in TABLE_GOLDEN.items() if key[0] == reuse}


def test_benchmark_table_bits():
    result = run_table(
        {
            "objective": "rastrigin",
            "methods": ["GSF-5", "G2SF-3", "G2SF-9"],
            "dims": [5, 10],
            "budgets": [5000],
            "seeds": 1,
            "seed_base": 0,
        }
    )
    got = {
        (row.method, row.dim): (row.final_parameter_error.hex(), row.evals_used)
        for row in result.rows
    }
    assert got == BENCHMARK_TABLE_GOLDEN


@pytest.mark.parametrize("key", sorted(CRZON_GOLDEN), ids=str)
def test_crzon_bits(key):
    m, b, k, seed, reuse = key
    cfg = build_cubic_config(
        {
            "objective": "quartic",
            "dim": 4,
            "noise": {"sigma": 0.01},
            "crzon": {"k": k, "N": 4, "m": m, "b": b, "delta": 0.1, "alpha": 2.0},
            "estimator": {"reuse": reuse},
        },
        seed=seed,
    )
    rep = run_crzon(cfg)
    digest = hashlib.sha256(rep.theta_r.tobytes()).hexdigest()
    assert (rep.evals_used, rep.r_index, digest) == CRZON_GOLDEN[key]


@pytest.mark.parametrize("reuse", [True, False])
def test_crzon_step_bits(reuse):
    cfg = CubicConfig(
        objective=rastrigin(50), k=1, m=1024, b=1024, delta=0.1,
        noise=LinearGaussianNoise(0.001), reuse=reuse,
    )
    oracle = BudgetedOracle(cfg.objective, cfg.noise, None, np.random.default_rng(1))
    theta, _ = crzon_step(np.linspace(-0.9, 0.9, 50), oracle, cfg, np.random.default_rng(0))
    assert hashlib.sha256(theta.tobytes()).hexdigest() == CRZON_STEP_GOLDEN[reuse]
    assert oracle.evals_used == cfg.step_cost()


ORDERS = range(1, MAX_ORDER + 1)


@pytest.mark.parametrize("k", ORDERS)
def test_grad_weights_cached_exact_readonly(k):
    weights = grad_weights(k)
    assert weights is grad_weights(k)
    assert weights.dtype == np.float64
    assert np.array_equal(weights, grad_stencil(k).to_float())
    with pytest.raises(ValueError):
        weights[0] = 0.0


@pytest.mark.parametrize("k1", ORDERS)
def test_hess_weights_cached_exact_readonly(k1):
    for k2 in ORDERS:
        weights = hess_weights(k1, k2)
        assert weights is hess_weights(k1, k2)
        assert weights.dtype == np.float64
        assert np.array_equal(weights, hess_stencil(k1, k2).to_float())
        with pytest.raises(ValueError):
            weights[0] = 0.0
    assert np.array_equal(hess_weights(k1), hess_stencil(k1).to_float())


def test_weights_reject_bad_orders():
    grad_weights(1)
    with pytest.raises(ValueError):
        grad_weights(1.0)
    with pytest.raises(ValueError):
        grad_weights(MAX_ORDER + 1)
    with pytest.raises(ValueError):
        hess_weights(0, 2)
