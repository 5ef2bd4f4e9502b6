"""Random-direction derivative estimation and the optimizers built on it.

The package splits into exact stencil algebra (:mod:`grdsa.stencils`),
direction families and unbiasing (:mod:`grdsa.perturb`), budgeted noisy
evaluation (:mod:`grdsa.oracle`), the gradient/Hessian estimators
(:mod:`grdsa.estimators`), two solvers (:mod:`grdsa.newton`,
:mod:`grdsa.cubic`) and the experiment harness (:mod:`grdsa.harness`).
"""

from .cubic import (
    CubicConfig,
    CubicSolution,
    SospReport,
    crzon_step,
    cubic_model_value,
    from_epsilon,
    run_crzon,
    solve_cubic_subproblem,
)
from .estimators import (
    batch_gradient,
    batch_hessian,
    fit_loglog_slope,
    gradient_deviation,
    hessian_deviation,
)
from .newton import (
    Box,
    NewtonConfig,
    RunRecord,
    Schedules,
    clamped_newton_direction,
    iteration_cost,
    newton_step,
    run_newton,
    theta_operator,
    validate_schedules,
)
from .oracle import (
    BudgetedOracle,
    BudgetExhausted,
    BudgetTooSmall,
    LinearGaussianNoise,
    Objective,
    exp_sin,
    parameter_error,
    quadratic,
    quartic,
    rastrigin,
    saddle_quartic,
)
from .perturb import (
    PerturbationSpec,
    gaussian,
    gradient_unbias_factor,
    scaling_matrix,
    uniform,
)
from .stencils import (
    MAX_ORDER,
    Stencil,
    coeff,
    grad_stencil,
    hess_stencil,
    residual_coefficient,
    verify_identities,
)

__version__ = "0.1.0"
