"""AMP for LASSO with threshold policies, scalar state evolution, and a
phase-transition experiment harness."""

# scipy.special is imported inside the functions that evaluate it (rng's
# ndtri, amp's ndtr, experiments' erfcx), never at module level: loading it
# is most of a fresh process's start, and se-solve, lasso-path and
# risk-curve, whose closed forms use math.erfc, never call it.
# multiprocessing likewise, in the one function that forks phase-grid
# workers: about 10 ms of a start that only that grid needs

from .amp import AmpState, AmpTrace, amp_run, gaussianity_stats
from .exceptions import (
    AmpPathError,
    BracketFailure,
    Divergence,
    NegativeLambda,
    NonConvergence,
    RangeError,
)
from .experiments import (
    PhaseGrid,
    PhaseGridConfig,
    SweepConfig,
    estimate_half_success_rho,
    interpolate_display_grid,
    lambda_sweep_empirical,
    model_for_instance,
    phase_transition_grid,
    rho_of_delta,
)
from .instances import (
    InstanceConfig,
    Observables,
    ProblemInstance,
    SparseSpec,
    compute_observables,
    sample_instance,
)
from .lasso import LassoResult, kkt_residual, lasso_solve, power_iteration_sq_norm
from .policies import (
    FixedDetection,
    FixedFalseAlarm,
    FixedThreshold,
    ThresholdPolicy,
    fixed_detection_tau,
)
from .priors import (
    Prior,
    detection_prob,
    parse_prior,
    point_mass_at_zero,
    psi_map,
    risk,
    risk_derivative,
    soft_threshold,
    sparse_prior,
    std_normal_cdf,
    std_normal_pdf,
)
from .rng import splitmix64, standard_normal, substreams, trial_seed
from .state_evolution import (
    SEModel,
    SEPoint,
    SETrajectory,
    beta_of_lambda,
    calibrate_gamma,
    lambda_of_beta,
    lasso_path,
    se_trajectory,
    solve_sigma_for_beta,
)

__version__ = "0.1.0"
