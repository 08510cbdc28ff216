"""The names exported by ``amppath`` are the library's fixed boundary, so
adding or removing one must show as an edit to this list."""

import types

import amppath

PUBLIC_API = {
    # exceptions
    "AmpPathError", "BracketFailure", "DimensionError", "Divergence", "NegativeLambda",
    "NonConvergence", "RangeError", "RankError",
    # amp
    "AmpState", "AmpTrace", "amp_run", "gaussianity_stats",
    # experiments
    "PhaseGrid", "PhaseGridConfig", "SweepConfig", "estimate_half_success_rho",
    "interpolate_display_grid", "lambda_sweep_empirical", "model_for_instance",
    "phase_transition_grid", "rho_of_delta",
    # instances
    "InstanceConfig", "Observables", "ProblemInstance", "SparseSpec", "compute_observables",
    "sample_instance",
    # lasso
    "LassoResult", "kkt_residual", "lasso_solve", "power_iteration_sq_norm",
    # policies
    "FixedDetection", "FixedFalseAlarm", "FixedThreshold", "ThresholdPolicy",
    "fixed_detection_tau", "fixed_false_alarm_tau", "solve_tau_for_detection",
    # priors
    "Prior", "PsiParams", "atom_risk", "detection_prob", "parse_prior", "point_mass_at_zero",
    "psi_map", "risk", "risk_derivative", "soft_threshold", "sparse_prior", "std_normal_cdf",
    "std_normal_pdf",
    # rng
    "splitmix64", "standard_normal", "substreams", "trial_seed",
    # state evolution
    "SEModel", "SEPoint", "SETrajectory", "beta_of_lambda", "calibrate_gamma",
    "lambda_of_beta", "lasso_path", "se_trajectory", "solve_sigma_for_beta",
}


def test_public_names_are_pinned():
    exported = {
        name for name, value in vars(amppath).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_API
