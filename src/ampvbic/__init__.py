"""Joint user-activity and data detection for spreading-based grant-free
random access, with a Monte Carlo simulation harness.

The detector alternates a message-passing decoupling pass (received
matrix -> per-element pseudo observations) with variational Bayesian
clustering over an extended symbol alphabet (null symbol + modulation
constellation), then fuses responsibilities, posterior moments, and an
offset likelihood ratio into per-user activity and per-symbol data
decisions.
"""

from .amp import AmpState, Posterior, PseudoObservations, amp_decouple, \
    amp_init, flatten_obs, obs_slice, unflatten_obs
from .decide import DetectionResult, correct_phase, decision_llr, detect, \
    offset_llr, vbi_activity_llr
from .detector import IterationTrace, run_detector, run_detector_internals
from .errors import AmpVbicError, ConfigError, DimensionMismatch, \
    InvalidAxis, LengthMismatch, NonPositiveNoise, NonPositiveScale, \
    NumericalBreakdown, PrecisionDegenerate, ShapeMismatch, TrialFailure, \
    ZeroReferenceSymbol
from .harness import DETECTOR_NAMES, MetricsRecord, aggregate, genie_detect, \
    run_trials, sweep, trial_rng, write_csv
from .metrics import compute_aer, compute_ce_mse, compute_ser
from .model import ExtendedAlphabet, Modulation, ScenarioConfig, \
    ScenarioInstance, build_alphabet, draw_spreading_matrix, generate_frame, \
    noise_variance_from_snr
from .vbic import VbicState, expected_log_pi, expected_log_tau, \
    expected_sq_err, posterior_moments, posterior_variance_full, \
    update_channel, update_dirichlet, update_gamma, update_responsibilities, \
    vbic_init, vbic_step, warm_start_channel

__version__ = "0.1.0"

__all__ = [
    "AmpState", "Posterior", "PseudoObservations", "amp_decouple", "amp_init",
    "flatten_obs", "obs_slice", "unflatten_obs",
    "DetectionResult", "correct_phase", "decision_llr", "detect",
    "offset_llr", "vbi_activity_llr",
    "IterationTrace", "run_detector", "run_detector_internals",
    "AmpVbicError", "ConfigError", "DimensionMismatch", "InvalidAxis",
    "LengthMismatch", "NonPositiveNoise", "NonPositiveScale",
    "NumericalBreakdown", "PrecisionDegenerate", "ShapeMismatch",
    "TrialFailure", "ZeroReferenceSymbol",
    "DETECTOR_NAMES", "MetricsRecord", "aggregate", "genie_detect",
    "run_trials", "sweep", "trial_rng", "write_csv",
    "compute_aer", "compute_ce_mse", "compute_ser",
    "ExtendedAlphabet", "Modulation", "ScenarioConfig", "ScenarioInstance",
    "build_alphabet", "draw_spreading_matrix", "generate_frame",
    "noise_variance_from_snr",
    "VbicState", "expected_log_pi", "expected_log_tau", "expected_sq_err",
    "posterior_moments", "posterior_variance_full", "update_channel",
    "update_dirichlet", "update_gamma", "update_responsibilities",
    "vbic_init", "vbic_step", "warm_start_channel",
    "__version__",
]
