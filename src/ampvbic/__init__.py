"""Joint user-activity and data detection for spreading-based grant-free
random access, with a Monte Carlo simulation harness.

The detector alternates a message-passing decoupling pass (received
matrix -> per-element pseudo observations) with variational Bayesian
clustering over an extended symbol alphabet (null symbol + modulation
constellation), then fuses responsibilities, posterior moments, and an
offset likelihood ratio into per-user activity and per-symbol data
decisions.
"""

from .detector import DetectionResult, IterationTrace, run_detector
from .errors import AmpVbicError, ConfigError, DimensionMismatch, \
    NumericalBreakdown, TrialFailure
from .harness import MetricsRecord, compute_aer, compute_ce_mse, compute_ser, \
    run_trials, sweep, write_csv
from .model import ScenarioConfig, build_alphabet, generate_frame

__version__ = "0.1.0"

# Entry points, configuration and result types, and errors.  Everything
# else is reached through its module (ampvbic.amp, ampvbic.vbic, ...).
__all__ = [
    "build_alphabet", "generate_frame", "run_detector", "run_trials", "sweep",
    "write_csv", "compute_aer", "compute_ce_mse", "compute_ser",
    "ScenarioConfig", "DetectionResult", "IterationTrace", "MetricsRecord",
    "AmpVbicError", "ConfigError", "DimensionMismatch", "NumericalBreakdown",
    "TrialFailure",
]
