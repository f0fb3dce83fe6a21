"""Exception types raised across the detector and harness, one per
condition whichever layer meets it."""


class AmpVbicError(Exception):
    """Base class for all package errors."""


class ConfigError(AmpVbicError):
    """Invalid scenario, request or argument (the CLI exits 2)."""


class DimensionMismatch(AmpVbicError):
    """Matrix/vector arguments have inconsistent shapes."""


class NumericalBreakdown(AmpVbicError):
    """The iteration produced a value it cannot continue from (the CLI
    reports this family with exit code 3)."""


class TrialFailure(AmpVbicError):
    """A Monte Carlo trial failed; the trial index is in the message and the
    original error is chained as __cause__."""
