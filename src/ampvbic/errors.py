"""Exception types raised across the detector and harness."""


class AmpVbicError(Exception):
    """Base class for all package errors."""


class ConfigError(AmpVbicError):
    """Invalid scenario or experiment configuration."""


class DimensionMismatch(AmpVbicError):
    """Matrix/vector arguments have inconsistent shapes."""


class NonPositiveNoise(AmpVbicError):
    """Noise variance must be strictly positive."""


class NumericalBreakdown(AmpVbicError):
    """The iteration produced a value it cannot continue from (the CLI
    reports this family with exit code 3)."""


class NonPositiveScale(NumericalBreakdown):
    """The Gamma rate parameter went non-positive or non-finite."""


class PrecisionDegenerate(NumericalBreakdown):
    """Gamma shape <= 1: the inverse-precision mean does not exist."""


class ZeroReferenceSymbol(AmpVbicError):
    """Phase correction was asked to divide by a zero reference symbol."""


class InvalidAxis(ConfigError):
    """Unsupported sweep axis name."""


class TrialFailure(AmpVbicError):
    """A Monte Carlo trial failed; the trial index is in the message and the
    original error is chained as __cause__."""
