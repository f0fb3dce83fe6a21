"""System model: symbol alphabets, scenario configuration, frame synthesis.

A frame is one block transmission of M users over a length-N spreading
code and J symbol slots: Y = A @ X + W with X = diag(mu) @ D.  Each user
is active with probability p_a; inactive users contribute all-zero rows
to D and X (joint sparsity).  Active users send a fixed reference symbol
in slot 1 and uniform random constellation symbols in slots 2..J.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ConfigError


class Modulation(str, enum.Enum):
    QPSK = "qpsk"
    QAM16 = "qam16"


@dataclass(frozen=True, eq=False)
class ExtendedAlphabet:
    """Modulation alphabet extended with the null symbol at index 0.

    symbols[0] == 0 represents "inactive user"; symbols[1:] is the active
    constellation, sorted by (real, imag) so the alphabet order (and hence
    the reference symbol) is deterministic.  K and E_sym are derived from
    symbols.  Alphabets compare and hash by identity.
    """

    symbols: np.ndarray

    def __post_init__(self):
        self.symbols.setflags(write=False)

    def __reduce__(self):
        # Rebuild through the constructor, so a copy sent to another process
        # is read-only too and rebuilds its symbol basis read-only; the
        # default state copy would arrive with writeable arrays.
        return type(self), (self.symbols,)

    @property
    def K(self) -> int:
        """Alphabet size, the null symbol included."""
        return self.symbols.size

    @cached_property
    def E_sym(self) -> float:
        """Mean energy of the active symbols."""
        return float(np.mean(np.abs(self.active_symbols) ** 2))

    @property
    def active_symbols(self) -> np.ndarray:
        return self.symbols[1:]

    @property
    def reference_symbol(self) -> complex:
        """First active symbol; transmitted in slot 1 by every active user."""
        return complex(self.symbols[1])

    @cached_property
    def symbol_basis(self) -> np.ndarray:
        """[Re d; Im d; |d|^2], 3 x K, read-only.  The clustering step's
        real products run against it; it is built once per alphabet."""
        d = self.symbols
        basis = np.stack((d.real, d.imag, np.abs(d) ** 2))
        basis.setflags(write=False)
        return basis


def build_alphabet(modulation: Modulation | str) -> ExtendedAlphabet:
    """The extended (null + active) symbol alphabet of a modulation.

    QPSK: the four unit-energy symbols (+-1 +-1j)/sqrt(2).
    QAM16: the square grid {+-1, +-3} x {+-1, +-3} scaled by 1/sqrt(10),
    which normalizes the constellation to unit average energy.  Equal
    modulations ('qpsk', Modulation.QPSK) share one alphabet.
    """
    return _build_alphabet(Modulation(modulation))


@cache
def _build_alphabet(modulation: Modulation) -> ExtendedAlphabet:
    if modulation is Modulation.QPSK:
        pts = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
    else:
        levels = np.array([-3.0, -1.0, 1.0, 3.0])
        pts = (levels[:, None] + 1j * levels[None, :]).ravel() / np.sqrt(10.0)
    order = np.lexsort((pts.imag, pts.real))
    return ExtendedAlphabet(symbols=np.concatenate(([0.0 + 0.0j], pts[order])))


def noise_variance_from_snr(snr_db: float, e_sym: float) -> float:
    """Noise variance sigma_n^2 = E_sym * 10**(-snr_db/10); ConfigError
    where it overflows a float (snr_db below about -3083 at unit E_sym)."""
    if e_sym <= 0:
        raise ConfigError(f"E_sym must be positive, got {e_sym}")
    try:
        # float() first: a numpy snr_db would overflow with a warning
        # instead of the OverflowError caught here.
        noise_var = float(e_sym * 10.0 ** (-float(snr_db) / 10.0))
    except OverflowError:
        noise_var = math.inf
    if not math.isfinite(noise_var):
        raise ConfigError(f"snr_db={snr_db} gives a non-finite noise variance")
    return noise_var


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one simulated grant-free access scenario.

    J counts the reference-symbol slot plus J-1 data slots.  A config is a
    scenario the detector can run: 0 < p_a < 1, so the activity prior
    log-odds stay finite, and snr_db gives a positive, finite noise
    variance (empty or all-active frames come from generate_frame's
    n_active).  modulation must name a Modulation.  Every other field must
    be a real number (not a bool), and M, N, J, n_it and seed integral
    ones, which are stored as int; seed must be >= 0, as numpy's seed
    sequences require.  Anything else raises ConfigError.
    """

    M: int
    N: int
    J: int
    p_a: float
    snr_db: float
    modulation: Modulation = Modulation.QAM16
    n_it: int = 20
    seed: int = 0

    def __post_init__(self):
        try:
            modulation = Modulation(self.modulation)
        except (TypeError, ValueError):
            raise ConfigError(
                f"modulation must be one of {[m.value for m in Modulation]}, "
                f"got {self.modulation!r}") from None
        object.__setattr__(self, "modulation", modulation)
        for name in ("M", "N", "J", "p_a", "snr_db", "n_it", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        for name in ("M", "N", "J", "n_it", "seed"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral)
                    or float(value).is_integer()):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.M < 1 or self.N < 1:
            raise ConfigError(f"M and N must be >= 1, got M={self.M}, N={self.N}")
        if self.J < 2:
            raise ConfigError(f"J must be >= 2 (reference symbol + data), got {self.J}")
        if not 0.0 < self.p_a < 1.0:
            raise ConfigError(f"detection needs 0 < p_a < 1, got {self.p_a}")
        # noise_variance_from_snr raises where the variance is not finite
        # (nan, -inf, about -3083 dB and below); inf and about +3236 dB and
        # above underflow to 0.
        if noise_variance_from_snr(self.snr_db,
                                   build_alphabet(modulation).E_sym) == 0.0:
            raise ConfigError(f"snr_db={self.snr_db} gives noise variance 0; "
                              f"detection needs a positive one")
        if self.n_it < 1:
            raise ConfigError(f"n_it must be >= 1, got {self.n_it}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ScenarioInstance:
    """One synthesized frame plus the ground truth behind it.

    mu holds the Rayleigh gains of active users and exact zeros for
    inactive users (the convention under which channel-estimation MSE is
    scored).  Y = A @ X + W with the drawn noise W of variance noise_var.
    """

    A: np.ndarray          # (N, M) complex spreading matrix
    activity: np.ndarray   # (M,) 0/1
    mu: np.ndarray         # (M,) complex channel gains, 0 for inactive
    D: np.ndarray          # (M, J) transmitted symbols
    X: np.ndarray          # (M, J) = diag(mu) @ D
    Y: np.ndarray          # (N, J) received
    noise_var: float

    def __post_init__(self):
        for arr in (self.A, self.activity, self.mu, self.D, self.X, self.Y):
            arr.setflags(write=False)


def draw_spreading_matrix(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. circularly-symmetric complex Gaussian entries, unit variance.

    The real and then the imaginary draw are scaled straight into the
    parts of one complex array, so no complex temporary is formed; the
    values are bit-identical to (z_re + 1j*z_im) / sqrt(2).
    """
    a_mat = np.empty((n, m), dtype=complex)
    np.multiply(rng.standard_normal((n, m)), 1.0 / np.sqrt(2.0), out=a_mat.real)
    np.multiply(rng.standard_normal((n, m)), 1.0 / np.sqrt(2.0), out=a_mat.imag)
    return a_mat


def _draw_activity(config: ScenarioConfig, rng: np.random.Generator,
                   n_active: int | None) -> np.ndarray:
    if n_active is None:
        return (rng.random(config.M) < config.p_a).astype(np.int8)
    if not 0 <= n_active <= config.M:
        raise ConfigError(f"n_active must lie in [0, M], got {n_active}")
    activity = np.zeros(config.M, dtype=np.int8)
    activity[rng.choice(config.M, size=n_active, replace=False)] = 1
    return activity


def generate_frame(config: ScenarioConfig, rng: np.random.Generator,
                   n_active: int | None = None) -> ScenarioInstance:
    """Draw one random frame.

    Activity is Bernoulli(p_a) per user unless n_active pins the exact
    number of active users (used by sweeps whose axis is the active-user
    count).  Channel gains are CN(0,1); data symbols are uniform over the
    active constellation of config.modulation; slot 1 carries the
    reference symbol.
    """
    m, n, j = config.M, config.N, config.J
    alphabet = build_alphabet(config.modulation)
    activity = _draw_activity(config, rng, n_active)
    mu_all = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0)
    mu = mu_all * activity

    # Symbols are drawn for every user, then inactive rows are zeroed, so the
    # RNG stream consumed does not depend on the activity draw.
    data = alphabet.active_symbols[rng.integers(0, alphabet.K - 1, size=(m, j - 1))]
    d_mat = np.concatenate(
        [np.full((m, 1), alphabet.reference_symbol, dtype=complex), data], axis=1)
    d_mat[activity == 0, :] = 0.0

    a_mat = draw_spreading_matrix(n, m, rng)
    x_mat = mu[:, None] * d_mat
    noise_var = noise_variance_from_snr(config.snr_db, alphabet.E_sym)
    w = (rng.standard_normal((n, j)) + 1j * rng.standard_normal((n, j))) \
        * np.sqrt(noise_var / 2.0)
    y = a_mat @ x_mat + w
    return ScenarioInstance(A=a_mat, activity=activity, mu=mu, D=d_mat,
                            X=x_mat, Y=y, noise_var=noise_var)
