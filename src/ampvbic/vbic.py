"""Variational Bayesian clustering of pseudo observations.

The decoupling step hands over one pseudo observation r[m, j] per user m
and slot j, as an (M, J) array, and every update here reads it in that
layout.  Each r[m, j] is modeled as a Gaussian mixture over the extended
alphabet: component k has mean mu_m * d_k and a precision tau shared by
all observations.  Conjugate priors -- Dirichlet on the per-observation
mixing weights, complex Gaussian on the channel gains mu_m, Gamma on
tau -- give closed-form coordinate updates:

    alpha[k,m,j] += e[k,m,j]                              (Dirichlet counts)
    lam_m  = lam_m + sum_{j,k} e[k,m,j] |d_k|^2
    mu_m   = (lam_m_old * mu_m_old + sum_{j,k} e[k,m,j] conj(d_k) r[m,j]) / lam_m
    a      = a + M*J
    b      = b + sum_m lam_old |mu_old|^2 + sum_{k,m,j} e |r[m,j]|^2 - sum_m lam |mu|^2
    e[k,m,j] ~ softmax_k( E[ln tau] - ln(pi) + E[ln pi_kmj]
                          - E[tau |r[m,j] - mu_m d_k|^2] )

The per-observation arrays alpha and resp are symbol-major, (K, M, J):
every update reduces over the K components of each observation, and with
K on the leading axis those reductions combine whole contiguous (M, J)
planes instead of running along short rows of K elements.  Their trailing
(M, J) axes line up with r, so per-user sums are sums over the last axis.

The responsibilities are computed up to per-observation constants:
E[ln tau], -ln(pi), -digamma(sum_k alpha_kmj) and E[tau] |r[m,j]|^2 are
the same for every k of one observation, so the softmax cancels them and
they are never formed.  What is left is digamma(alpha_kmj) plus

    2 E[tau] Re(conj(r[m,j]) mu_m d_k) - (E[tau] |mu_m|^2 + 1/lam_m) |d_k|^2,

one real (K x 3) @ (3 x MJ) product against the symbol basis
[Re d; Im d; |d|^2], with the (3, M, J) coefficients and the (K, M, J)
result viewed as matrices for it.  The symbol moments the channel update
and the posterior moments need -- Re E[d], Im E[d] and E|d|^2 under e --
are the transposed product, (3 x K) @ (K x MJ).  The basis belongs to the
alphabet (ExtendedAlphabet.symbol_basis): it is built once per alphabet,
read-only, not once per update.

Every update reads only the state, which holds the alphabet, and its
arguments: the Gamma rate update takes the pre-refresh channel (lam_old,
mu_old), kept by the caller from before update_channel.  Each iteration
ends with the posterior moments of x[m, j] = mu_m * d, handed back to
the decoupling module.  Updated parameters become the next iteration's
priors, so counts accumulate across outer iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma

from .errors import DimensionMismatch, NumericalBreakdown
from .amp import Posterior
from .model import ExtendedAlphabet, _is_int

ALPHA_0 = 0.1
A_0 = 1e-4
B_0 = 1.0
LAMBDA_0 = 1.0


@dataclass
class VbicState:
    """All variational parameters, updated in place, and the alphabet of
    K symbols they cluster over, fixed for the frame.

    alpha (per-observation Dirichlet) and resp (responsibilities) are
    C-contiguous K x M x J arrays: component k of observation (m, j) is
    [k, m, j], so reductions over the symbol axis run over axis 0 on
    contiguous planes (see the module docstring), and their shape is the
    state's dimensions.  lam/mu are per-user Gaussian channel-posterior
    parameters, (a, b) the shared Gamma precision posterior.  lam and mu
    are only ever rebound, never written in place, so a caller can keep
    the pre-refresh channel that update_gamma takes without copying it.
    """

    alphabet: ExtendedAlphabet
    alpha: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    a: float
    b: float
    resp: np.ndarray


def vbic_init(alphabet: ExtendedAlphabet, m: int, j: int) -> VbicState:
    """Fresh state over alphabet's K symbols for M users and J slots:
    alpha=0.1, a=1e-4, b=1, uniform responsibilities, unit-precision
    zero-mean channel prior.  K >= 2; M, J must be ints (not bools) >= 1."""
    k = alphabet.K
    if not all(map(_is_int, (m, j))) or k < 2 or m < 1 or j < 1:
        raise DimensionMismatch(f"bad dimensions K={k!r}, M={m!r}, J={j!r}")
    return VbicState(
        alphabet=alphabet,
        alpha=np.full((k, m, j), ALPHA_0),
        lam=np.full(m, LAMBDA_0),
        mu=np.zeros(m, dtype=complex),
        a=A_0,
        b=B_0,
        resp=np.full((k, m, j), 1.0 / k),
    )


def _check_observations(state: VbicState, r: np.ndarray) -> None:
    """r must be the (M, J) array the state was built for: one of another
    shape is rejected, even when its size matches."""
    if r.shape != state.resp.shape[1:]:
        raise DimensionMismatch(
            f"expected (M, J) = {state.resp.shape[1:]} observations, "
            f"got shape {r.shape}")


def _symbol_moments(state: VbicState) -> np.ndarray:
    """Re E[d], Im E[d] and E|d|^2 of every observation under resp,
    3 x M x J, from one real product."""
    k, m, j = state.resp.shape
    moments = state.alphabet.symbol_basis @ state.resp.reshape(k, m * j)
    return moments.reshape(3, m, j)


def warm_start_channel(state: VbicState, r: np.ndarray) -> None:
    """Seed the channel prior means from the reference-symbol observations.

    With exactly uniform responsibilities and a zero-mean channel prior,
    the channel update is a fixed point at zero for any symmetric
    constellation (the symbol-weighted sums cancel), so nothing would
    ever be detected.  Slot 1 of every user carries a known symbol; its
    pseudo observation gives the one-shot estimate mu_m = r[m, 0] / d_ref
    that breaks the symmetry deterministically.
    """
    _check_observations(state, r)
    state.mu = r[:, 0] / state.alphabet.reference_symbol


def update_dirichlet(state: VbicState) -> None:
    """Accumulate responsibilities into the Dirichlet parameters."""
    state.alpha += state.resp


def update_channel(state: VbicState, r: np.ndarray) -> None:
    """Refresh the per-user channel posterior (lam, mu).

    Only user m's J observations contribute to its parameters; the null
    symbol contributes nothing (|d_0|^2 = 0).  lam and mu are rebound to
    new arrays, never written in place, so the arrays they held before
    stay valid as the pre-refresh channel that update_gamma takes.
    """
    _check_observations(state, r)
    mean_re, mean_im, e_abs_d2 = _symbol_moments(state)
    # sum_k e_kmj conj(d_k) r_mj = conj(E[d_mj]) r_mj
    cross = ((mean_re - 1j * mean_im) * r).sum(axis=1)
    lam_new = state.lam + e_abs_d2.sum(axis=1)
    state.mu = (state.lam * state.mu + cross) / lam_new
    state.lam = lam_new


def update_gamma(state: VbicState, r: np.ndarray, lam_prior: np.ndarray,
                 mu_prior: np.ndarray) -> None:
    """Refresh the shared precision posterior (a, b).

    The rate update combines the channel parameters of this iteration's
    update_channel with lam_prior and mu_prior, the lam and mu the state
    held before it.
    """
    _check_observations(state, r)
    # A diverging frame overflows these sums; the check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        b_new = (state.b
                 + np.sum(lam_prior * np.abs(mu_prior) ** 2)
                 + np.sum(state.resp.sum(axis=0) * np.abs(r) ** 2)
                 - np.sum(state.lam * np.abs(state.mu) ** 2))
    if not np.isfinite(b_new) or b_new <= 0:
        raise NumericalBreakdown(f"Gamma rate went non-positive or non-finite: {b_new}")
    state.a = state.a + r.size
    state.b = float(b_new)


def update_responsibilities(state: VbicState, r: np.ndarray) -> None:
    """Softmax over the symbol axis of ln rho_kmj, formed up to
    per-observation constants (see the module docstring) and computed in
    the log domain with max-subtraction so large quadratic terms cannot
    overflow."""
    _check_observations(state, r)
    e_tau = state.a / state.b
    z = np.conj(r) * state.mu[:, None]
    coef = np.empty((3,) + r.shape)
    coef[0] = 2.0 * e_tau * z.real
    coef[1] = -2.0 * e_tau * z.imag
    coef[2] = -(e_tau * np.abs(state.mu) ** 2 + 1.0 / state.lam)[:, None]
    # Re(z d) = Re(z) Re(d) - Im(z) Im(d), so one real product gives every term.
    ln_rho = (state.alphabet.symbol_basis.T @ coef.reshape(3, r.size)).reshape(
        state.resp.shape)
    ln_rho += digamma(state.alpha)
    ln_rho -= ln_rho.max(axis=0)
    np.exp(ln_rho, out=ln_rho)
    ln_rho /= ln_rho.sum(axis=0)
    state.resp = ln_rho


def _target_moments(state: VbicState
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """E[d], E|d|^2 and the symbol spread E|d|^2 - |E[d]|^2 of every
    observation under resp (M x J), and the inverse-precision mean
    E[1/(lam_m tau)] = b / (lam_m (a - 1)) per user, which requires a > 1."""
    if state.a <= 1.0:
        raise NumericalBreakdown(f"Gamma shape must exceed 1, got {state.a}")
    mean_re, mean_im, e_abs_d2 = _symbol_moments(state)
    spread = e_abs_d2 - (mean_re ** 2 + mean_im ** 2)
    # The spread is a variance of a discrete distribution, so only
    # floating-point cancellation can push it below zero; anything further
    # below, or NaN, means the responsibilities have broken down.
    if not spread.min() > -1e-12:
        raise NumericalBreakdown(
            f"symbol spread went negative or non-finite: {spread.min()}")
    v = state.b / (state.lam * (state.a - 1.0))
    return mean_re + 1j * mean_im, e_abs_d2, np.maximum(spread, 0.0), v


def posterior_moments(state: VbicState) -> Posterior:
    """Posterior mean/variance of every target element x_{m,j} = mu_m * d.

    Mean: mu_m * sum_k e_kmj d_k.  Variance: E[1/(lam_m tau)] times the
    responsibility-weighted symbol spread; the inverse-precision mean
    b/(a-1) requires a > 1.  The variance is not floored: one-hot
    responsibilities give exactly zero, which amp_decouple floors.
    """
    mean_d, _, spread, v = _target_moments(state)
    return Posterior(Xhat=state.mu[:, None] * mean_d,
                     That=v[:, None] * spread)


def posterior_variance_full(state: VbicState) -> np.ndarray:
    """Exact posterior variance of x_{m,j} = mu_m * d under q, (M, J).

    Var[x] = E|mu|^2 E|d|^2 - |E mu|^2 |E d|^2
           = E[(lam tau)^-1] * sum_k e_kmj |d_k|^2  +  |mu_m|^2 * spread.

    Forms the symbol moments from resp itself, so it reads only the
    state and may run at any point.  The factored variance fed back to
    the decoupling module keeps only the first-term spread component, which
    understates the uncertainty of x whenever the channel estimate or the
    mean symbol is nonzero.  Activity decisions compare |x|^2 against this
    variance, so they use the exact form: with the factored one, the
    inactive-user variance collapses as parameters accumulate and false
    alarms grow without bound.  It is not floored: the decision floors
    what it divides by (detector._offset_llr_matrix).
    """
    _, e_abs_d2, spread, v = _target_moments(state)
    return v[:, None] * e_abs_d2 + (np.abs(state.mu) ** 2)[:, None] * spread


def vbic_step(state: VbicState, r: np.ndarray) -> Posterior:
    """One full clustering iteration on the (M, J) pseudo observations r,
    in update order: Dirichlet counts, channel refresh, precision refresh,
    responsibilities, moments.  The state is advanced in place."""
    update_dirichlet(state)
    lam_prior, mu_prior = state.lam, state.mu
    update_channel(state, r)
    update_gamma(state, r, lam_prior, mu_prior)
    update_responsibilities(state, r)
    return posterior_moments(state)
