"""Message-passing decoupling of the linear mixing observation.

One pass turns the received matrix Y (N x J) into per-element pseudo
observations r = x + n with n ~ CN(0, tau), given the current posterior
mean/variance of the target X.  The J columns are independent, so the
six per-column update lines are evaluated matrix-wise:

    Tp  = |A|^2 @ That
    P   = A @ Xhat - Tp * S            (Onsager-corrected prediction)
    Ts  = 1 / (Tp + noise_var)
    S   = Ts * (Y - P)
    Tau = 1 / (|A|^2.T @ Ts)
    R   = Xhat + Tau * (A^H @ S)

|A|^2 is a per-frame constant: amp_init computes it once from A and keeps
it on the state.  S persists across outer iterations; everything else is
recomputed.

The two sums over the N rows are formed with the small J x N factor on
the left: |A|^2.T @ Ts as (Ts.T @ |A|^2).T and A^H @ S as
conj(S^H @ A).T, which conjugates the small S, never A.  Written with A
on the left, both run on OpenBLAS's transposed-operand kernel, which is
2-3x slower at large frames: at M=2000, N=1000, J=10 (2 vCPUs, OpenBLAS
0.3.31) the two products take 1.4 and 4.5 ms instead of 3.5 and 8.0 ms
per pass.  At M=200, N=100 the |A|^2 product is no slower (0.013 ms) and
the complex one is 0.03 ms slower (0.075 vs 0.046 ms), which the large
frames repay many times over.  The |A|^2 product is bit-identical in
either form; the complex one differs only in rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPositiveNoise, NumericalBreakdown

# Incoming posterior variances are floored here so Tp + noise_var can never
# underflow the division that forms Ts.
VARIANCE_FLOOR = 1e-12


@dataclass
class AmpState:
    """What one decoupling pass hands to the next within a frame.

    abs_a2 is |A|^2 (N x M), fixed for the frame.  S_mat (N x J) is the
    scaled residual, the only quantity that carries information between
    outer iterations.
    """

    abs_a2: np.ndarray
    S_mat: np.ndarray


@dataclass
class Posterior:
    """Elementwise posterior mean Xhat and variance That of the M x J target."""

    Xhat: np.ndarray
    That: np.ndarray


@dataclass
class PseudoObservations:
    """Decoupled scalar observations R[m, j] = x[m, j] + noise, one per user
    m and slot j (M x J), with effective noise variances Tau (M x J).  The
    clustering step reads R in this layout."""

    R: np.ndarray
    Tau: np.ndarray


def amp_init(a_mat: np.ndarray, j: int,
             e_sym: float) -> tuple[AmpState, Posterior]:
    """State for one frame with mixing matrix A (N x M) and J slots: |A|^2,
    a zero residual, and the flat prior posterior (mean 0, variance E_sym)."""
    if a_mat.ndim != 2:
        raise DimensionMismatch("A must be a 2-d array")
    n, m = a_mat.shape
    if m < 1 or n < 1 or j < 1:
        raise DimensionMismatch(f"dimensions must be positive, got M={m}, N={n}, J={j}")
    state = AmpState(abs_a2=np.abs(a_mat) ** 2,
                     S_mat=np.zeros((n, j), dtype=complex))
    posterior = Posterior(
        Xhat=np.zeros((m, j), dtype=complex),
        That=np.full((m, j), float(e_sym)),
    )
    return state, posterior


def amp_decouple(a_mat: np.ndarray, y: np.ndarray, posterior: Posterior,
                 state: AmpState,
                 noise_var: float) -> tuple[PseudoObservations, AmpState]:
    """One decoupling pass over all J columns.

    state must come from amp_init(a_mat, ...) or an earlier pass on the
    same frame: |A|^2 is read from it, not recomputed.  Returns the pseudo
    observations and the refreshed state; the caller carries the state
    into the next outer iteration.  Raises NumericalBreakdown when Tau or R
    comes out non-finite.
    """
    if noise_var <= 0:
        raise NonPositiveNoise(f"noise_var must be > 0, got {noise_var}")
    if a_mat.ndim != 2 or y.ndim != 2:
        raise DimensionMismatch("A and Y must be 2-d arrays")
    n, m = a_mat.shape
    if y.shape[0] != n:
        raise DimensionMismatch(f"Y has {y.shape[0]} rows, expected N={n}")
    j = y.shape[1]
    if posterior.Xhat.shape != (m, j) or posterior.That.shape != (m, j):
        raise DimensionMismatch(
            f"posterior shape {posterior.Xhat.shape} does not match (M, J)=({m}, {j})")
    if state.abs_a2.shape != (n, m) or state.S_mat.shape != (n, j):
        raise DimensionMismatch(
            f"AMP state was built for a different frame shape than A {a_mat.shape}, "
            f"Y {y.shape}")

    abs_a2 = state.abs_a2
    that = np.maximum(posterior.That, VARIANCE_FLOOR)

    tp = abs_a2 @ that
    p = a_mat @ posterior.Xhat - tp * state.S_mat
    ts = 1.0 / (tp + noise_var)
    s = ts * (y - p)
    # Both sums over the N rows put the small J-row factor on the left
    # (see the module docstring); Tau comes out F-ordered, R C-ordered.
    tau = 1.0 / (ts.T @ abs_a2).T
    r = posterior.Xhat + tau * (s.T.conj() @ a_mat).conj().T
    # A NaN or inf in Y, A or the posterior reaches Tau or R in this pass;
    # stop here rather than at the clustering step that would meet it next.
    if not (np.isfinite(tau).all() and np.isfinite(r).all()):
        raise NumericalBreakdown(
            "decoupling produced non-finite pseudo observations or variances")

    new_state = AmpState(abs_a2=abs_a2, S_mat=s)
    return PseudoObservations(R=r, Tau=tau), new_state
