"""Message-passing decoupling of the linear mixing observation.

One pass turns the received matrix Y (N x J) into per-element pseudo
observations r = x + n with n ~ CN(0, tau), given the current posterior
mean/variance of the target X.  The J columns are independent, so the
six per-column update lines are evaluated matrix-wise:

    tp  = (col2 @ That) / N            (one variance per slot, J)
    P   = A @ Xhat - tp * S            (Onsager-corrected prediction)
    ts  = 1 / (tp + noise_var)
    S   = ts * (Y - P)
    Tau = 1 / (col2 (x) ts)            (outer product, M x J)
    R   = Xhat + Tau * (A^H @ S)

The pass returns R with its noise variances Tau, and advances the state
to the new S in place.  amp_init stores the frame's constants once: its
shape, the column energies col2[m] = sum_n |A[n, m]|^2 and noise_var.  S
persists across outer iterations; everything else is recomputed.

The pass makes one approximation.  The exact variance of row n's
prediction is Tp[n, j] = sum_m |A[n, m]|^2 That[m, j], an N x J matrix
that costs a real N x M product per pass; tp replaces it by its mean over
the N rows, which is exactly (col2 @ That) / N.  For an i.i.d. A the rows
of Tp differ only through the sampling spread of |A|^2 along each row,
which shrinks relative to Tp as M grows; the scalar-variance AMP of
Donoho, Maleki and Montanari (2009) and GAMP (Rangan, 2011) make the same
step.  Once ts is constant over the rows, |A|^2.T @ Ts is exactly
col2 (x) ts, so Tau needs no further approximation and no N x M product
either.  The pass therefore keeps only the two complex products and never
holds |A|^2.

The row sum A^H @ S is formed with the small J x N factor on the left,
as conj(S^H @ A).T, which conjugates the small S, never A.  Written with
A on the left it runs on OpenBLAS's transposed-operand kernel, which is
about 2x slower at large frames: 8.0 instead of 4.5 ms per pass at
M=2000, N=1000, J=10 (2 vCPUs, OpenBLAS 0.3.31).  At M=200, N=100 the
left form is 0.03 ms slower (0.075 vs 0.046 ms), which the large frames
repay many times over.  The two forms differ only in rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, NumericalBreakdown
from .model import _is_int

# Incoming posterior variances are floored here so Tp + noise_var can never
# underflow the division that forms Ts.
VARIANCE_FLOOR = 1e-12


@dataclass
class AmpState:
    """What one decoupling pass hands to the next within a frame; each
    pass advances it in place.

    col2 (M,), the column energies, and noise_var are fixed for the frame;
    S_mat (N x J), the scaled residual, is the one array a pass changes.
    Their sizes are the frame's (N, M, J); no array is N x M.
    """

    col2: np.ndarray
    noise_var: float
    S_mat: np.ndarray


@dataclass
class Posterior:
    """Elementwise posterior mean Xhat and variance That of the M x J target."""

    Xhat: np.ndarray
    That: np.ndarray


@dataclass
class PseudoObservations:
    """What one decoupling pass returns: the scalar observations
    R[m, j] = x[m, j] + CN(0, Tau[m, j]), one per user m and slot j, and
    their noise variances Tau, both M x J.  The clustering step reads R
    in this layout."""

    R: np.ndarray
    Tau: np.ndarray


def amp_init(a_mat: np.ndarray, j: int, e_sym: float,
             noise_var: float) -> tuple[AmpState, Posterior]:
    """State for one frame with mixing matrix A (N x M), J slots and noise
    variance noise_var: the column energies of A, noise_var, a zero
    residual, and the flat prior posterior (mean 0, variance E_sym).  J
    must be an int (not a bool) >= 1 and noise_var > 0 and finite."""
    if not 0.0 < noise_var < np.inf:
        raise ConfigError(f"noise_var must be > 0 and finite, got {noise_var}")
    if a_mat.ndim != 2:
        raise DimensionMismatch("A must be a 2-d array")
    n, m = a_mat.shape
    if m < 1 or n < 1 or not _is_int(j) or j < 1:
        raise DimensionMismatch(f"dimensions must be positive integers, got M={m}, N={n}, J={j!r}")
    state = AmpState(col2=(np.abs(a_mat) ** 2).sum(axis=0),
                     noise_var=noise_var, S_mat=np.zeros((n, j), dtype=complex))
    posterior = Posterior(
        Xhat=np.zeros((m, j), dtype=complex),
        That=np.full((m, j), float(e_sym)),
    )
    return state, posterior


def amp_decouple(a_mat: np.ndarray, y: np.ndarray, posterior: Posterior,
                 state: AmpState) -> PseudoObservations:
    """One decoupling pass over all J columns: returns R and Tau, and
    advances state to this pass's residual in place (a pass that raises
    leaves it as it was).

    state must come from amp_init(a_mat, ...) or an earlier pass on the
    same frame: A, Y and the posterior must fit the shape that it holds.
    Raises NumericalBreakdown when R comes out non-finite, which it does
    whenever Tau does (an infinite Tau times a zero row sum gives NaN).
    """
    (n, j), m = state.S_mat.shape, state.col2.size
    if a_mat.shape != (n, m) or y.shape != (n, j):
        raise DimensionMismatch(
            f"A {a_mat.shape} / Y {y.shape} are not the 2-d (N, M) / (N, J) "
            f"= {(n, m)} / {(n, j)} arrays of the AMP state")
    if posterior.Xhat.shape != (m, j) or posterior.That.shape != (m, j):
        raise DimensionMismatch(
            f"posterior shape {posterior.Xhat.shape} does not match (M, J)=({m}, {j})")

    col2 = state.col2
    that = np.maximum(posterior.That, VARIANCE_FLOOR)

    # tp and ts are one value per slot (J,), broadcast over the N rows.
    tp = (col2 @ that) / n
    p = a_mat @ posterior.Xhat - tp * state.S_mat
    ts = 1.0 / (tp + state.noise_var)
    s = ts * (y - p)
    tau = 1.0 / (col2[:, None] * ts)
    # The row sum puts the small J-row factor on the left (see the module
    # docstring); R comes out C-ordered.
    r = posterior.Xhat + tau * (s.T.conj() @ a_mat).conj().T
    # A NaN or inf in Y, A or the posterior reaches R in this pass, through
    # tau or the row sum; stop here rather than at the clustering step that
    # would meet it next.
    if not np.isfinite(r).all():
        raise NumericalBreakdown(
            "decoupling produced non-finite pseudo observations or variances")
    state.S_mat = s
    return PseudoObservations(R=r, Tau=tau)
