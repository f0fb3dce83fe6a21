"""Activity decisions, symbol decisions, and reference-symbol phase correction.

Activity is decided per user from three additive log-likelihood terms:
the clustering evidence summed over the user's J observations, an offset
term that compares the posterior mean against the active/inactive prior
variances (guarding against false alarms on near-zero estimates), and
the activation prior log-odds ln(p_a / (1 - p_a)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amp import Posterior
from .errors import ConfigError, DimensionMismatch, NumericalBreakdown
from .model import ExtendedAlphabet

# Responsibilities can underflow to exact zero after log-domain softmax;
# both sides of the activity likelihood ratio are floored so the
# log-ratio stays finite.
RESP_FLOOR = 1e-300


@dataclass
class DetectionResult:
    """Final decisions of one detector run.

    Rows of D_hat for users decided inactive are all-zero; rows of active
    users contain constellation symbols only.  activity_hat[m] == 1 exactly
    when llr_dec[m] > 0.
    """

    activity_hat: np.ndarray   # (M,) 0/1
    D_hat: np.ndarray          # (M, J) decided symbols
    channel_hat: np.ndarray    # (M,) channel estimates at the final iteration
    llr_dec: np.ndarray        # (M,) combined decision LLR
    llr_vbi: np.ndarray        # (M,) clustering-evidence LLR
    llr_offset: np.ndarray     # (M,) summed offset LLR


def _offset_llr_matrix(posterior: Posterior, e_sym: float) -> np.ndarray:
    mag2 = np.abs(posterior.Xhat) ** 2
    return (np.log(posterior.That / (e_sym + posterior.That))
            + mag2 / posterior.That - mag2 / (e_sym + posterior.That))


def detect(resp: np.ndarray, posterior: Posterior, channel_hat: np.ndarray,
           alphabet: ExtendedAlphabet, p_a: float,
           include_offset: bool = True) -> DetectionResult:
    """Fuse responsibilities and posterior moments into final decisions.

    resp is symbol-major, (K, M, J), as the clustering state keeps it.
    Symbols of users decided active are the argmax over active components
    (ties resolve to the lowest symbol index); rows of users decided
    inactive are zeroed.  include_offset=False decides activity from the
    clustering-evidence LLR alone (no offsets, no prior): the ablation in
    which false alarms drive the error rate toward the inactive fraction.
    """
    if not 0.0 < p_a < 1.0:
        raise ConfigError(f"activity prior needs 0 < p_a < 1, got {p_a}")
    m, j = posterior.Xhat.shape
    if resp.shape != (alphabet.K, m, j):
        raise DimensionMismatch(
            f"responsibilities {resp.shape} are not (K, M, J) = "
            f"{(alphabet.K, m, j)}")

    num = np.maximum(resp[1:].max(axis=0), RESP_FLOOR)
    den = np.maximum(resp[0], RESP_FLOOR)
    llr_vbi = np.log(num / den).sum(axis=1)
    llr_off = _offset_llr_matrix(posterior, alphabet.E_sym).sum(axis=1)
    if include_offset:
        llr_dec = llr_vbi + llr_off + np.log(p_a / (1.0 - p_a))
    else:
        llr_dec = llr_vbi.copy()

    active = llr_dec > 0.0
    best_k = resp[1:].argmax(axis=0) + 1
    d_hat = np.where(active[:, None], alphabet.symbols[best_k], 0.0 + 0.0j)
    return DetectionResult(
        activity_hat=active.astype(np.int8),
        D_hat=d_hat,
        channel_hat=np.asarray(channel_hat).copy(),
        llr_dec=llr_dec,
        llr_vbi=llr_vbi,
        llr_offset=llr_off,
    )


def correct_phase(d_hat: np.ndarray, alphabet: ExtendedAlphabet) -> np.ndarray:
    """Undo the constellation phase ambiguity of active users' rows.

    Each row of the (n, J) block d_hat is multiplied by the alphabet's
    reference symbol over the row's detected one (slot 1), and every
    corrected symbol snaps to the grid (alphabet.nearest at unit gain):
    for non-constant-modulus constellations the ratio can also rescale
    magnitudes, leaving values between grid points.
    """
    rs_detected = d_hat[:, 0]
    if np.any(rs_detected == 0):
        raise NumericalBreakdown("detected reference symbol is zero")
    return alphabet.nearest(
        d_hat * (alphabet.reference_symbol / rs_detected)[:, None], 1.0)
