"""Scalar reference forms of the clustering expectations.

The detector never forms these terms one (s, k) at a time: its
responsibility update drops the ones the softmax cancels and computes the
rest for all rows at once.  These scalar versions keep every term, so tests
use them as the reference the production update is checked against.
"""

import numpy as np
from scipy.special import digamma

from ampvbic.model import ExtendedAlphabet
from ampvbic.vbic import VbicState


def expected_log_pi(state: VbicState, s: int) -> np.ndarray:
    """E[ln pi_sk] for one observation: digamma(alpha_sk) - digamma(sum_k alpha_sk)."""
    row = state.alpha[s]
    return digamma(row) - digamma(row.sum())


def expected_log_tau(state: VbicState) -> float:
    """E[ln tau] = digamma(a) - ln(b)."""
    return float(digamma(state.a) - np.log(state.b))


def expected_sq_err(state: VbicState, s: int, k: int, r_s: complex,
                    alphabet: ExtendedAlphabet) -> float:
    """E[tau |r_s - mu_m d_k|^2] under the current channel/precision posterior."""
    m = s // state.J
    d_k = alphabet.symbols[k]
    quad = (np.abs(r_s) ** 2
            + np.abs(d_k) ** 2 * np.abs(state.mu[m]) ** 2
            - 2.0 * np.real(np.conj(r_s) * state.mu[m] * d_k))
    return float((state.a / state.b) * quad + np.abs(d_k) ** 2 / state.lam[m])
