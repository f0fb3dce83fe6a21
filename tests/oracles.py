"""Reference forms of the decoupling pass and the clustering updates,
written the long way.

The decoupling pass never forms |A|^2: it keeps the column energies of A
and one prediction variance per slot.  plain_amp_pass below writes the six
update lines with the full N x M |A|^2, either exactly (one variance per
row and slot) or with that variance averaged over the rows, which is the
production pass's one approximation.

The detector never forms the expectations one (s, k) at a time: its
responsibility update drops the terms the softmax cancels and computes the
rest for all observations at once.  The scalar versions below keep every
term, so tests use them as the reference the production update is checked
against.

The detector keeps alpha and resp symbol-major, (K, M, J), reads the
observations r as (M, J), and forms the symbol moments with one real
product.  The flat forms below number the observations s = j + m*J and
use the (S, K) layout, one row per observation, and the complex products
resp @ d and resp @ conj(d) as the equations are written; they are the
reference for the symbol-major code.

The fixtures the unit tests share, unit_alphabet, unit_posterior,
detect_users and EULER_GAMMA, are defined here once.
"""

import numpy as np
from scipy.special import digamma

from ampvbic.amp import VARIANCE_FLOOR, Posterior
from ampvbic.detector import DetectionResult, detect
from ampvbic.model import ExtendedAlphabet
from ampvbic.vbic import VbicState

EULER_GAMMA = 0.5772156649015328606


def unit_alphabet() -> ExtendedAlphabet:
    """Two-symbol alphabet {0, 1}: the smallest case for hand evaluations."""
    return ExtendedAlphabet(symbols=np.array([0.0 + 0.0j, 1.0 + 0.0j]))


def unit_posterior(xhat) -> Posterior:
    """Posterior means the rows of xhat, one row per user, at unit variance."""
    xhat = np.array(xhat, dtype=complex)
    return Posterior(Xhat=xhat, That=np.ones(xhat.shape))


def detect_users(resp, xhat, p_a=0.1, e_sym=1.0,
                 include_offset=True) -> DetectionResult:
    """detect() over the alphabet {0, sqrt(e_sym)}, whose prior energy is
    e_sym, for the users whose posterior means are the rows of xhat (unit
    variance); resp has one row per observation.  include_offset=False
    gives the clustering evidence alone as llr_dec."""
    posterior = unit_posterior(xhat)
    m = posterior.Xhat.shape[0]
    alph = ExtendedAlphabet(symbols=np.array([0.0, np.sqrt(e_sym)],
                                             dtype=complex))
    return detect(k_major(resp, m), posterior, np.zeros(m, dtype=complex),
                  alph, p_a, include_offset)


def plain_amp_pass(a: np.ndarray, y: np.ndarray, posterior: Posterior,
                   s_prev: np.ndarray, noise_var: float, *,
                   row_averaged: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, Tau, S) of one decoupling pass with |A|^2 formed in full.

    row_averaged=False is the exact-variance pass, Tp = |A|^2 @ That per
    row; row_averaged=True replaces Tp by its mean over the N rows,
    broadcast back to every row.
    """
    abs_a2 = np.abs(a) ** 2
    tp = abs_a2 @ np.maximum(posterior.That, VARIANCE_FLOOR)
    if row_averaged:
        tp = np.broadcast_to(tp.mean(axis=0), tp.shape)
    p = a @ posterior.Xhat - tp * s_prev
    ts = 1.0 / (tp + noise_var)
    s = ts * (y - p)
    tau = 1.0 / (abs_a2.T @ ts)
    r = posterior.Xhat + tau * (a.conj().T @ s)
    return r, tau, s


def k_major(rows_sk, m: int) -> np.ndarray:
    """An (S, K) array of per-observation rows in the detector's
    (K, M, J) layout, same values."""
    rows_sk = np.asarray(rows_sk, dtype=float)
    return np.ascontiguousarray(rows_sk.T).reshape(rows_sk.shape[1], m, -1)


def flat_rows(arr_kmj: np.ndarray) -> np.ndarray:
    """A (K, M, J) array as (S, K) rows, s = j + m*J."""
    return arr_kmj.reshape(arr_kmj.shape[0], -1).T


def expected_log_pi(state: VbicState, s: int) -> np.ndarray:
    """E[ln pi_sk] for one observation: digamma(alpha_sk) - digamma(sum_k alpha_sk)."""
    row = flat_rows(state.alpha)[s]
    return digamma(row) - digamma(row.sum())


def expected_log_tau(state: VbicState) -> float:
    """E[ln tau] = digamma(a) - ln(b)."""
    return float(digamma(state.a) - np.log(state.b))


def expected_sq_err(state: VbicState, s: int, k: int, r_s: complex) -> float:
    """E[tau |r_s - mu_m d_k|^2] under the current channel/precision
    posterior, d_k from the state's alphabet."""
    m = s // state.resp.shape[2]
    d_k = state.alphabet.symbols[k]
    quad = (np.abs(r_s) ** 2
            + np.abs(d_k) ** 2 * np.abs(state.mu[m]) ** 2
            - 2.0 * np.real(np.conj(r_s) * state.mu[m] * d_k))
    return float((state.a / state.b) * quad + np.abs(d_k) ** 2 / state.lam[m])


def flat_symbol_moments(resp_sk: np.ndarray, alphabet: ExtendedAlphabet,
                        m: int) -> tuple[np.ndarray, np.ndarray]:
    """E[d] = resp @ d and E|d|^2 = resp @ |d|^2, each reshaped to (M, J)."""
    d = alphabet.symbols
    return ((resp_sk @ d).reshape(m, -1),
            (resp_sk @ (np.abs(d) ** 2)).reshape(m, -1))


def flat_channel_sums(resp_sk: np.ndarray, r: np.ndarray,
                      alphabet: ExtendedAlphabet) -> tuple[np.ndarray, np.ndarray]:
    """The channel update's per-user sums over s in m and k, for (M, J)
    observations r: weight = sum e_sk |d_k|^2 and cross = sum e_sk
    conj(d_k) r_s."""
    d = alphabet.symbols
    m = r.shape[0]
    weight = (resp_sk @ (np.abs(d) ** 2)).reshape(m, -1).sum(axis=1)
    cross = ((resp_sk @ d.conj()) * r.ravel()).reshape(m, -1).sum(axis=1)
    return weight, cross


def flat_gamma_rate(b: float, lam_prior: np.ndarray, mu_prior: np.ndarray,
                    lam: np.ndarray, mu: np.ndarray, resp_sk: np.ndarray,
                    r: np.ndarray) -> float:
    """The Gamma rate update with the row sums resp.sum(axis=1), for
    (M, J) observations r."""
    return float(b + np.sum(lam_prior * np.abs(mu_prior) ** 2)
                 + np.sum(resp_sk.sum(axis=1) * np.abs(r.ravel()) ** 2)
                 - np.sum(lam * np.abs(mu) ** 2))
