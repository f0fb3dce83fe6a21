"""Error-rate metrics scored against frame ground truth."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

SYMBOL_MATCH_TOL = 1e-9


def compute_aer(truth: np.ndarray, detected: np.ndarray) -> float:
    """Fraction of users whose activity decision is wrong."""
    truth = np.asarray(truth)
    detected = np.asarray(detected)
    if truth.shape != detected.shape:
        raise DimensionMismatch(
            f"activity vectors differ in length: {truth.shape} vs {detected.shape}")
    return float(np.mean(truth.astype(bool) != detected.astype(bool)))


def compute_ser(d_true: np.ndarray, d_hat: np.ndarray) -> float:
    """Fraction of wrong symbol decisions in the data slots 2..J.

    The known reference-symbol slot (column 0) is not scored.  Complex
    equality is tested to 1e-9 absolute.
    """
    d_true = np.asarray(d_true)
    d_hat = np.asarray(d_hat)
    if d_true.shape != d_hat.shape:
        raise DimensionMismatch(
            f"symbol matrices differ in shape: {d_true.shape} vs {d_hat.shape}")
    errors = np.abs(d_true[:, 1:] - d_hat[:, 1:]) > SYMBOL_MATCH_TOL
    return float(np.mean(errors))


def compute_ce_mse(mu_true: np.ndarray, mu_hat: np.ndarray) -> float:
    """Mean squared complex channel-estimate error over all users
    (inactive-user truth is zero)."""
    mu_true = np.asarray(mu_true)
    mu_hat = np.asarray(mu_hat)
    if mu_true.shape != mu_hat.shape:
        raise DimensionMismatch(
            f"channel vectors differ in length: {mu_true.shape} vs {mu_hat.shape}")
    return float(np.mean(np.abs(mu_true - mu_hat) ** 2))
