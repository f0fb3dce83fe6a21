"""Outer loop: alternate decoupling and clustering, then decide.

Each of the n_it iterations runs one decoupling pass (Y -> pseudo
observations R) and one clustering pass (R -> posterior moments fed back
to the next decoupling pass).  After the last iteration the
responsibilities and moments are fused into activity/symbol decisions and
the rows of detected-active users are phase-corrected via the reference
symbol.  The loop is deterministic: no randomness enters after the frame
is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import amp, vbic
from .decide import DetectionResult, correct_phase, detect
from .errors import ConfigError, ShapeMismatch
from .metrics import compute_aer, compute_ce_mse, compute_ser
from .model import ExtendedAlphabet, ScenarioConfig, ScenarioInstance, \
    noise_variance_from_snr


@dataclass
class IterationTrace:
    """Per-iteration diagnostics: channel-estimate snapshots, mean absolute
    change of the posterior mean, and (when ground truth is supplied)
    intermediate error rates."""

    channel: list[np.ndarray] = field(default_factory=list)
    delta_x: list[float] = field(default_factory=list)
    aer: list[float] | None = None
    ser: list[float] | None = None
    ce_mse: list[float] | None = None

    @property
    def n_iterations(self) -> int:
        return len(self.delta_x)


@dataclass
class DetectorInternals:
    """Final-iteration quantities the harness reuses: re-deciding with a
    different LLR combination and genie baselines need them."""

    vbic_state: vbic.VbicState
    posterior: amp.Posterior
    pseudo: amp.PseudoObservations


def _finalize(state: vbic.VbicState, posterior: amp.Posterior,
              alphabet: ExtendedAlphabet, p_a: float,
              include_offset: bool) -> DetectionResult:
    """Decide, then phase-correct every detected-active row in place.

    The decision stage sees the exact posterior variance of x (channel
    uncertainty included), not the factored variance that the decoupling
    feedback uses.
    """
    that_dec = vbic.posterior_variance_full(state, alphabet)
    decision_posterior = amp.Posterior(
        Xhat=posterior.Xhat,
        That=that_dec.reshape(posterior.Xhat.shape))
    result = detect(state.resp, decision_posterior, state.mu, alphabet,
                    p_a, include_offset)
    d_hat = result.D_hat
    for m in np.flatnonzero(result.activity_hat):
        d_hat[m] = correct_phase(d_hat[m], d_hat[m, 0],
                                 alphabet.reference_symbol, alphabet)
    return result


def run_detector(a_mat: np.ndarray, y: np.ndarray, config: ScenarioConfig,
                 alphabet: ExtendedAlphabet,
                 ground_truth: ScenarioInstance | None = None, *,
                 include_offset: bool = True, damping: float = 1.0,
                 reset_priors: bool = False,
                 conv_tol: float | None = None,
                 ) -> tuple[DetectionResult, IterationTrace]:
    """Run the full detector on one frame.

    ground_truth only feeds the per-iteration trace metrics; it never
    influences the decisions.  conv_tol stops early once the mean
    posterior-mean change falls below it (off by default, which keeps
    exactly n_it trace records).
    """
    result, trace, _ = run_detector_internals(
        a_mat, y, config, alphabet, ground_truth,
        include_offset=include_offset, damping=damping,
        reset_priors=reset_priors, conv_tol=conv_tol)
    return result, trace


def run_detector_internals(a_mat: np.ndarray, y: np.ndarray,
                           config: ScenarioConfig, alphabet: ExtendedAlphabet,
                           ground_truth: ScenarioInstance | None = None, *,
                           include_offset: bool = True, damping: float = 1.0,
                           reset_priors: bool = False,
                           conv_tol: float | None = None,
                           ) -> tuple[DetectionResult, IterationTrace, DetectorInternals]:
    """run_detector plus the final-iteration internals."""
    if a_mat.ndim != 2 or y.ndim != 2:
        raise ShapeMismatch("A and Y must be 2-d arrays")
    n, m = a_mat.shape
    j = y.shape[1]
    if (n, m) != (config.N, config.M) or y.shape != (config.N, config.J):
        raise ShapeMismatch(
            f"A {a_mat.shape} / Y {y.shape} inconsistent with config "
            f"(M={config.M}, N={config.N}, J={config.J})")
    if not 0.0 < config.p_a < 1.0:
        raise ConfigError(f"detection needs 0 < p_a < 1, got {config.p_a}")

    noise_var = noise_variance_from_snr(config.snr_db, alphabet.E_sym)
    amp_state, posterior = amp.amp_init(a_mat, j, alphabet.E_sym)
    state = vbic.vbic_init(m * j, alphabet.K, m)

    trace = IterationTrace()
    if ground_truth is not None:
        trace.aer, trace.ser, trace.ce_mse = [], [], []

    warm_mu: np.ndarray | None = None
    pseudo: amp.PseudoObservations | None = None
    for it in range(config.n_it):
        pseudo, amp_state = amp.amp_decouple(
            a_mat, y, posterior, amp_state, noise_var, damping=damping)
        r_flat = pseudo.r_flat
        if it == 0:
            vbic.warm_start_channel(state, r_flat, alphabet)
            warm_mu = state.mu.copy()
        elif reset_priors:
            vbic.reset_to_priors(state, mu_start=warm_mu)
        prev_xhat = posterior.Xhat
        state, posterior = vbic.vbic_step(state, r_flat, alphabet)

        delta = float(np.mean(np.abs(posterior.Xhat - prev_xhat)))
        trace.delta_x.append(delta)
        trace.channel.append(state.mu.copy())
        if ground_truth is not None:
            snapshot = _finalize(state, posterior, alphabet,
                                 config.p_a, include_offset)
            trace.aer.append(compute_aer(ground_truth.activity, snapshot.activity_hat))
            trace.ser.append(compute_ser(ground_truth.D, snapshot.D_hat))
            trace.ce_mse.append(compute_ce_mse(ground_truth.mu, snapshot.channel_hat))
        if conv_tol is not None and delta < conv_tol:
            break

    result = _finalize(state, posterior, alphabet,
                       config.p_a, include_offset)
    internals = DetectorInternals(vbic_state=state, posterior=posterior,
                                  pseudo=pseudo)
    return result, trace, internals
