"""Outer loop: alternate decoupling and clustering, then decide.

Each of the n_it iterations runs one decoupling pass (Y -> pseudo
observations R) and one clustering pass (R -> posterior moments fed back
to the next decoupling pass).  After the last iteration the
responsibilities and moments are fused into activity/symbol decisions and
the rows of detected-active users are phase-corrected via the reference
symbol.  The loop is deterministic: no randomness enters after the frame
is drawn, and nothing in it depends on n_it, so a run of n iterations is
a prefix of every longer run on the same frame.  run_detector_internals,
the bare loop, therefore continues an earlier call's loop (start=): the
harness steps it once per iteration count of a trial, and run_detector
once per iteration to record its trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import amp, vbic
from .decide import DetectionResult, correct_phase, detect
from .errors import ConfigError, DimensionMismatch
from .metrics import compute_aer, compute_ce_mse, compute_ser
from .model import ScenarioConfig, ScenarioInstance, build_alphabet, \
    noise_variance_from_snr


@dataclass
class IterationTrace:
    """Per-iteration diagnostics: mean absolute change of the posterior
    mean and (when ground truth is supplied) intermediate error rates."""

    delta_x: list[float] = field(default_factory=list)
    aer: list[float] | None = None
    ser: list[float] | None = None
    ce_mse: list[float] | None = None

    @property
    def n_iterations(self) -> int:
        return len(self.delta_x)


@dataclass
class DetectorInternals:
    """The loop's state after n_iterations iterations: every decision
    (_finalize, with or without the offsets) and the genie baseline are
    made from it, and run_detector_internals(start=...) continues from it."""

    vbic_state: vbic.VbicState
    posterior: amp.Posterior
    pseudo: amp.PseudoObservations
    amp_state: amp.AmpState
    n_iterations: int


def _finalize(state: vbic.VbicState, posterior: amp.Posterior,
              config: ScenarioConfig, include_offset: bool) -> DetectionResult:
    """Decide, then phase-correct the detected-active rows in place.

    The decision stage sees the exact posterior variance of x (channel
    uncertainty included), not the factored variance that the decoupling
    feedback uses.
    """
    alphabet = build_alphabet(config.modulation)
    decision_posterior = amp.Posterior(
        Xhat=posterior.Xhat, That=vbic.posterior_variance_full(state, alphabet))
    result = detect(state.resp, decision_posterior, state.mu, alphabet,
                    config.p_a, include_offset)
    active = result.activity_hat.astype(bool)
    d_hat = result.D_hat
    d_hat[active] = correct_phase(d_hat[active], d_hat[active, 0],
                                  alphabet.reference_symbol, alphabet)
    return result


def run_detector(a_mat: np.ndarray, y: np.ndarray, config: ScenarioConfig,
                 ground_truth: ScenarioInstance | None = None, *,
                 conv_tol: float | None = None,
                 ) -> tuple[DetectionResult, IterationTrace]:
    """Run the full detector on one frame, stepping the loop one iteration
    at a time and recording the trace between steps.

    ground_truth only feeds the trace's error rates, each from a decision
    at that iteration (the last is returned); it never influences the
    decisions.  conv_tol stops once the mean posterior-mean change falls
    below it (off by default, which keeps exactly n_it records).
    """
    trace = IterationTrace()
    if ground_truth is not None:
        trace.aer, trace.ser, trace.ce_mse = [], [], []
    internals = result = None
    prev_xhat = 0.0     # the loop starts from amp_init's zero prior mean
    for n_it in range(1, config.n_it + 1):
        internals = run_detector_internals(
            a_mat, y, replace(config, n_it=n_it), start=internals)
        delta = float(np.mean(np.abs(internals.posterior.Xhat - prev_xhat)))
        trace.delta_x.append(delta)
        prev_xhat = internals.posterior.Xhat
        if ground_truth is not None:
            result = _finalize(internals.vbic_state, internals.posterior,
                               config, include_offset=True)
            trace.aer.append(compute_aer(ground_truth.activity, result.activity_hat))
            trace.ser.append(compute_ser(ground_truth.D, result.D_hat))
            trace.ce_mse.append(compute_ce_mse(ground_truth.mu, result.channel_hat))
        if conv_tol is not None and delta < conv_tol:
            break
    if result is None:
        result = _finalize(internals.vbic_state, internals.posterior,
                           config, include_offset=True)
    return result, trace


def run_detector_internals(a_mat: np.ndarray, y: np.ndarray,
                           config: ScenarioConfig, *,
                           start: DetectorInternals | None = None,
                           ) -> DetectorInternals:
    """The detector's bare iteration loop: the internals after config.n_it
    iterations, with no decision and no trace.

    start, the internals of an earlier call on the same frame and config,
    continues that loop up to config.n_it iterations in total; the result
    equals a fresh config.n_it-iteration run.  start's VB state is advanced
    in place, so decide from start before continuing it.
    """
    if a_mat.ndim != 2 or y.ndim != 2:
        raise DimensionMismatch("A and Y must be 2-d arrays")
    n, m = a_mat.shape
    j = y.shape[1]
    if (n, m) != (config.N, config.M) or y.shape != (config.N, config.J):
        raise DimensionMismatch(
            f"A {a_mat.shape} / Y {y.shape} inconsistent with config "
            f"(M={config.M}, N={config.N}, J={config.J})")
    if not 0.0 < config.p_a < 1.0:
        raise ConfigError(f"detection needs 0 < p_a < 1, got {config.p_a}")

    alphabet = build_alphabet(config.modulation)
    noise_var = noise_variance_from_snr(config.snr_db, alphabet.E_sym)
    if start is None:
        amp_state, posterior = amp.amp_init(a_mat, j, alphabet.E_sym)
        state = vbic.vbic_init(alphabet.K, m, j)
        pseudo: amp.PseudoObservations | None = None
        done = 0
    else:
        if start.n_iterations > config.n_it:
            raise ConfigError(f"start has run {start.n_iterations} iterations, "
                              f"more than n_it={config.n_it}")
        amp_state, posterior = start.amp_state, start.posterior
        state, pseudo, done = start.vbic_state, start.pseudo, start.n_iterations

    for it in range(done, config.n_it):
        pseudo, amp_state = amp.amp_decouple(a_mat, y, posterior, amp_state,
                                             noise_var)
        if it == 0:
            vbic.warm_start_channel(state, pseudo.R, alphabet)
        posterior = vbic.vbic_step(state, pseudo.R, alphabet)

    return DetectorInternals(state, posterior, pseudo, amp_state, config.n_it)
