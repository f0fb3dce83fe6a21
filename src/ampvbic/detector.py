"""Outer loop: alternate decoupling and clustering, then decide.

Each of the n_it iterations runs one decoupling pass (Y -> pseudo
observations R) and one clustering pass (R -> posterior moments fed back
to the next decoupling pass).  After the last iteration the
responsibilities and moments are fused into activity/symbol decisions and
the rows of detected-active users are phase-corrected via the reference
symbol.  The loop is deterministic: no randomness enters after the frame
is drawn, and nothing in it depends on the iteration count, so a run of n
iterations is a prefix of every longer run on the same frame.  The bare
loop, run_detector_internals, takes the count as an int and continues an
earlier call's loop (start=): the harness steps it once per iteration
count of a trial, and run_detector once per iteration for its trace.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

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
    (_finalize, with or without the offsets) and the genie baseline read
    it, and run_detector_internals(..., n_it, start=it) continues it."""

    vbic_state: vbic.VbicState
    posterior: amp.Posterior
    pseudo: amp.PseudoObservations
    amp_state: amp.AmpState
    n_iterations: int


def _finalize(internals: DetectorInternals, config: ScenarioConfig,
              include_offset: bool) -> DetectionResult:
    """Decide from the loop's state, then phase-correct the detected-active
    rows in place.  The decision sees the exact posterior variance of x
    (channel uncertainty included), not the factored variance that the
    decoupling feedback uses.
    """
    state = internals.vbic_state
    alphabet = build_alphabet(config.modulation)
    decision_posterior = amp.Posterior(
        internals.posterior.Xhat, vbic.posterior_variance_full(state, alphabet))
    result = detect(state.resp, decision_posterior, state.mu, alphabet,
                    config.p_a, include_offset)
    active = result.activity_hat.astype(bool)
    result.D_hat[active] = correct_phase(result.D_hat[active], alphabet)
    return result


def run_detector(a_mat: np.ndarray, y: np.ndarray, config: ScenarioConfig,
                 ground_truth: ScenarioInstance | None = None, *,
                 conv_tol: float | None = None,
                 ) -> tuple[DetectionResult, IterationTrace]:
    """Run the full detector on one frame, stepping the loop one iteration
    at a time and recording the trace between steps.

    ground_truth only feeds the trace's error rates, each from a decision
    at that iteration (the last is returned); it never influences the
    decisions.  conv_tol, None or a number > 0, stops once the mean
    posterior-mean change falls below it (None keeps all n_it records).
    """
    if conv_tol is not None and (isinstance(conv_tol, bool) or not (
            isinstance(conv_tol, numbers.Real) and conv_tol > 0)):
        raise ConfigError(f"conv_tol must be None or a number > 0, got {conv_tol!r}")
    trace = IterationTrace()
    if ground_truth is not None:
        trace.aer, trace.ser, trace.ce_mse = [], [], []
    internals = result = None
    prev_xhat = 0.0     # the loop starts from amp_init's zero prior mean
    for n_it in range(1, config.n_it + 1):
        internals = run_detector_internals(a_mat, y, config, n_it,
                                           start=internals)
        delta = float(np.mean(np.abs(internals.posterior.Xhat - prev_xhat)))
        trace.delta_x.append(delta)
        prev_xhat = internals.posterior.Xhat
        if ground_truth is not None:
            result = _finalize(internals, config, include_offset=True)
            trace.aer.append(compute_aer(ground_truth.activity, result.activity_hat))
            trace.ser.append(compute_ser(ground_truth.D, result.D_hat))
            trace.ce_mse.append(compute_ce_mse(ground_truth.mu, result.channel_hat))
        if conv_tol is not None and delta < conv_tol:
            break
    if result is None:
        result = _finalize(internals, config, include_offset=True)
    return result, trace


def run_detector_internals(a_mat: np.ndarray, y: np.ndarray,
                           config: ScenarioConfig, n_it: int, *,
                           start: DetectorInternals | None = None,
                           ) -> DetectorInternals:
    """The detector's bare loop: the internals after n_it iterations in
    total (an int > 0; config.n_it is not read), with no decision.

    start, the internals of an earlier call on the same frame and config,
    continues that loop to n_it > start.n_iterations, as a fresh run would.
    start's VB state is advanced in place, so decide from start first.
    """
    done = 0 if start is None else start.n_iterations
    if isinstance(n_it, bool) or not isinstance(n_it, numbers.Integral) or n_it <= done:
        raise ConfigError(f"n_it must be an integer > {done}, got {n_it!r}")
    if a_mat.ndim != 2 or y.ndim != 2:
        raise DimensionMismatch("A and Y must be 2-d arrays")
    n, m = a_mat.shape
    j = y.shape[1]
    if (n, m) != (config.N, config.M) or y.shape != (config.N, config.J):
        raise DimensionMismatch(
            f"A {a_mat.shape} / Y {y.shape} inconsistent with config "
            f"(M={config.M}, N={config.N}, J={config.J})")

    alphabet = build_alphabet(config.modulation)
    noise_var = noise_variance_from_snr(config.snr_db, alphabet.E_sym)
    if start is None:
        amp_state, posterior = amp.amp_init(a_mat, j, alphabet.E_sym)
        state = vbic.vbic_init(alphabet.K, m, j)
    else:
        amp_state, posterior, state = start.amp_state, start.posterior, start.vbic_state

    for it in range(done, n_it):
        pseudo, amp_state = amp.amp_decouple(a_mat, y, posterior, amp_state,
                                             noise_var)
        if it == 0:
            vbic.warm_start_channel(state, pseudo.R, alphabet)
        posterior = vbic.vbic_step(state, pseudo.R, alphabet)

    return DetectorInternals(state, posterior, pseudo, amp_state, n_it)
