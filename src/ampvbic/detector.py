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
earlier call's loop (start=, advanced in place and returned): the harness
steps it once per iteration count of a trial, and run_detector runs it
once, to config.n_it.  The loop keeps its own trace, which needs no
ground truth (the harness's n_it sweep scores each count): a continued
loop extends it, its length the loop's iteration count.  Only a fresh
loop reads the alphabet, noise variance and p_a; its state keeps them.

Every decision reads the loop's state: amp_vbic and its offset-free
ablation through _finalize, the genie through genie_detect (the
harness's DETECTORS table names them).  Activity is decided per user
from three additive log-likelihood terms: the clustering evidence summed
over the user's J observations, an offset term comparing the posterior
mean with the active/inactive prior variances (against false alarms on
near-zero estimates), and the prior log-odds ln(p_a / (1 - p_a)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import amp, vbic
from .errors import ConfigError, DimensionMismatch, NumericalBreakdown
from .model import ExtendedAlphabet, ScenarioConfig, ScenarioInstance, \
    _is_int, build_alphabet, noise_variance_from_snr

# Responsibilities can underflow to exact zero after log-domain softmax;
# both sides of the activity likelihood ratio are floored so the
# log-ratio stays finite.
RESP_FLOOR = 1e-300


@dataclass
class DetectionResult:
    """Final decisions of one detector run.  Every decision (each entry of
    harness.DETECTORS) fills all four fields and no others.

    Rows of D_hat for users decided inactive are all-zero; rows of active
    users contain constellation symbols only.  activity_hat[m] == 1 exactly
    when llr_dec[m] > 0: amp_vbic's three-term LLR, its ablation's
    clustering evidence, or the genie's +1/-1.
    """

    activity_hat: np.ndarray   # (M,) 0/1
    D_hat: np.ndarray          # (M, J) decided symbols
    channel_hat: np.ndarray    # (M,) channel estimates at the final iteration
    llr_dec: np.ndarray        # (M,) decision statistic behind activity_hat


@dataclass
class IterationTrace:
    """Per-iteration diagnostics that need no ground truth: the mean
    absolute change of the posterior mean, one entry per iteration."""

    delta_x: list[float] = field(default_factory=list)


@dataclass
class DetectorInternals:
    """The loop's state after len(trace.delta_x) iterations: every decision
    (_finalize, with or without the offsets) and the genie baseline read
    it, and run_detector_internals(..., n_it, start=it) advances it in
    place, its trace included, and returns it.  pseudo is the last pass's
    R with its noise variances Tau.  It keeps the frame's constants: the
    alphabet in vbic_state, the noise variance in amp_state (which each
    pass advances in place) and p_a, which _finalize decides with."""

    vbic_state: vbic.VbicState
    posterior: amp.Posterior
    pseudo: amp.PseudoObservations
    amp_state: amp.AmpState
    trace: IterationTrace
    p_a: float


def _offset_llr_matrix(posterior: amp.Posterior, e_sym: float) -> np.ndarray:
    mag2 = np.abs(posterior.Xhat) ** 2
    return (np.log(posterior.That / (e_sym + posterior.That))
            + mag2 / posterior.That - mag2 / (e_sym + posterior.That))


def detect(resp: np.ndarray, posterior: amp.Posterior, channel_hat: np.ndarray,
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
    evidence = np.log(num / den).sum(axis=1)
    if include_offset:
        offset = _offset_llr_matrix(posterior, alphabet.E_sym).sum(axis=1)
        llr_dec = evidence + offset + np.log(p_a / (1.0 - p_a))
    else:
        llr_dec = evidence

    active = llr_dec > 0.0
    best_k = resp[1:].argmax(axis=0) + 1
    d_hat = np.where(active[:, None], alphabet.symbols[best_k], 0.0 + 0.0j)
    return DetectionResult(
        activity_hat=active.astype(np.int8),
        D_hat=d_hat,
        channel_hat=np.asarray(channel_hat).copy(),
        llr_dec=llr_dec,
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


def _finalize(internals: DetectorInternals,
              include_offset: bool) -> DetectionResult:
    """Decide from the loop's state alone, with its alphabet and p_a, then
    phase-correct the detected-active rows in place.  The decision sees
    the exact posterior variance of x (channel uncertainty included), not
    the factored variance that the decoupling feedback uses.

    A detected row whose slot 1 is not the reference symbol was clustered
    on a rotated constellation, the rotation absorbed into its channel.
    Its channel estimate is rotated back with its symbols, by d1 / d_ref,
    so that channel times slot-1 symbol stays what the clustering decided.
    """
    state = internals.vbic_state
    alphabet = state.alphabet
    decision_posterior = amp.Posterior(
        internals.posterior.Xhat, vbic.posterior_variance_full(state))
    result = detect(state.resp, decision_posterior, state.mu, alphabet,
                    internals.p_a, include_offset)
    active = result.activity_hat.astype(bool)
    result.channel_hat[active] *= result.D_hat[active, 0] / alphabet.reference_symbol
    result.D_hat[active] = correct_phase(result.D_hat[active], alphabet)
    return result


def genie_detect(r_final: np.ndarray, frame: ScenarioInstance,
                 alphabet: ExtendedAlphabet) -> DetectionResult:
    """Nearest-symbol detection with the frame's support and channels on
    the detector's own final pseudo observations r_final.

    It fills the four fields from the frame: activity_hat is the true
    activity, active rows of D_hat are alphabet.nearest(r, mu) at each
    user's true channel mu (inactive rows zero), channel_hat is the true
    channel, and llr_dec is +1 for active users, -1 for inactive ones.
    r_final is the decoupling output of the detector's last iteration, so
    the genie inherits its residual interference.  It is therefore not a
    bound on what known support allows: a least-squares fit on the true
    support scores SER 0.0000 at 40 dB where the genie scores 0.0124.
    """
    active = frame.activity.astype(bool)
    d_hat = np.zeros(r_final.shape, dtype=complex)
    d_hat[active] = alphabet.nearest(r_final[active], frame.mu[active, None])
    return DetectionResult(
        activity_hat=active.astype(np.int8),
        D_hat=d_hat,
        channel_hat=frame.mu.copy(),
        llr_dec=np.where(active, 1.0, -1.0),
    )


def run_detector(a_mat: np.ndarray, y: np.ndarray, config: ScenarioConfig,
                 ) -> tuple[DetectionResult, IterationTrace]:
    """Run the loop on one frame for config.n_it iterations, then decide
    once; the trace is the loop's own."""
    internals = run_detector_internals(a_mat, y, config, config.n_it)
    return _finalize(internals, include_offset=True), internals.trace


def run_detector_internals(a_mat: np.ndarray, y: np.ndarray,
                           config: ScenarioConfig, n_it: int, *,
                           start: DetectorInternals | None = None,
                           ) -> DetectorInternals:
    """The detector's bare loop: the internals after n_it iterations in
    total (an int > 0; config.n_it is not read), with no decision.  Each
    iteration appends the mean absolute change of the posterior mean to
    the state's trace, so the trace's length is the iteration count.

    start, the internals of an earlier call on the same frame, is
    advanced in place to n_it > len(start.trace.delta_x), as a fresh run
    would be, and returned; of config it reads only the frame shapes.
    """
    done = 0 if start is None else len(start.trace.delta_x)
    if not _is_int(n_it) or n_it <= done:
        raise ConfigError(f"n_it must be an integer > {done}, got {n_it!r}")
    if a_mat.shape != (config.N, config.M) or y.shape != (config.N, config.J):
        raise DimensionMismatch(
            f"A {a_mat.shape} / Y {y.shape} are not the 2-d (N, M) / (N, J) "
            f"arrays of config (M={config.M}, N={config.N}, J={config.J})")

    internals = start
    if internals is None:
        # No pseudo observations before the first iteration; this state
        # is returned only after at least one.
        alphabet = build_alphabet(config.modulation)
        noise_var = noise_variance_from_snr(config.snr_db, alphabet.E_sym)
        amp_state, posterior = amp.amp_init(a_mat, config.J, alphabet.E_sym,
                                            noise_var)
        internals = DetectorInternals(
            vbic.vbic_init(alphabet, config.M, config.J), posterior, None,
            amp_state, IterationTrace(), config.p_a)

    for it in range(done, n_it):
        prev_xhat = internals.posterior.Xhat
        internals.pseudo = amp.amp_decouple(
            a_mat, y, internals.posterior, internals.amp_state)
        if it == 0:
            vbic.warm_start_channel(internals.vbic_state, internals.pseudo.R)
        internals.posterior = vbic.vbic_step(internals.vbic_state,
                                             internals.pseudo.R)
        # np.mean's value, bit for bit, without its per-call overhead.
        change = np.abs(internals.posterior.Xhat - prev_xhat)
        internals.trace.delta_x.append(float(change.sum() / change.size))
    return internals
