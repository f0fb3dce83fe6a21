"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The trend criteria run 200 Monte Carlo trials per cell.  All cells of one
sweep share per-trial random substreams, so comparisons across cells are
paired (common random numbers).
"""

import math
import time

import numpy as np
import pytest

from ampvbic.amp import Posterior, amp_decouple, amp_init
from ampvbic.detector import _offset_llr_matrix, correct_phase, run_detector
from ampvbic.harness import _set_blas_threads, aggregate, run_trials, sweep
from ampvbic.model import ScenarioConfig, build_alphabet, generate_frame
from ampvbic.vbic import (posterior_moments, update_channel, update_dirichlet,
                          update_gamma, update_responsibilities, vbic_init)
from oracles import (EULER_GAMMA, detect_users, expected_log_pi,
                     expected_log_tau, expected_sq_err, flat_prior, flat_rows,
                     k_major, unit_alphabet, unit_posterior)

SEED = 2026
REL = 1e-9
# Criteria 4-7 run their trials in a pool of this many workers; pooled
# records equal serial ones, so the printed details do not depend on it.
WORKERS = 2


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nCRITERION {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def cells_for(config: ScenarioConfig, detectors=("amp_vbic",), n_trials=200):
    records = run_trials(config, n_trials, detectors, n_workers=WORKERS)
    return {rec.detector: rec for rec in aggregate(records)}


def sweep_cells(base: ScenarioConfig, axis: str, values,
                detectors=("amp_vbic",)):
    """One sweep's rows, keyed by axis value and then by detector; they
    equal the cells_for rows of each value."""
    cells = {}
    for row in sweep(base, axis, values, 200, detectors, n_workers=WORKERS):
        cells.setdefault(getattr(row, axis), {})[row.detector] = row
    return cells


def se_diff(a, b) -> float:
    return math.sqrt(a ** 2 + b ** 2)


def test_criterion_1_unit_equation_suite():
    """Every clustering/decision operation matches its hand oracle at 1e-9."""
    t0 = time.perf_counter()
    alph2 = unit_alphabet()

    # Dirichlet count update: 0.1 + 0.9 = 1.0
    st = vbic_init(alph2, 1, 2)
    st.resp = k_major([[0.1, 0.9], [0.0, 0.0]], 1)
    update_dirichlet(st)
    assert st.alpha[1, 0, 0] == pytest.approx(1.0, rel=REL)

    # channel refresh: lam_bar = 2, mu_bar = 0.25
    st = vbic_init(alph2, 1, 1)
    st.resp = k_major([[0.0, 1.0]], 1)
    update_channel(st, np.array([[0.5 + 0.0j]]))
    assert st.lam[0] == pytest.approx(2.0, rel=REL)
    assert st.mu[0] == pytest.approx(0.25, rel=REL)

    # precision refresh: shape a + MJ; rate grows by |r|^2 under null mass.
    # The pre-refresh channel is the vbic_init prior, lam = 1 and mu = 0.
    st = vbic_init(alph2, 10, 200)
    update_channel(st, np.zeros((10, 200), dtype=complex))
    update_gamma(st, np.zeros((10, 200), dtype=complex), np.ones(10),
                 np.zeros(10))
    assert st.a == pytest.approx(2000.0001, rel=1e-12)
    st = vbic_init(alph2, 1, 1)
    st.resp = k_major([[1.0, 0.0]], 1)
    update_channel(st, np.array([[1.0 + 0.0j]]))
    update_gamma(st, np.array([[1.0 + 0.0j]]), np.ones(1), np.zeros(1))
    assert st.b == pytest.approx(2.0, rel=REL)

    # Dirichlet expectations via the digamma recurrence
    st = vbic_init(alph2, 1, 2)
    st.alpha = k_major([[1.0, 1.0], [2.0, 1.0]], 1)
    assert expected_log_pi(st, 0) == pytest.approx([-1.0, -1.0], rel=REL)
    assert expected_log_pi(st, 1)[0] == pytest.approx(-0.5, rel=REL)

    # Gamma log expectation: psi(1) = -gamma, psi(2) = 1 - gamma
    st.a, st.b = 1.0, 1.0
    assert expected_log_tau(st) == pytest.approx(-EULER_GAMMA, rel=REL)
    st.a = 2.0
    assert expected_log_tau(st) == pytest.approx(1.0 - EULER_GAMMA, rel=REL)
    st.a, st.b = 1.0, math.e
    assert expected_log_tau(st) == pytest.approx(-EULER_GAMMA - 1.0, rel=REL)

    # expected squared error: null symbol, exact fit, and unit hand case
    st = vbic_init(alph2, 1, 2)
    st.a, st.b = 2.0, 4.0
    assert expected_sq_err(st, 0, 0, 1.5 - 0.5j) == pytest.approx(
        0.5 * abs(1.5 - 0.5j) ** 2, rel=REL)
    st.a = st.b = 1.0
    st.mu = np.array([1.0 + 0.0j])
    assert expected_sq_err(st, 0, 1, 1.0 + 0.0j) == pytest.approx(1.0, rel=REL)

    # responsibility softmax: ln rho = [0, ln 3] -> [0.25, 0.75]
    st = vbic_init(alph2, 1, 1)
    st.a = st.b = 1.0
    st.lam = np.array([1e18])
    st.mu = np.array([1.0 + 0.0j])
    r = np.array([[(1.0 + math.log(3.0)) / 2.0 + 0.0j]])
    update_responsibilities(st, r)
    assert flat_rows(st.resp)[0] == pytest.approx([0.25, 0.75], rel=REL)

    # posterior moments: xhat = 0.5, that = 0.25
    st = vbic_init(alph2, 1, 1)
    st.a = 2.0
    st.mu = np.array([1.0 + 0.0j])
    st.resp = k_major([[0.5, 0.5]], 1)
    post = posterior_moments(st)
    assert post.Xhat[0, 0] == pytest.approx(0.5, rel=REL)
    assert post.That[0, 0] == pytest.approx(0.25, rel=REL)

    # activity evidence: ln(0.1/0.9) summed per user block
    res = detect_users([[0.9, 0.1]], [[0.0]], 0.1, include_offset=False)
    assert res.llr_dec[0] == pytest.approx(math.log(1.0 / 9.0), rel=REL)

    # offset LLR: ln(1/2) and ln(1/2) + 1 - 1/2
    for xhat, want in ((0.0, math.log(0.5)), (1.0, math.log(0.5) + 0.5)):
        offset = _offset_llr_matrix(unit_posterior([[xhat]]), alph2.E_sym)
        assert offset.sum(axis=1)[0] == pytest.approx(want, rel=REL)

    # decision LLR: prior log-odds at p_a = 0.1 (balanced evidence, and
    # |x|^2 = 2 ln 2 makes the offset ln(1/2) + ln 2 = 0); additivity
    res = detect_users([[0.5, 0.5]], [[math.sqrt(2.0 * math.log(2.0))]], 0.1)
    assert res.llr_dec[0] == pytest.approx(math.log(1.0 / 9.0), rel=REL)
    res = detect_users([[0.1, 0.9], [0.5, 0.5]], [[0.0, 1.0]], 0.5)
    assert res.llr_dec[0] == pytest.approx(
        math.log(9.0) + 2.0 * math.log(0.5) + 0.5, rel=REL)

    # phase correction: quarter-turn undone, pi-rotation round trip
    alph = build_alphabet("qpsk")
    row = alph.symbols[[1, 2, 3, 4, 1]][None]
    assert np.allclose(correct_phase(1j * row, alph), row)
    rotated = row * np.exp(1j * np.pi)
    assert np.allclose(correct_phase(rotated, alph), row, atol=1e-12)

    elapsed = time.perf_counter() - t0
    report(1, elapsed < 1.0,
           f"all clustering/decision hand oracles matched at 1e-9 "
           f"({elapsed:.2f}s)")


def test_criterion_2_amp_identity_sanity():
    """Noiseless 8x8 identity mixing: pseudo observations pin to the truth."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    alph = build_alphabet("qam16")
    n = j = 8
    gains = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    x = alph.active_symbols[rng.integers(0, alph.K - 1, (n, j))] * gains
    a = np.eye(n, dtype=complex)
    state = amp_init(a, x.copy(), 1e-12)
    post = Posterior(Xhat=x.copy(), That=flat_prior(n, j, alph.E_sym).That)
    worst = np.inf
    for _ in range(10):
        pseudo = amp_decouple(post, state)
        worst = min(worst, np.max(np.abs(pseudo.R - x)))
        if worst < 1e-6:
            break
    elapsed = time.perf_counter() - t0
    report(2, worst < 1e-6 and elapsed < 1.0,
           f"max|r - x| = {worst:.2e} within <= 10 passes ({elapsed:.2f}s)")


def test_criterion_3_normalization_and_variance_properties():
    """1e5 randomized update calls keep responsibilities normalized and
    posterior variances nonnegative."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    alphabets = [build_alphabet("qpsk"), build_alphabet("qam16")]
    n_calls = 100_000
    worst_row_sum_err = 0.0
    min_variance = np.inf
    for i in range(n_calls):
        alph = alphabets[i & 1]
        m = 1 + (i % 2)
        j = 1 + (i % 3)
        st = vbic_init(alph, m, j)
        st.mu = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        st.lam = rng.uniform(0.2, 50.0, m)
        st.a = rng.uniform(1.01, 1e5)
        st.b = rng.uniform(0.05, 1e4)
        st.alpha = k_major(rng.uniform(0.05, 30.0, (m * j, alph.K)), m)
        r = rng.uniform(0.01, 20.0) * (rng.standard_normal((m, j))
                                       + 1j * rng.standard_normal((m, j)))
        update_responsibilities(st, r)
        worst_row_sum_err = max(worst_row_sum_err,
                                float(np.abs(st.resp.sum(axis=0) - 1.0).max()))
        post = posterior_moments(st)
        min_variance = min(min_variance, float(post.That.min()))
    elapsed = time.perf_counter() - t0
    ok = worst_row_sum_err < 1e-9 and min_variance >= 0.0 and elapsed < 30.0
    report(3, ok,
           f"{n_calls} randomized updates: max row-sum error "
           f"{worst_row_sum_err:.1e}, min variance {min_variance:.1e} "
           f"({elapsed:.1f}s)")


def test_criterion_4_iteration_trend():
    """More iterations improve detection at the reference configuration."""
    base = ScenarioConfig(M=200, N=100, J=10, p_a=0.1, snr_db=5.0,
                          modulation="qam16", n_it=5, seed=SEED)
    # One sweep runs each trial's loop once and decides at 5, 20 and 50
    # iterations; its rows equal three separate 200-trial cells.
    rows = sweep(base, "n_it", (5, 20, 50), 200, n_workers=WORKERS)
    cells = {row.n_it: row for row in rows}
    aer_ok = cells[20].aer < cells[5].aer
    ser_ok = cells[20].ser < cells[5].ser
    mse_ok = all(
        cells[b].ce_mse <= cells[a].ce_mse
        + se_diff(cells[a].ce_mse_stderr, cells[b].ce_mse_stderr)
        for a, b in ((5, 20), (20, 50)))
    detail = (f"AER {cells[5].aer:.4f}->{cells[20].aer:.4f}, "
              f"SER {cells[5].ser:.4f}->{cells[20].ser:.4f}, "
              f"CE-MSE {cells[5].ce_mse:.5f}/{cells[20].ce_mse:.5f}/"
              f"{cells[50].ce_mse:.5f}")
    report(4, aer_ok and ser_ok and mse_ok, detail)


def test_criterion_5_spreading_length_monotonicity():
    """Longer spreading lowers AER, with a diminishing gain."""
    base = ScenarioConfig(M=200, N=100, J=10, p_a=0.1, snr_db=5.0,
                          modulation="qam16", n_it=20, seed=SEED)
    cells = {n: row["amp_vbic"]
             for n, row in sweep_cells(base, "N", (70, 100, 130)).items()}
    mono_ok = all(
        cells[b].aer <= cells[a].aer
        + se_diff(cells[a].aer_stderr, cells[b].aer_stderr)
        for a, b in ((70, 100), (100, 130)))
    drop1 = cells[70].aer - cells[100].aer
    drop2 = cells[100].aer - cells[130].aer
    detail = (f"AER {cells[70].aer:.4f}/{cells[100].aer:.4f}/"
              f"{cells[130].aer:.4f}; drops {drop1:.4f} > {drop2:.4f}")
    report(5, mono_ok and drop1 > drop2, detail)


def test_criterion_6_offset_ablation():
    """Without the offset guard, false alarms push AER toward the inactive
    fraction; with it, AER stays far below."""
    config = ScenarioConfig(M=200, N=70, J=20, p_a=0.1, snr_db=8.0,
                            modulation="qam16", n_it=20, seed=SEED)
    cells = cells_for(config, detectors=("amp_vbic", "amp_vbic_no_offset"))
    aer_off = cells["amp_vbic_no_offset"].aer
    aer_on = cells["amp_vbic"].aer
    lo = 1.0 - config.p_a - 0.1
    ok = (lo <= aer_off <= 1.0) and (aer_on < 0.5 * (1.0 - config.p_a))
    report(6, ok,
           f"ablated AER {aer_off:.4f} in [{lo:.2f}, 1], "
           f"guarded AER {aer_on:.4f} < {0.5 * (1 - config.p_a):.3f}")


# n_it pinned where both claims are measurable at 200 trials: SER still
# strictly improving with SNR while AER has entered its saturation regime.
SNR_SWEEP_N_IT = 7


def snr_sweep_cells():
    base = ScenarioConfig(M=200, N=120, J=20, p_a=0.1, snr_db=0.0,
                          modulation="qam16", n_it=SNR_SWEEP_N_IT, seed=SEED)
    return sweep_cells(base, "snr_db", (0.0, 4.0, 8.0),
                       detectors=("amp_vbic", "genie"))


@pytest.fixture(scope="module")
def snr_cells():
    return snr_sweep_cells()


def test_criterion_7_snr_behavior(snr_cells):
    """SER falls with SNR; the AER improvement flattens out."""
    ser = {snr: snr_cells[snr]["amp_vbic"].ser for snr in (0.0, 4.0, 8.0)}
    ser_se = {snr: snr_cells[snr]["amp_vbic"].ser_stderr for snr in (0.0, 4.0, 8.0)}
    aer = {snr: snr_cells[snr]["amp_vbic"].aer for snr in (0.0, 4.0, 8.0)}
    ser_ok = all(ser[b] < ser[a] - se_diff(ser_se[a], ser_se[b])
                 for a, b in ((0.0, 4.0), (4.0, 8.0)))
    d1 = aer[0.0] - aer[4.0]
    d2 = aer[4.0] - aer[8.0]
    detail = (f"SER {ser[0.0]:.4f}/{ser[4.0]:.4f}/{ser[8.0]:.4f}; "
              f"AER deltas {d1:.4f} then {d2:.4f}")
    report(7, ser_ok and d2 < d1, detail)


def test_criterion_8_genie_dominance(snr_cells):
    """amp_vbic never beats the genie baseline (true support and channels,
    nearest symbol on the detector's own pseudo observations) on SER."""
    gaps = {snr: (snr_cells[snr]["amp_vbic"].ser - snr_cells[snr]["genie"].ser)
            for snr in (0.0, 4.0, 8.0)}
    ok = all(g >= 0.0 for g in gaps.values())
    report(8, ok, "SER margins over the genie baseline: "
           + ", ".join(f"{snr:g}dB: {g:.4f}" for snr, g in gaps.items()))


def test_criterion_9_linear_complexity():
    """Detector wall time grows linearly in the user count.

    Interleaved repetitions with a min estimator and (where numpy links
    scipy-openblas) a single BLAS thread keep scheduler jitter out of the
    fit.
    """
    sizes = (100, 200, 400)
    frames = {}
    for m in sizes:
        config = ScenarioConfig(M=m, N=120, J=10, p_a=0.1, snr_db=5.0,
                                modulation="qam16", n_it=20, seed=SEED)
        frames[m] = (config,
                     generate_frame(config, np.random.default_rng(SEED + m)))
    best = {m: np.inf for m in sizes}
    threads = _set_blas_threads(1)
    try:
        for m in sizes:  # warm-up
            config, frame = frames[m]
            run_detector(frame.A, frame.Y, config)
        for _ in range(7):
            for m in sizes:
                config, frame = frames[m]
                t0 = time.perf_counter()
                run_detector(frame.A, frame.Y, config)
                best[m] = min(best[m], time.perf_counter() - t0)
    finally:
        if threads is not None:
            _set_blas_threads(threads)
    x = np.array(sizes, dtype=float)
    y = np.array([best[m] for m in sizes])
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    r2 = 1.0 - np.sum(resid ** 2) / np.sum((y - y.mean()) ** 2)
    detail = ("wall times " + ", ".join(f"M={m}: {t * 1e3:.0f}ms"
                                        for m, t in zip(sizes, y))
              + f"; linear fit R^2 = {r2:.4f}")
    report(9, r2 > 0.95, detail)
