import copy
import dataclasses
import hashlib

import numpy as np
import pytest

from ampvbic import detector
from ampvbic.detector import detector_init, run_detector, \
    run_detector_internals
from ampvbic.errors import ConfigError, DimensionMismatch
from ampvbic.harness import DETECTORS, compute_aer, compute_ce_mse, \
    compute_ser, trial_rng
from ampvbic.model import ScenarioConfig, build_alphabet, generate_frame, \
    noise_variance_from_snr
from record_hashes import REFERENCE_CELL, openblas_core


def make_frame(seed=41, **overrides):
    kwargs = dict(M=30, N=24, J=5, p_a=0.15, snr_db=8.0,
                  modulation="qam16", n_it=6, seed=seed)
    kwargs.update(overrides)
    cfg = ScenarioConfig(**kwargs)
    alph = build_alphabet(cfg.modulation)
    frame = generate_frame(cfg, np.random.default_rng(seed))
    return cfg, alph, frame


def assert_same_decision(got, want):
    """Bit for bit the same activity, symbols and channel estimates."""
    assert np.array_equal(got.activity_hat, want.activity_hat)
    assert np.array_equal(got.D_hat, want.D_hat)
    assert np.array_equal(got.channel_hat, want.channel_hat)


def final_decision(internals):
    return detector._finalize(internals, include_offset=True)


def run_loop(a, y, cfg, n_it):
    """A fresh loop on frame (A, Y), run to n_it iterations."""
    internals = detector_init(a, y, cfg)
    run_detector_internals(internals, n_it)
    return internals


class TestRunDetector:

    def test_trace_has_one_record_per_iteration(self):
        cfg, alph, fr = make_frame(n_it=1)
        _, trace = run_detector(fr.A, fr.Y, cfg)
        assert len(trace.delta_x) == 1
        cfg2 = dataclasses.replace(cfg, n_it=7)
        _, trace = run_detector(fr.A, fr.Y, cfg2)
        assert len(trace.delta_x) == 7
        # The trace holds truth-free signals only.
        assert [f.name for f in dataclasses.fields(trace)] == ["delta_x"]

    def test_noise_variance_overflow_is_config_error(self):
        cfg, alph, fr = make_frame()
        with pytest.raises(ConfigError, match="noise variance"):
            run_detector(fr.A, fr.Y, dataclasses.replace(cfg, snr_db=-4000.0))

    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(M=4, N=4, J=2, p_a=0.5, snr_db=5.0, n_it=0)

    def test_bit_identical_determinism(self):
        cfg, alph, fr = make_frame()
        r1, _ = run_detector(fr.A, fr.Y, cfg)
        r2, _ = run_detector(fr.A, fr.Y, cfg)
        assert np.array_equal(r1.activity_hat, r2.activity_hat)
        assert np.array_equal(r1.D_hat, r2.D_hat)
        assert np.array_equal(r1.channel_hat, r2.channel_hat)
        assert np.array_equal(r1.llr_dec, r2.llr_dec)

    def test_posterior_change_shrinks(self):
        cfg, alph, fr = make_frame(M=50, N=40, J=10, p_a=0.1,
                                   snr_db=10.0, n_it=30, seed=7)
        _, trace = run_detector(fr.A, fr.Y, cfg)
        assert trace.delta_x[29] < trace.delta_x[1]

    def test_all_inactive_frame_detected_empty(self):
        cfg, alph, _ = make_frame()
        frame = generate_frame(cfg, np.random.default_rng(5), n_active=0)
        result, _ = run_detector(frame.A, frame.Y, cfg)
        assert not result.activity_hat.any()
        assert not result.D_hat.any()

    def test_shape_checks(self):
        cfg, alph, fr = make_frame()
        with pytest.raises(DimensionMismatch):
            run_detector(fr.A[:, :-1], fr.Y, cfg)
        with pytest.raises(DimensionMismatch):
            run_detector(fr.A, fr.Y[:, :-1], cfg)
        for a, y in ((fr.A[0], fr.Y), (fr.A, fr.Y[:, 0])):
            with pytest.raises(DimensionMismatch, match="2-d"):
                run_detector(a, y, cfg)
            with pytest.raises(DimensionMismatch, match="2-d"):
                detector_init(a, y, cfg)

    def test_degenerate_prior_rejected(self):
        cfg, alph, fr = make_frame()
        with pytest.raises(ConfigError, match="0 < p_a < 1"):
            run_detector(fr.A, fr.Y, dataclasses.replace(cfg, p_a=0.0))

    def test_channel_hat_is_final_snapshot(self):
        cfg, alph, fr = make_frame()
        result, _ = run_detector(fr.A, fr.Y, cfg)
        internals = run_loop(fr.A, fr.Y, cfg, cfg.n_it)
        assert_same_decision(result, final_decision(internals))

    def test_result_invariants_end_to_end(self):
        cfg, alph, fr = make_frame(seed=43)
        result, _ = run_detector(fr.A, fr.Y, cfg)
        active = result.activity_hat.astype(bool)
        assert np.array_equal(active, result.llr_dec > 0)
        assert not result.D_hat[~active].any()
        if active.any():
            assert np.all(np.isin(result.D_hat[active].ravel(),
                                  alph.active_symbols))
            # phase correction pins the reference slot of every active row
            assert np.all(result.D_hat[active, 0] == alph.reference_symbol)

    def test_config_modulation_sets_the_alphabet(self):
        # No alphabet is passed: frame and decisions both follow the
        # config's modulation.
        cfg, _, fr = make_frame(modulation="qpsk", p_a=0.5, snr_db=20.0,
                                seed=44)
        qpsk = build_alphabet("qpsk").active_symbols
        active = fr.activity.astype(bool)
        assert active.any()
        assert np.all(np.isin(fr.D[active], qpsk))
        result, _ = run_detector(fr.A, fr.Y, cfg)
        detected = result.activity_hat.astype(bool)
        assert detected.any()
        assert np.all(np.isin(result.D_hat[detected], qpsk))

    def test_internals_expose_final_state(self):
        # The loop leaves its final state undecided; run_detector
        # decides from exactly that state.
        cfg, alph, fr = make_frame()
        internals = run_loop(fr.A, fr.Y, cfg, cfg.n_it)
        result, _ = run_detector(fr.A, fr.Y, cfg)
        assert len(internals.trace.delta_x) == cfg.n_it
        assert internals.pseudo.R.shape == (cfg.M, cfg.J)
        assert internals.pseudo.Tau.shape == (cfg.M, cfg.J)
        assert internals.vbic_state.resp.shape == (alph.K, cfg.M, cfg.J)
        assert_same_decision(result, final_decision(internals))

    @pytest.mark.parametrize("seed, overrides", [
        (43, {}), (44, dict(modulation="qpsk", p_a=0.5, snr_db=20.0))],
        ids=["qam16", "qpsk"])
    def test_channel_estimate_rotates_with_the_symbols(self, monkeypatch,
                                                       seed, overrides):
        # Each frame has a detected row that the clustering decided on a
        # rotated constellation, the rotation absorbed into its channel.
        # Phase correction rotates that channel back with the symbols, so
        # channel times slot-1 symbol is what the clustering decided.
        raw = []
        detect = detector.detect

        def keep_raw(*args):
            result = detect(*args)
            raw.append(copy.deepcopy(result))
            return result

        monkeypatch.setattr(detector, "detect", keep_raw)
        cfg, alph, fr = make_frame(seed=seed, **overrides)
        result, _ = run_detector(fr.A, fr.Y, cfg)
        before, = raw
        detected = before.activity_hat.astype(bool)
        assert np.any(before.D_hat[detected, 0] != alph.reference_symbol)
        assert np.all(result.D_hat[detected, 0] == alph.reference_symbol)
        np.testing.assert_allclose(
            (result.channel_hat * result.D_hat[:, 0])[detected],
            (before.channel_hat * before.D_hat[:, 0])[detected],
            rtol=1e-12, atol=0.0)


# ROADMAP item 3: at the reference cell an all-inactive frame yields 13-22
# false alarms per trial (trials 0-4 of seed 1); the M=30 test above
# passes only because of its size.  At the low-load cell (p_a=0.01,
# Bernoulli activity) trials 0-4 of seed 1 give 15, 1, 15, 2 and 0 false
# alarms among the inactive users.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: empty frames at the reference cell "
                          "are not detected empty")
@pytest.mark.parametrize("p_a, n_active", [(0.1, 0), (0.01, None)],
                         ids=["empty", "low_load_bernoulli"])
def test_empty_frame_detected_empty_at_reference_cell(p_a, n_active):
    cfg = ScenarioConfig(M=200, N=100, J=10, p_a=p_a, snr_db=5.0,
                         modulation="qam16", n_it=20, seed=1)
    for trial in range(5):
        frame = generate_frame(cfg, trial_rng(cfg.seed, trial),
                               n_active=n_active)
        result, _ = run_detector(frame.A, frame.Y, cfg)
        false_alarms = result.activity_hat[frame.activity == 0]
        assert not false_alarms.any(), (
            f"trial {trial}: {false_alarms.sum()} false alarms")


def test_resumed_loop_matches_fresh_run():
    # The loop does not depend on n_it: continuing a 5-iteration run to 20
    # gives exactly the state of a fresh 20-iteration run.  The count is
    # the argument; config.n_it is not read.
    cfg, alph, fr = make_frame(M=50, N=40, J=10, p_a=0.1, n_it=3, seed=7)
    fresh = run_loop(fr.A, fr.Y, cfg, 20)
    resumed = run_loop(fr.A, fr.Y, cfg, 5)
    assert len(resumed.trace.delta_x) == 5
    run_detector_internals(resumed, 20)
    assert len(resumed.trace.delta_x) == len(fresh.trace.delta_x) == 20
    assert np.array_equal(resumed.vbic_state.resp, fresh.vbic_state.resp)
    assert np.array_equal(resumed.vbic_state.mu, fresh.vbic_state.mu)
    assert np.array_equal(resumed.posterior.Xhat, fresh.posterior.Xhat)
    assert np.array_equal(resumed.pseudo.R, fresh.pseudo.R)
    assert np.array_equal(resumed.pseudo.Tau, fresh.pseudo.Tau)
    with pytest.raises(ConfigError, match="n_it must be an integer > 20"):
        run_detector_internals(resumed, 19)


def test_initial_state_holds_the_frame_and_its_constants():
    # detector_init runs no iteration: it keeps the frame by reference
    # with the alphabet, noise variance and p_a of its config, which every
    # continuation reads, and has no pseudo observations to decide from.
    cfg, alph, fr = make_frame(M=50, N=40, J=10, p_a=0.1, seed=7)
    internals = detector_init(fr.A, fr.Y, cfg)
    assert internals.amp_state.a_mat is fr.A
    assert internals.amp_state.y is fr.Y
    assert internals.vbic_state.alphabet is alph
    assert internals.amp_state.noise_var \
        == noise_variance_from_snr(cfg.snr_db, alph.E_sym)
    assert internals.p_a == cfg.p_a
    assert internals.pseudo is None
    assert internals.trace.delta_x == []


@pytest.mark.parametrize("modulation", ["qpsk", "qam16"])
def test_loop_starts_from_the_flat_prior(modulation):
    # The starting posterior is the detector's choice, not the decoupling
    # state's: an all-zero complex mean and the alphabet's symbol energy
    # as the variance of every element.
    cfg, alph, fr = make_frame(modulation=modulation)
    posterior = detector_init(fr.A, fr.Y, cfg).posterior
    assert posterior.Xhat.dtype == complex
    assert posterior.Xhat.shape == (cfg.M, cfg.J)
    assert not posterior.Xhat.any()
    assert np.array_equal(posterior.That, np.full((cfg.M, cfg.J), alph.E_sym))


def test_continued_loop_is_the_object_passed_in():
    # A continued loop is one object: start itself is advanced, down to
    # the AmpState that each decoupling pass refreshes in place, so
    # deciding from it after the continuation is deciding from a fresh
    # 20-iteration run, not from a mix of its 5- and 20-iteration states.
    cfg = REFERENCE_CELL
    fr = generate_frame(cfg, trial_rng(cfg.seed, 0))
    start = run_loop(fr.A, fr.Y, cfg, 5)
    amp_state = start.amp_state
    assert run_detector_internals(start, 20) is None
    assert start.amp_state is amp_state
    assert len(start.trace.delta_x) == 20
    fresh = run_loop(fr.A, fr.Y, cfg, 20)
    assert_same_decision(final_decision(start), final_decision(fresh))


@pytest.mark.parametrize("n_it, start_at", [(0, None), (-1, None),
                                            (True, None), (5.0, None),
                                            (np.float64(5.0), None), ("5", None),
                                            (5, 5), (4, 5)],
                         ids=["0", "-1", "True", "5.0", "float64", "str",
                              "equal_to_start", "below_start"])
def test_loop_rejects_a_count_it_cannot_run(n_it, start_at):
    cfg, alph, fr = make_frame()
    start = detector_init(fr.A, fr.Y, cfg) if start_at is None else \
        run_loop(fr.A, fr.Y, cfg, start_at)
    with pytest.raises(ConfigError,
                       match=f"n_it must be an integer > {start_at or 0}"):
        run_detector_internals(start, n_it)


@pytest.mark.parametrize("cell", ["reference_cell", "make_frame"])
def test_continued_loop_records_the_trace_of_a_fresh_run(cell):
    # The loop keeps its own trace: continuing a 5-iteration run to 20
    # extends it, float for float, to the trace of a fresh 20-iteration
    # run, which is run_detector's trace at n_it=20.
    if cell == "reference_cell":
        cfg = REFERENCE_CELL
        fr = generate_frame(cfg, trial_rng(cfg.seed, 0))
    else:
        cfg, _, fr = make_frame()
    continued = run_loop(fr.A, fr.Y, cfg, 5)
    run_detector_internals(continued, 20)
    fresh = run_loop(fr.A, fr.Y, cfg, 20)
    _, trace = run_detector(fr.A, fr.Y, dataclasses.replace(cfg, n_it=20))
    assert len(continued.trace.delta_x) == 20
    assert continued.trace.delta_x == fresh.trace.delta_x == trace.delta_x


def test_loop_takes_numpy_integer_counts():
    cfg, alph, fr = make_frame()
    internals = run_loop(fr.A, fr.Y, cfg, np.int64(2))
    run_detector_internals(internals, np.int64(cfg.n_it))
    result, _ = run_detector(fr.A, fr.Y, cfg)
    assert len(internals.trace.delta_x) == cfg.n_it
    assert_same_decision(result, final_decision(internals))


class TestDetectorTable:
    """The contract every entry of harness.DETECTORS keeps, on one
    reference-cell frame: a decision fills exactly DetectionResult's four
    fields, consistently with each other."""

    @pytest.fixture(scope="class")
    def state(self):
        cfg = REFERENCE_CELL
        frame = generate_frame(cfg, trial_rng(cfg.seed, 0))
        internals = run_loop(frame.A, frame.Y, cfg, cfg.n_it)
        return cfg, frame, internals

    @pytest.mark.parametrize("name", list(DETECTORS))
    def test_decision_fills_the_four_fields(self, state, name):
        cfg, frame, internals = state
        result = DETECTORS[name](internals, frame)
        assert [f.name for f in dataclasses.fields(result)] == [
            "activity_hat", "D_hat", "channel_hat", "llr_dec"]
        assert result.activity_hat.dtype == np.int8
        assert result.activity_hat.shape == (cfg.M,)
        assert np.array_equal(result.activity_hat, result.llr_dec > 0)
        active = result.activity_hat.astype(bool)
        assert result.D_hat.shape == (cfg.M, cfg.J)
        assert not result.D_hat[~active].any()
        assert np.all(np.isin(result.D_hat[active],
                              build_alphabet(cfg.modulation).active_symbols))
        assert result.channel_hat.shape == (cfg.M,)
        assert np.all(np.isfinite(result.channel_hat))


def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestPinnedRunDetector:
    """run_detector's outputs on make_frame(), recorded when it still
    stepped the bare loop one iteration at a time for its trace, which
    the loop now keeps itself; they must not move.  The arrays are pinned
    by the SHA-256 of their bytes.  AER, SER and CE_MSE score the decision
    after each iteration of the bare loop, continued one iteration at a
    time as an n_it sweep runs it.

    The decisions (ACTIVE, D_ROWS, AER, SER) are one table for every
    OpenBLAS core.  The floats move in their last bits with the core, so
    RECORDED keys them by the core that numpy's OpenBLAS reports; for this
    frame they do not move with the BLAS thread count.  A core with no
    record fails and shows what it measured; README's "Install and test"
    says how to record one."""

    ACTIVE = [2, 17]
    # Alphabet indices of the D_hat rows of the active users; every other
    # row is all null.
    D_ROWS = [[1, 3, 4, 4, 4], [1, 15, 2, 9, 8]]
    AER = [0.06666666666666667, 0.03333333333333333, 0.03333333333333333,
           0.0, 0.0, 0.0]
    SER = [0.06666666666666667, 0.05, 0.05, 0.025, 0.025,
           0.016666666666666666]
    # Per core: the digests of channel_hat and llr_dec, delta_x and CE_MSE
    # at n_it=6.
    RECORDED = {
        "SkylakeX": {
            "CHANNEL_SHA": "f6f4b5ee5d52a818486d6d11042d0a33"
                           "d8a5579ed5ef4cb3ca484e88997a191a",
            "LLR_SHA": "653c03c7350533535bae4dcac1a02889"
                       "e6713cc1a02473801a5c17d4071f0dea",
            "DELTA_X": [
                0.0028452117601548924, 0.007025020399393351,
                0.010449588063609837, 0.00518527855019272,
                0.0023513725092286983, 0.0014883031180816413],
            "CE_MSE": [
                0.007087163770688274, 0.004849605886146495,
                0.0029008940353675476, 0.0022351829798366177,
                0.0019625634027111856, 0.001822647626259371],
        },
        "Haswell": {
            "CHANNEL_SHA": "0c916e95af9657ccdc8f69d3c8808e49"
                           "9c6e896ea30da8db326480eade91bed7",
            "LLR_SHA": "1dcffeeb89b116c8fc49a44606720272"
                       "9a28127a412d2f70836c14285521b290",
            "DELTA_X": [
                0.002845211760154891, 0.007025020399393347,
                0.010449588063609837, 0.005185278550192722,
                0.002351372509228697, 0.0014883031180816391],
            "CE_MSE": [
                0.007087163770688274, 0.0048496058861464955,
                0.0029008940353675485, 0.002235182979836618,
                0.001962563402711186, 0.001822647626259372],
        },
        "Sandybridge": {
            "CHANNEL_SHA": "01217c8ba8974378f5d24fb62aa304c0"
                           "1950e247cd5c30d8cbb8de4cd01614cd",
            "LLR_SHA": "367d162e82a87b2bcc683fd3963cdbfe"
                       "ef60749fadcdff3058a63265659f850e",
            "DELTA_X": [
                0.002845211760154893, 0.0070250203993933525,
                0.010449588063609839, 0.005185278550192718,
                0.002351372509228698, 0.001488303118081642],
            "CE_MSE": [
                0.007087163770688274, 0.004849605886146495,
                0.0029008940353675476, 0.002235182979836618,
                0.0019625634027111856, 0.0018226476262593713],
        },
        "Nehalem": {
            "CHANNEL_SHA": "70b1f6e3baecf53d14c1659644cd34f2"
                           "271648b076faf84f649844cc680763d3",
            "LLR_SHA": "65e2433c49c594d8c3646645b2b50682"
                       "1eb12746393d83b5ba4943659bc0c600",
            "DELTA_X": [
                0.002845211760154891, 0.007025020399393349,
                0.010449588063609839, 0.00518527855019272,
                0.0023513725092286987, 0.0014883031180816435],
            "CE_MSE": [
                0.007087163770688274, 0.004849605886146495,
                0.002900894035367548, 0.0022351829798366173,
                0.0019625634027111848, 0.00182264762625937],
        },
        "Katmai": {
            "CHANNEL_SHA": "f710c007a1481406831b0334757691da"
                           "4f281a9ed0d54f66a4e6d82c6f9e6f61",
            "LLR_SHA": "317e57884b13b27caeb330c1efe6db3e"
                       "55e555c8eda6a37877dc6e735a694727",
            "DELTA_X": [
                0.0028452117601548924, 0.007025020399393351,
                0.010449588063609839, 0.005185278550192718,
                0.0023513725092286974, 0.0014883031180816426],
            "CE_MSE": [
                0.007087163770688274, 0.004849605886146495,
                0.0029008940353675476, 0.0022351829798366186,
                0.001962563402711186, 0.0018226476262593713],
        },
    }

    def assert_recorded(self, **measured):
        """Assert that measured equals the running core's record."""
        core = openblas_core()
        if core not in self.RECORDED:
            pytest.fail(f"no pins recorded for OpenBLAS core {core!r}; "
                        f"it measured {measured!r}")
        assert measured == {key: self.RECORDED[core][key] for key in measured}

    def test_outputs_match_recorded_values(self):
        cfg, alph, fr = make_frame()
        result, trace = run_detector(fr.A, fr.Y, cfg)
        assert np.flatnonzero(result.activity_hat).tolist() == self.ACTIVE
        assert result.activity_hat.dtype == np.int8
        want_d = np.zeros((cfg.M, cfg.J), dtype=complex)
        want_d[self.ACTIVE] = alph.symbols[self.D_ROWS]
        assert np.array_equal(result.D_hat, want_d)
        self.assert_recorded(CHANNEL_SHA=digest(result.channel_hat),
                             LLR_SHA=digest(result.llr_dec),
                             DELTA_X=trace.delta_x)

    def test_decision_at_each_prefix_matches_recorded_values(self):
        cfg, alph, fr = make_frame()
        internals = detector_init(fr.A, fr.Y, cfg)
        aer, ser, ce_mse = [], [], []
        for n_it in range(1, cfg.n_it + 1):
            run_detector_internals(internals, n_it)
            result = detector._finalize(internals, include_offset=True)
            aer.append(compute_aer(fr.activity, result.activity_hat))
            ser.append(compute_ser(fr.D, result.D_hat))
            ce_mse.append(compute_ce_mse(fr.mu, result.channel_hat))
        assert (aer, ser) == (self.AER, self.SER)
        self.assert_recorded(CE_MSE=ce_mse)
