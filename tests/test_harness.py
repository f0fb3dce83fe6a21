import concurrent.futures
import dataclasses
import hashlib
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from ampvbic import harness
from ampvbic.amp import amp_init
from ampvbic.errors import ConfigError, DimensionMismatch, \
    NumericalBreakdown, TrialFailure
from ampvbic.detector import run_detector
from ampvbic.harness import (MetricsRecord, aggregate, compute_aer,
                             compute_ce_mse, compute_ser, genie_detect,
                             run_trials, summarize, sweep, trial_rng,
                             write_csv)
from ampvbic.model import ScenarioConfig, ScenarioInstance, build_alphabet, \
    generate_frame
from oracles import REFERENCE_CELL, openblas_core, without_runtimes


class TestAer:

    def test_one_in_four(self):
        assert compute_aer(np.array([1, 0, 0, 1]),
                           np.array([1, 1, 0, 1])) == pytest.approx(0.25)

    def test_perfect(self):
        v = np.array([1, 0, 1])
        assert compute_aer(v, v) == 0.0

    def test_complementary(self):
        assert compute_aer(np.array([1, 0]), np.array([0, 1])) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compute_aer(np.zeros(3), np.zeros(4))


class TestSer:

    def test_identical(self):
        d = np.ones((3, 4), dtype=complex)
        assert compute_ser(d, d) == 0.0

    def test_single_data_error(self):
        d = np.ones((2, 5), dtype=complex)
        d_hat = d.copy()
        d_hat[0, 2] = -1.0  # one of the 2 x 4 data slots
        assert compute_ser(d, d_hat) == pytest.approx(0.125)

    def test_zeroed_row(self):
        d = np.zeros((10, 10), dtype=complex)
        d[0, :] = 1.0  # 9 of the 10 x 9 data slots go wrong
        assert compute_ser(d, np.zeros_like(d)) == pytest.approx(0.1)

    def test_rs_column_excluded_by_default(self):
        d = np.ones((2, 5), dtype=complex)
        d_hat = d.copy()
        d_hat[:, 0] = -1.0  # both errors sit in the reference slot
        assert compute_ser(d, d_hat) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compute_ser(np.zeros((2, 3)), np.zeros((3, 2)))


class TestCeMse:

    def test_exact(self):
        mu = np.array([1 + 1j, 0.5])
        assert compute_ce_mse(mu, mu) == 0.0

    def test_single_user(self):
        assert compute_ce_mse(np.array([1.0 + 0j]), np.array([0.0 + 0j])) == 1.0

    def test_swapped(self):
        assert compute_ce_mse(np.array([1 + 0j, 0 + 0j]),
                              np.array([0 + 0j, 1 + 0j])) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compute_ce_mse(np.zeros(3, dtype=complex), np.zeros(4, dtype=complex))


@pytest.mark.parametrize("score, noun", [
    (compute_aer, "activity vectors"), (compute_ser, "symbol matrices"),
    (compute_ce_mse, "channel vectors")], ids=["aer", "ser", "ce_mse"])
def test_score_shape_mismatch_names_its_inputs(score, noun):
    # One shape rule for every score; lists are converted like arrays.
    with pytest.raises(DimensionMismatch, match=f"{noun} differ in shape"):
        score(np.zeros((2, 3)), [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("shape", [(4,), (2, 3, 4)], ids=["1-d", "3-d"])
def test_ser_needs_symbol_matrices(shape):
    # A 1-d pair has no slot axis, and a 3-d pair would be scored on the
    # wrong one.
    with pytest.raises(DimensionMismatch, match="symbol matrices must be 2-d"):
        compute_ser(np.zeros(shape), np.zeros(shape))


def truth_frame(activity, mu, d):
    """A frame holding the truth genie_detect reads (support, channels)
    around symbols d; A and Y are one-row placeholders."""
    m, j = d.shape
    return ScenarioInstance(A=np.zeros((1, m), dtype=complex),
                            activity=np.asarray(activity), mu=mu, D=d,
                            Y=np.zeros((1, j), dtype=complex))


class TestGenie:

    def setup_method(self):
        self.alph = build_alphabet("qpsk")

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(51)
        m, j = 20, 6
        support = (rng.random(m) < 0.4).astype(np.int8)
        mu = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * support
        d = self.alph.active_symbols[rng.integers(0, 4, (m, j))]
        d = d * support[:, None]
        frame = truth_frame(support, mu, d)
        res = genie_detect(frame.mu[:, None] * frame.D, frame, self.alph)
        assert np.array_equal(res.activity_hat, support)
        assert np.allclose(res.D_hat, d)
        assert np.array_equal(res.activity_hat, (res.llr_dec > 0).astype(np.int8))

    def test_tie_breaks_to_lowest_index(self):
        # r = 0 is equidistant from the four innermost symbols at any gain;
        # the lowest-index one of them wins, in nearest and in the genie.
        for modulation in ("qpsk", "qam16"):
            alph = build_alphabet(modulation)
            ring = np.abs(alph.active_symbols)
            inner = ring == ring.min()
            first = alph.active_symbols[np.argmax(inner)]
            assert inner.sum() == 4
            for gain in (1.0, 0.5j, np.array([[2.0], [-1.0 + 1.0j]])):
                assert np.all(alph.nearest(np.zeros((2, 3)), gain) == first)
            r = np.zeros((1, 2), dtype=complex)
            frame = truth_frame(np.array([1]), np.array([1.0 + 0.0j]),
                                alph.active_symbols[:2][None])
            assert np.all(genie_detect(r, frame, alph).D_hat == first)

    def test_inactive_rows_zero_active_rows_brute_force_nearest(self):
        cfg = tiny_config(M=40, J=5)
        alph = build_alphabet(cfg.modulation)
        rng = trial_rng(cfg.seed, 0)
        frame = generate_frame(cfg, rng)
        x = frame.mu[:, None] * frame.D
        r = x + 0.3 * (rng.standard_normal(x.shape)
                       + 1j * rng.standard_normal(x.shape))
        res = genie_detect(r, frame, alph)
        active = frame.activity.astype(bool)
        assert active.any() and not active.all()
        assert np.all(res.D_hat[~active] == 0)
        for m in np.flatnonzero(active):
            for j in range(cfg.J):
                dists = [abs(r[m, j] - frame.mu[m] * d)
                         for d in alph.active_symbols]
                assert res.D_hat[m, j] == alph.active_symbols[np.argmin(dists)]

    def test_matches_analytic_qpsk_error_rate(self):
        # Single user, known unit channel, no interference: nearest-symbol
        # detection over QPSK has symbol error rate 2q - q^2 with
        # q = Q(1/sigma).  10 dB -> sigma^2 = 0.1.
        sigma2 = 0.1
        q = stats.norm.sf(1.0 / np.sqrt(sigma2))
        want = 2 * q - q * q
        rng = np.random.default_rng(52)
        errors = 0
        total = 0
        for _ in range(10):
            m, j = 2000, 100
            d = self.alph.active_symbols[rng.integers(0, 4, (m, j))]
            noise = (rng.standard_normal((m, j)) + 1j * rng.standard_normal((m, j))) \
                * np.sqrt(sigma2 / 2)
            frame = truth_frame(np.ones(m, dtype=np.int8),
                                np.ones(m, dtype=complex), d)
            res = genie_detect(d + noise, frame, self.alph)
            errors += np.sum(np.abs(res.D_hat - d) > 1e-9)
            total += m * j
        assert errors / total == pytest.approx(want, rel=0.1)


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the process pool by one that runs each task in this process
    and records its size, so no worker process is started; the fixture's
    value is the list of pool sizes."""
    sizes = []

    class InlinePool:
        # The worker initializer is not run: it would act on this process.
        def __init__(self, max_workers, initializer=None, initargs=()):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


def tiny_config(**overrides):
    kwargs = dict(M=24, N=16, J=4, p_a=0.15, snr_db=8.0,
                  modulation="qam16", n_it=4, seed=9)
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


class TestRunTrials:

    def test_reproducible(self):
        cfg = tiny_config()
        r1 = run_trials(cfg, 3, ("amp_vbic", "genie"))
        r2 = run_trials(cfg, 3, ("amp_vbic", "genie"))
        for a, b in zip(r1, r2):
            assert (a.detector, a.trial, a.aer, a.ser, a.ce_mse) == \
                (b.detector, b.trial, b.aer, b.ser, b.ce_mse)

    def test_batch_split_equivalence(self):
        cfg = tiny_config()
        full = run_trials(cfg, 6)
        first = run_trials(cfg, 3)
        second = run_trials(cfg, 3, trial_start=3)
        key = lambda r: (r.trial, r.detector, r.aer, r.ser, r.ce_mse)
        assert sorted(map(key, full)) == sorted(map(key, first + second))

    def test_record_contents(self):
        cfg = tiny_config()
        records = run_trials(cfg, 2, ("amp_vbic", "amp_vbic_no_offset", "genie"))
        assert len(records) == 6
        for rec in records:
            assert 0.0 <= rec.aer <= 1.0
            assert 0.0 <= rec.ser <= 1.0
            assert rec.ce_mse >= 0.0
            assert np.isfinite(rec.runtime_ms)
            assert (rec.M, rec.N, rec.J) == (cfg.M, cfg.N, cfg.J)

    def test_parallel_matches_sequential(self):
        cfg = tiny_config()
        seq = run_trials(cfg, 4, ("amp_vbic",))
        par = run_trials(cfg, 4, ("amp_vbic",), n_workers=2)
        for a, b in zip(seq, par):
            assert (a.trial, a.aer, a.ser, a.ce_mse) == (b.trial, b.aer, b.ser, b.ce_mse)

    def test_serial_with_one_blas_thread_matches_pool(self):
        # On some OpenBLAS cores (Haswell, Sandybridge, Nehalem) a product
        # split over several BLAS threads rounds differently at the ref
        # cell, so a serial run equals the pool, whose workers run one
        # BLAS thread each, only at one thread.
        before = harness._set_blas_threads(1)
        if before is None:
            pytest.skip("numpy links no scipy-openblas build")
        try:
            serial = run_trials(REFERENCE_CELL, 4, tuple(harness.DETECTORS))
        finally:
            harness._set_blas_threads(before)
        pooled = run_trials(REFERENCE_CELL, 4, tuple(harness.DETECTORS),
                            n_workers=2)
        assert without_runtimes(serial) == without_runtimes(pooled)

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        # Each record's aer is the BLAS thread count its worker saw.  This
        # process runs two meanwhile, which a forked worker would inherit
        # if the pool did not pin it.
        before = harness._set_blas_threads(2)
        if before is None:
            pytest.skip("numpy links no scipy-openblas build")
        try:
            monkeypatch.setattr(harness, "compute_aer", lambda *args: float(
                harness._set_blas_threads(1)))
            records = run_trials(tiny_config(), 2, n_workers=2)
        finally:
            harness._set_blas_threads(before)
        assert [rec.aer for rec in records] == [1.0, 1.0]

    def test_blas_thread_helper_returns_previous_count(self):
        before = harness._set_blas_threads(1)
        if before is None:
            pytest.skip("numpy links no scipy-openblas build")
        try:
            assert harness._set_blas_threads(2) == 1
            assert harness._set_blas_threads(before) == 2
        finally:
            harness._set_blas_threads(before)

    def test_blas_thread_helper_without_scipy_openblas(self, monkeypatch):
        # Where numpy links no scipy-openblas build, the helper sets nothing.
        def no_library(path):
            raise OSError(f"cannot load {path}")
        monkeypatch.setattr(harness.ctypes, "CDLL", no_library)
        assert harness._set_blas_threads(1) is None

    def test_bad_inputs(self):
        cfg = tiny_config()
        with pytest.raises(ConfigError):
            run_trials(cfg, 0)
        with pytest.raises(ConfigError):
            run_trials(cfg, 1, ("bomp",))
        with pytest.raises(ConfigError):
            run_trials(cfg, 1, n_workers=0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n_trials="3"), "n_trials must be an integer"),
        (dict(n_trials=2.5), "n_trials must be an integer"),
        (dict(n_trials=True), "n_trials must be an integer"),
        (dict(n_workers=2.5), "n_workers must be an integer"),
        (dict(n_workers=True), "n_workers must be an integer"),
        (dict(trial_start=1.5), "trial_start must be an integer"),
        (dict(trial_start=-1), "trial_start must be >= 0"),
        (dict(n_active=2.5), "n_active must be an integer"),
        (dict(n_active=-1), r"n_active must lie in \[0, M=24\]"),
        (dict(n_active=25), r"n_active must lie in \[0, M=24\]"),
        (dict(detectors=None), "detectors must be a sequence"),
        (dict(detectors=()), "detectors must name at least one"),
        (dict(detectors=(d for d in ["amp_vbic"])),
         "detectors must be a sequence of names"),
        (dict(detectors={"amp_vbic", "genie"}),
         "detectors must be a sequence of names"),
        (dict(detectors="genie"), "detectors must be a sequence of names"),
        (dict(detectors=("amp_vbic", "genie", "amp_vbic")),
         "detectors must not repeat a name")],
        ids=["n_trials=str", "n_trials=float", "n_trials=bool",
             "n_workers=float", "n_workers=bool", "trial_start=float",
             "trial_start=-1", "n_active=float", "n_active=-1",
             "n_active=M+1", "detectors=None", "detectors=empty",
             "detectors=generator", "detectors=set", "detectors=str",
             "detectors=repeated"])
    def test_bad_request_fails_before_any_trial(self, monkeypatch, kwargs,
                                                message):
        def no_frames(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "generate_frame", no_frames)
        kwargs = {"n_trials": 2, **kwargs}
        with pytest.raises(ConfigError, match=message):
            run_trials(tiny_config(), **kwargs)

    def test_spreading_matrix_beyond_memory_fails_before_any_trial(
            self, monkeypatch):
        # 16 N M bytes = 16 * 10**18 for this frame's A alone.
        def no_frames(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "generate_frame", no_frames)
        with pytest.raises(ConfigError, match="spreading matrix needs"):
            run_trials(tiny_config(M=10 ** 12, N=10 ** 6), 1)

    def test_vb_state_beyond_memory_fails_before_any_trial(self, monkeypatch):
        # A takes only 320 kB here, but one (K, M, J) float64 array of the
        # VB state takes 8 * 17 * 200 * 10**9 bytes.
        def no_frames(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "generate_frame", no_frames)
        cfg = tiny_config(M=200, N=100, J=10 ** 9)
        with pytest.raises(ConfigError, match=r"\(K, M, J\) = \(17, 200, "):
            run_trials(cfg, 1)
        with pytest.raises(ConfigError, match="VB state"):
            sweep(cfg, "snr_db", [5.0], 1)

    def test_peak_temporaries_count_against_memory(self, monkeypatch):
        # A large_m-sized request: A with its N x M float64 temporary
        # (24 N M bytes) and the VB step's four (K, M, J) arrays (32 K M J)
        # exceed 40.96 MB, though A and one VB array alone would not.
        cfg = tiny_config(M=2000, N=1000)
        k, m, n, j = 17, cfg.M, cfg.N, cfg.J
        pages = 10_000
        memory = 4096 * pages
        assert 16 * n * m + 8 * k * m * j < memory < 24 * n * m + 32 * k * m * j
        def no_frames(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "generate_frame", no_frames)
        monkeypatch.setattr(harness.os, "sysconf", lambda name: {
            "SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}[name])
        with pytest.raises(ConfigError, match=f"than the {memory} bytes"):
            run_trials(cfg, 1)

    def test_zero_noise_variance_is_config_error_on_both_paths(
            self, monkeypatch):
        # One condition, one type: before any trial in the harness, and
        # in a direct decoupling state.
        def no_frames(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "generate_frame", no_frames)
        with pytest.raises(ConfigError, match="noise variance 0"):
            run_trials(tiny_config(snr_db=4000.0), 1)
        with pytest.raises(ConfigError, match="noise_var must be > 0"):
            amp_init(np.ones((2, 3), dtype=complex),
                     np.ones((2, 2), dtype=complex), 0.0)

    def test_numpy_integer_request_arguments_run(self):
        records = run_trials(tiny_config(), np.int64(2), trial_start=np.int64(3),
                             n_workers=np.int64(1), n_active=np.int64(24))
        assert without_runtime(records) == without_runtime(
            run_trials(tiny_config(), 2, trial_start=3, n_active=24))

    def test_at_most_one_worker_per_trial(self, inline_pool):
        assert len(run_trials(tiny_config(), 2, n_workers=64)) == 2
        run_trials(tiny_config(), 1, n_workers=64)
        assert inline_pool == [2]


class TestAggregate:

    def test_summarize_prints_the_aggregate_means(self):
        base = dict(M=4, N=4, J=2, p_a=0.1, snr_db=0.0, n_it=1)
        recs = [MetricsRecord(detector="amp_vbic", trial=0, aer=0.2, ser=0.4,
                              ce_mse=0.01, runtime_ms=2.0, **base),
                MetricsRecord(detector="genie", trial=0, aer=0.0, ser=0.1,
                              ce_mse=0.0, runtime_ms=1.0, **base),
                MetricsRecord(detector="amp_vbic", trial=1, aer=0.4, ser=0.2,
                              ce_mse=0.03, runtime_ms=4.0, **base),
                MetricsRecord(detector="genie", trial=1, aer=0.0, ser=0.3,
                              ce_mse=0.0, runtime_ms=3.0, **base)]
        assert [line.split() for line in summarize(recs).splitlines()] == [
            ["detector", "M", "N", "J", "p_a", "snr_db", "n_it",
             "aer", "ser", "ce_mse", "runtime_ms"],
            ["amp_vbic", "4", "4", "2", "0.1", "0", "1",
             "0.30000", "0.30000", "0.020000", "3.00"],
            ["genie", "4", "4", "2", "0.1", "0", "1",
             "0.00000", "0.20000", "0.000000", "2.00"]]
        assert summarize(aggregate(recs)) == summarize(recs)

    def test_mean_and_stderr(self):
        base = dict(detector="amp_vbic", M=4, N=4, J=2, p_a=0.1,
                    snr_db=0.0, n_it=1, ce_mse=0.0, runtime_ms=1.0)
        recs = [MetricsRecord(trial=0, aer=0.2, ser=0.4, **base),
                MetricsRecord(trial=1, aer=0.4, ser=0.2, **base)]
        agg, = aggregate(recs)
        assert agg.trial == -1
        assert agg.aer == pytest.approx(0.3)
        assert agg.ser == pytest.approx(0.3)
        want = np.std([0.2, 0.4], ddof=1) / np.sqrt(2)
        assert agg.aer_stderr == pytest.approx(want)

    def test_single_trial_stderr_zero(self):
        rec = MetricsRecord(detector="genie", trial=0, M=4, N=4, J=2,
                            p_a=0.1, snr_db=0.0, n_it=1, aer=0.0, ser=0.0,
                            ce_mse=0.0, runtime_ms=1.0)
        agg, = aggregate([rec])
        assert agg.aer_stderr == 0.0


class TestSweep:

    def test_single_value_cardinality(self):
        cfg = tiny_config()
        rows = sweep(cfg, "snr_db", [0.0], 2, ("amp_vbic", "genie"))
        assert len(rows) == 2
        assert {r.detector for r in rows} == {"amp_vbic", "genie"}
        assert all(r.trial == -1 for r in rows)

    def test_invalid_axis(self):
        with pytest.raises(ConfigError, match="axis must be one of"):
            sweep(tiny_config(), "bandwidth", [1.0], 1)

    def test_non_iterable_detectors_fail_before_any_trial(self, monkeypatch):
        def no_frames(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "generate_frame", no_frames)
        with pytest.raises(ConfigError, match="detectors must be a sequence"):
            sweep(tiny_config(), "snr_db", [5.0], 1, detectors=None)
        with pytest.raises(ConfigError, match="detectors must be a sequence"):
            sweep(tiny_config(), "snr_db", [5.0], 1,
                  detectors=(d for d in ["amp_vbic"]))

    @pytest.mark.parametrize("axis", ["snr_db", "n_it"])
    def test_empty_detectors_fail_before_any_trial(self, monkeypatch, axis):
        def no_frames(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "generate_frame", no_frames)
        with pytest.raises(ConfigError, match="at least one"):
            sweep(tiny_config(), axis, [5, 10], 1, detectors=[])

    def test_empty_values(self):
        with pytest.raises(ConfigError):
            sweep(tiny_config(), "snr_db", [], 1)

    @pytest.mark.parametrize("axis, values", [
        ("p_a", [0.1, 0.0]), ("p_a", [0.1, 1.0]), ("snr_db", [5.0, 4000.0])])
    def test_undetectable_value_fails_before_any_trial(self, monkeypatch,
                                                       axis, values):
        def no_frames(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "generate_frame", no_frames)
        with pytest.raises(ConfigError):
            sweep(tiny_config(), axis, values, 2)

    def test_numpy_snr_values_fail_before_any_trial_without_warning(
            self, monkeypatch):
        # Values from a numpy array reach noise_variance_from_snr as numpy
        # scalars; the overflowing one is a ConfigError, not a warning.
        def no_frames(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "generate_frame", no_frames)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="noise variance"):
                sweep(tiny_config(), "snr_db", np.array([5.0, -4000.0]), 2)

    @pytest.mark.parametrize("axis, values, message", [
        ("snr_db", [5.0, "abc"], "snr_db must be a number"),
        ("N", [12.7, 15], "N must be an integer"),
        ("n_it", [5, 20.5], "n_it must be an integer"),
        ("snr_db", 5, "values must be a sequence")],
        ids=["non-numeric-snr_db", "non-integral-N", "non-integral-n_it",
             "non-iterable-values"])
    def test_bad_value_type_fails_before_any_trial(self, monkeypatch, axis,
                                                   values, message):
        def no_frames(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "generate_frame", no_frames)
        with pytest.raises(ConfigError, match=message):
            sweep(tiny_config(), axis, values, 2)

    # A value given twice would write its rows twice, and on every axis
    # but n_it run its trials again; values repeat when their configs are
    # equal, so 8 and 8.0 are one snr_db and 12 and 12.0 one N.
    @pytest.mark.parametrize("axis, values", [
        ("snr_db", [8, 0.0, 8.0]), ("N", [12, 20, 12.0]), ("p_a", [0.2, 0.2]),
        ("n_it", [5, 5])], ids=["snr_db", "N", "p_a", "n_it"])
    def test_repeated_value_fails_before_any_trial(self, monkeypatch, axis,
                                                   values):
        def no_frames(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "generate_frame", no_frames)
        with pytest.raises(ConfigError, match="values must not repeat a value"):
            sweep(tiny_config(), axis, values, 2)

    @pytest.mark.parametrize("axis", ["N", "n_it"])
    def test_integral_float_values_run_as_ints(self, axis):
        rows = sweep(tiny_config(), axis, [12.0, np.int64(6)], 1)
        assert [(type(v), v) for v in (getattr(r, axis) for r in rows)] == \
            [(int, 12), (int, 6)]
        assert without_runtime(rows) == without_runtime(
            sweep(tiny_config(), axis, [12, 6], 1))

    def test_axis_value_lands_in_records(self):
        rows = sweep(tiny_config(), "N", [12, 20], 2)
        assert sorted(r.N for r in rows) == [12, 20]

    # At p_a=0.02, trials 0 and 2 of tiny_config() have no active user, so
    # the p_a case also checks that empty frames aggregate as in run_trials.
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("axis, values", [
        ("snr_db", [0.0, 8.0, 4.0]), ("N", [12, 20]), ("p_a", [0.02, 0.25])],
        ids=["snr_db", "N", "p_a-bernoulli"])
    def test_matches_per_value_runs(self, axis, values, n_workers):
        detectors = ("amp_vbic", "amp_vbic_no_offset", "genie")
        rows = sweep(tiny_config(), axis, values, 3, detectors,
                     n_workers=n_workers)
        assert [(getattr(r, axis), r.detector) for r in rows] == \
            [(v, d) for v in values for d in detectors]
        assert without_runtime(rows) == without_runtime(per_value_rows(
            tiny_config(), values, 3, detectors, axis))

    @pytest.mark.parametrize("n_workers, pool_size", [(4, 4), (64, 6)])
    def test_one_pool_and_one_check_per_sweep(self, monkeypatch, inline_pool,
                                              n_workers, pool_size):
        checks = []
        real_check = harness._check_request

        def counted_check(*args):
            checks.append(args)
            return real_check(*args)

        def no_run_trials(*args, **kwargs):
            raise AssertionError("sweep called run_trials")

        monkeypatch.setattr(harness, "_check_request", counted_check)
        monkeypatch.setattr(harness, "run_trials", no_run_trials)
        rows = sweep(tiny_config(), "snr_db", [0.0, 4.0, 8.0], 2,
                     n_workers=n_workers)
        assert len(rows) == 3
        assert inline_pool == [pool_size]
        assert len(checks) == 1


def without_runtime(rows):
    return [[(f.name, repr(getattr(r, f.name)))
             for f in dataclasses.fields(r) if f.name != "runtime_ms"]
            for r in rows]


def per_value_rows(cfg, values, n_trials, detectors, axis="n_it"):
    """A sweep's rows built from one run_trials call per value."""
    rows = []
    for v in values:
        rows += aggregate(run_trials(dataclasses.replace(cfg, **{axis: v}),
                                     n_trials, detectors))
    return rows


def breakdown(*args, **kwargs):
    raise NumericalBreakdown("synthetic breakdown")


class TestNitSweep:
    """An n_it sweep runs one loop per trial and decides at each value."""

    DETECTORS = ("amp_vbic", "amp_vbic_no_offset", "genie")

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("seed", [7, 11])
    def test_matches_per_value_runs(self, seed, n_workers):
        cfg = tiny_config(seed=seed)
        rows = sweep(cfg, "n_it", [5, 20, 50], 3, self.DETECTORS,
                     n_workers=n_workers)
        assert [(r.n_it, r.detector) for r in rows] == \
            [(v, d) for v in (5, 20, 50) for d in self.DETECTORS]
        assert without_runtime(rows) == without_runtime(
            per_value_rows(cfg, [5, 20, 50], 3, self.DETECTORS))

    def test_unsorted_values(self):
        cfg = tiny_config()
        rows = sweep(cfg, "n_it", [20, 5], 2, self.DETECTORS)
        assert without_runtime(rows) == without_runtime(
            per_value_rows(cfg, [20, 5], 2, self.DETECTORS))

    def test_invalid_value_rejected_before_any_trial(self, monkeypatch):
        monkeypatch.setattr(harness, "generate_frame", breakdown)
        with pytest.raises(ConfigError):
            sweep(tiny_config(), "n_it", [5, 0], 2)

    def test_runtime_is_loop_to_the_value_plus_one_decision(self, monkeypatch):
        # On a fake clock the loop's set-up takes 0.5 s, every loop
        # iteration 1 s and every decision, _finalize or the genie's, 1 ms:
        # the row at value v reads the set-up and v s of loop plus that
        # detector's one decision, as a fresh v-iteration run would, and
        # no decision at a smaller value.  The detector table must call
        # both through the harness's names.
        clock = [0.0]
        real_init = harness.detector_init
        real_loop = harness.run_detector_internals

        def init(*args):
            clock[0] += 0.5
            return real_init(*args)

        def loop(internals, n_it):
            clock[0] += n_it - len(internals.trace.delta_x)
            real_loop(internals, n_it)

        def one_ms(decide):
            def timed(*args, **kwargs):
                clock[0] += 1e-3
                return decide(*args, **kwargs)
            return timed

        monkeypatch.setattr(harness, "time",
                            SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(harness, "detector_init", init)
        monkeypatch.setattr(harness, "run_detector_internals", loop)
        monkeypatch.setattr(harness, "_finalize", one_ms(harness._finalize))
        monkeypatch.setattr(harness, "genie_detect",
                            one_ms(harness.genie_detect))
        rows = sweep(tiny_config(), "n_it", [20, 5], 2, self.DETECTORS)
        assert [(r.n_it, r.detector, r.runtime_ms) for r in rows] == [
            (n_it, d, pytest.approx(500.0 + n_it * 1e3 + 1.0))
            for n_it in (20, 5) for d in self.DETECTORS]

    def test_loop_state_holds_the_trace_to_the_largest_value(self,
                                                             monkeypatch):
        # The trial's one loop keeps its trace as it is continued: after a
        # sweep over 5 and 20 the state holds one entry per iteration.
        states = []
        real_loop = harness.run_detector_internals

        def loop(internals, n_it):
            states.append(internals)
            real_loop(internals, n_it)

        monkeypatch.setattr(harness, "run_detector_internals", loop)
        sweep(tiny_config(), "n_it", [5, 20], 1)
        assert len(states[-1].trace.delta_x) == 20


class TestDetectorTable:

    @pytest.mark.parametrize("name", [name for name in harness.DETECTORS
                                      if name != "genie"])
    def test_only_the_genie_reads_the_frame(self, name):
        cfg = tiny_config()
        frame = generate_frame(cfg, trial_rng(cfg.seed, 0))
        internals = harness.detector_init(frame.A, frame.Y, cfg)
        harness.run_detector_internals(internals, cfg.n_it)
        decide = harness.DETECTORS[name]
        with_frame, without = decide(internals, frame), decide(internals, None)
        for field in dataclasses.fields(with_frame):
            assert np.array_equal(getattr(with_frame, field.name),
                                  getattr(without, field.name)), field.name


class TestPoolFailures:
    """A breakdown inside a pool worker keeps its type as the cause."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_run_trials_chains_the_cause(self, monkeypatch, n_workers):
        monkeypatch.setattr(harness, "run_detector_internals", breakdown)
        with pytest.raises(TrialFailure, match="trial 0") as info:
            run_trials(tiny_config(), 2, n_workers=n_workers)
        assert isinstance(info.value.__cause__, NumericalBreakdown)

    def test_failure_cancels_trials_not_started(self, monkeypatch, tmp_path):
        # The first task fails at once; every other one marks that it
        # started and then takes 0.5 s, so without cancellation all nine
        # would start before the pool shuts down.
        def slow_breakdown(a, y, config):
            if config.snr_db > 0:
                (tmp_path / str(config.snr_db)).touch()
                time.sleep(0.5)
            raise NumericalBreakdown("synthetic breakdown")

        monkeypatch.setattr(harness, "detector_init", slow_breakdown)
        values = [float(v) for v in range(10)]
        with pytest.raises(TrialFailure) as info:
            sweep(tiny_config(), "snr_db", values, 1, n_workers=2)
        assert isinstance(info.value.__cause__, NumericalBreakdown)
        assert len(list(tmp_path.iterdir())) < 9

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_failure_names_its_cell(self, monkeypatch, n_workers):
        # Of a 5-value snr_db sweep only the 7.5 dB cell breaks; the
        # message names that value beside the trial.
        real_init = harness.detector_init

        def break_at_7_5_db(a, y, config):
            if config.snr_db == 7.5:
                raise NumericalBreakdown("synthetic breakdown")
            return real_init(a, y, config)

        monkeypatch.setattr(harness, "detector_init", break_at_7_5_db)
        with pytest.raises(TrialFailure, match=r"^trial 0 \(M=24, N=16, "
                           r"p_a=0\.15, snr_db=7\.5\) failed") as info:
            sweep(tiny_config(), "snr_db", [0.0, 5.0, 7.5, 10.0, 15.0], 1,
                  n_workers=n_workers)
        assert isinstance(info.value.__cause__, NumericalBreakdown)

    def test_diverging_frame_fails_as_a_breakdown_alone(self):
        # 300 users on one chip: the clustering diverges until the Gamma
        # rate's sums overflow.  The rate check is the only report, a
        # NumericalBreakdown; a numpy RuntimeWarning raised as an error
        # before it would become the failure's cause instead.
        cfg = ScenarioConfig(M=300, N=1, J=3, p_a=0.1, snr_db=10.0,
                             modulation="qam16", n_it=30, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrialFailure, match="Gamma rate") as info:
                run_trials(cfg, 1, ("amp_vbic",))
        assert isinstance(info.value.__cause__, NumericalBreakdown)

    def test_nit_sweep_chains_the_cause(self, monkeypatch):
        monkeypatch.setattr(harness, "run_detector_internals", breakdown)
        with pytest.raises(TrialFailure) as info:
            sweep(tiny_config(), "n_it", [2, 4], 2, n_workers=2)
        assert isinstance(info.value.__cause__, NumericalBreakdown)


class TestCsv:

    def test_per_trial_schema(self, tmp_path):
        cfg = tiny_config()
        records = run_trials(cfg, 2, ("amp_vbic",))
        out = tmp_path / "trials.csv"
        write_csv(records, out)
        lines = out.read_text().splitlines()
        assert lines[0] == ("detector,trial,M,N,J,p_a,snr_db,n_it,"
                            "aer,ser,ce_mse,runtime_ms")
        assert len(lines) == 3

    def test_aggregated_schema(self, tmp_path):
        cfg = tiny_config()
        rows = sweep(cfg, "snr_db", [0.0, 4.0], 2)
        out = tmp_path / "sweep.csv"
        write_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == ("detector,trial,M,N,J,p_a,snr_db,n_it,"
                            "aer,ser,ce_mse,runtime_ms,"
                            "aer_stderr,ser_stderr,ce_mse_stderr")
        assert all(line.split(",")[1] == "-1" for line in lines[1:])

    def test_rejects_non_finite(self, tmp_path):
        # The check runs before the file is opened: a bad record after a
        # good one leaves the file's previous content as it was.
        good = MetricsRecord(detector="amp_vbic", trial=0, M=1, N=1, J=2,
                             p_a=0.1, snr_db=0.0, n_it=1, aer=0.0, ser=0.0,
                             ce_mse=0.0, runtime_ms=1.0)
        bad = dataclasses.replace(good, trial=1, aer=np.nan)
        out = tmp_path / "bad.csv"
        out.write_text("previous content\n")
        with pytest.raises(ValueError, match="non-finite metric"):
            write_csv([good, bad], out)
        assert out.read_text() == "previous content\n"


# amp_vbic aer, ser, ce_mse and genie ser per trial of the reference cell
# (seed 2026, trials 0..19).  Recorded when the decoupling pass went from
# per-row prediction variances to their mean over the rows, a declared
# model change; ce_mse re-recorded when the channel estimate of a row
# decided on a rotated constellation began to be rotated with its symbols.
# Changes that only reorder floating-point work must leave the decisions
# unmoved and ce_mse within its last digits.
PINNED = [  # (trial, aer, ser, ce_mse, genie ser)
    (0, 0.01, 0.025, 0.00359493108661618, 0.0022222222222222222),
    (1, 0.0, 0.01611111111111111, 0.0029647022821048907, 0.002777777777777778),
    (2, 0.01, 0.03777777777777778, 0.0052366195941552654, 0.014444444444444444),
    (3, 0.0, 0.01, 0.002548535665534821, 0.0),
    (4, 0.005, 0.010555555555555556, 0.0012427904340364796, 0.005),
    (5, 0.01, 0.02666666666666667, 0.00395355870097163, 0.0038888888888888888),
    (6, 0.0, 0.015, 0.003058773365850119, 0.0005555555555555556),
    (7, 0.0, 0.012777777777777779, 0.0035948956723796076, 0.0016666666666666668),
    (8, 0.01, 0.025555555555555557, 0.004622482721428928, 0.0033333333333333335),
    (9, 0.01, 0.03833333333333333, 0.006185505380458502, 0.007222222222222222),
    (10, 0.015, 0.03666666666666667, 0.005875062349147001, 0.0033333333333333335),
    (11, 0.01, 0.021111111111111112, 0.0028418770003699866, 0.0022222222222222222),
    (12, 0.01, 0.023333333333333334, 0.006160529511279758, 0.0016666666666666668),
    (13, 0.005, 0.025555555555555557, 0.004373859212760921, 0.005555555555555556),
    (14, 0.015, 0.059444444444444446, 0.013323372878093973, 0.009444444444444445),
    (15, 0.01, 0.017222222222222222, 0.003616867240898963, 0.005555555555555556),
    (16, 0.0, 0.017777777777777778, 0.0022629155655859825, 0.0005555555555555556),
    (17, 0.015, 0.04888888888888889, 0.01351368025957834, 0.0038888888888888888),
    (18, 0.01, 0.023333333333333334, 0.0051183980032604515, 0.0038888888888888888),
    (19, 0.02, 0.028888888888888888, 0.004099418175446067, 0.011666666666666667),
]

# The same for QPSK (K = 5, seed 2026, trials 0..9): numpy reduces short
# rows of 5 in another order than rows of 17, so a layout change that
# leaves QAM16 unmoved can still move these.
QPSK_CELL = dataclasses.replace(REFERENCE_CELL, modulation="qpsk")
QPSK_PINNED = [  # (trial, aer, ser, ce_mse, genie ser)
    (0, 0.01, 0.01, 0.0007342496224664375, 0.0),
    (1, 0.0, 0.0, 0.00048267538522184906, 0.0),
    (2, 0.015, 0.015, 0.0009537998520835855, 0.0011111111111111111),
    (3, 0.0, 0.0, 0.0005464873004105329, 0.0),
    (4, 0.005, 0.005, 0.0003144644502249567, 0.0011111111111111111),
    (5, 0.005, 0.005, 0.0007564301152605551, 0.0),
    (6, 0.0, 0.0, 0.0006081947208166155, 0.0),
    (7, 0.0, 0.0, 0.0003796462093453682, 0.0),
    (8, 0.005, 0.005, 0.0007507593172762717, 0.0),
    (9, 0.01, 0.01, 0.001167178035683314, 0.0011111111111111111),
]

# Aggregated rows of an n_it sweep of the reference cell at seed 7 (values
# 5, 20, 50; 4 trials; all three detectors), recorded before the loop
# took its iteration count as an int, which left them unmoved; ce_mse
# re-recorded with the reference-cell values above.
NIT_SWEEP_PINNED = [  # (n_it, detector, aer, ser, ce_mse)
    (5, "amp_vbic", 0.036250000000000004, 0.09333333333333334,
     0.022697828500537965),
    (5, "amp_vbic_no_offset", 0.7637499999999999, 0.8383333333333334,
     0.021735780114532893),
    (5, "genie", 0.0, 0.04555555555555556, 0.0),
    (20, "amp_vbic", 0.015, 0.04055555555555555, 0.00951863378305869),
    (20, "amp_vbic_no_offset", 0.76625, 0.80125, 0.009027943535067404),
    (20, "genie", 0.0, 0.01138888888888889, 0.0),
    (50, "amp_vbic", 0.015000000000000001, 0.03611111111111111,
     0.006733358410107379),
    (50, "amp_vbic_no_offset", 0.7737499999999999, 0.8019444444444445,
     0.006394810071299179),
    (50, "genie", 0.0, 0.009583333333333334, 0.0),
]


class TestPinnedDecisions:

    def test_reference_cell_matches_recorded_values(self):
        records = run_trials(REFERENCE_CELL, len(PINNED), ("amp_vbic", "genie"))
        by_key = {(r.detector, r.trial): r for r in records}
        assert len(by_key) == 2 * len(PINNED)
        for trial, aer, ser, ce_mse, genie_ser in PINNED:
            rec = by_key["amp_vbic", trial]
            assert (rec.aer, rec.ser) == (aer, ser), trial
            assert rec.ce_mse == pytest.approx(ce_mse, rel=1e-12, abs=0.0), trial
            genie = by_key["genie", trial]
            assert (genie.aer, genie.ser, genie.ce_mse) == (0.0, genie_ser, 0.0)

    def test_qpsk_reference_cell_matches_recorded_values(self):
        records = run_trials(QPSK_CELL, len(QPSK_PINNED), ("amp_vbic", "genie"))
        by_key = {(r.detector, r.trial): r for r in records}
        assert len(by_key) == 2 * len(QPSK_PINNED)
        for trial, aer, ser, ce_mse, genie_ser in QPSK_PINNED:
            rec = by_key["amp_vbic", trial]
            assert (rec.aer, rec.ser) == (aer, ser), trial
            assert rec.ce_mse == pytest.approx(ce_mse, rel=1e-12, abs=0.0), trial
            genie = by_key["genie", trial]
            assert (genie.aer, genie.ser, genie.ce_mse) == (0.0, genie_ser, 0.0)

    def test_nit_sweep_matches_recorded_values(self):
        # The loop is continued from one count to the next here, while
        # run_trials runs it once; a continuation fault would move these.
        rows = sweep(dataclasses.replace(REFERENCE_CELL, seed=7), "n_it",
                     (5, 20, 50), 4, TestNitSweep.DETECTORS)
        assert len(rows) == len(NIT_SWEEP_PINNED)
        for row, (n_it, name, aer, ser, ce_mse) in zip(rows, NIT_SWEEP_PINNED):
            assert (row.n_it, row.detector) == (n_it, name)
            assert (row.aer, row.ser) == (aer, ser), (n_it, name)
            assert row.ce_mse == pytest.approx(ce_mse, rel=1e-12, abs=0.0), \
                (n_it, name)

    def test_record_scores_run_detector_result(self):
        # run_trials reuses the result the detector loop already finalized;
        # it must score exactly what run_detector returns on that frame.
        records = run_trials(REFERENCE_CELL, 3, ("amp_vbic",), trial_start=17)
        for rec in records:
            frame = generate_frame(REFERENCE_CELL,
                                   trial_rng(REFERENCE_CELL.seed, rec.trial))
            result, _ = run_detector(frame.A, frame.Y, REFERENCE_CELL)
            assert rec.aer == compute_aer(frame.activity, result.activity_hat)
            assert rec.ser == compute_ser(frame.D, result.D_hat)
            assert rec.ce_mse == compute_ce_mse(frame.mu, result.channel_hat)


class TestRecordHashes:
    """Every record of two requests, pinned bit for bit by one hash each:
    run_trials on the reference cell (trials 0..19) and the n_it sweep of
    TestPinnedDecisions (seed 7, values 5, 20 and 50, 4 trials), each with
    all three detectors.  A hash is the first 16 hex digits of the SHA-256
    of repr() of the records with runtime_ms zeroed, so it moves exactly
    when a decision, a score or the record layout moves.

    Float results move in their last bits with the OpenBLAS core, and on
    some cores (Haswell, Sandybridge, Nehalem) with the BLAS thread count
    too, so the serial run is made at one BLAS thread, which the pool's
    workers also run, and must equal the pool.  RECORDED holds the
    (run_trials, nit_sweep) hashes per core, with numpy 2.4.6 and scipy
    1.17.1; a core with no entry fails and shows what it measured, and a
    declared model change re-records the table.  README's "Install and
    test" says how to record a core."""

    RECORDED = {
        "SkylakeX": ("5607319c87d45d83", "ae76d6d668bba877"),
        "Haswell": ("a50f6b85fb857fe5", "21faa82eacc8ea08"),
        "Sandybridge": ("bc571fb1163f3ed1", "69debb841f6736b0"),
        "Nehalem": ("db7f1cc220f24d61", "e8f249b04fe94054"),
        "Katmai": ("32eebda638acd928", "84695a4c97ed5174"),
    }

    @staticmethod
    def hashes(n_workers):
        detectors = TestNitSweep.DETECTORS
        trials = run_trials(REFERENCE_CELL, 20, detectors, n_workers=n_workers)
        rows = sweep(dataclasses.replace(REFERENCE_CELL, seed=7), "n_it",
                     (5, 20, 50), 4, detectors, n_workers=n_workers)
        return tuple(hashlib.sha256(repr(without_runtimes(records)).encode())
                     .hexdigest()[:16] for records in (trials, rows))

    def test_serial_run_equals_pool_and_recorded_hashes(self):
        before = harness._set_blas_threads(1)
        if before is None:
            pytest.skip("numpy links no scipy-openblas build")
        try:
            serial = self.hashes(n_workers=1)
        finally:
            harness._set_blas_threads(before)
        assert self.hashes(n_workers=2) == serial
        core = openblas_core()
        assert core in self.RECORDED, \
            f"no record hashes recorded for OpenBLAS core {core!r}; " \
            f"it measured {serial!r}"
        assert serial == self.RECORDED[core]
