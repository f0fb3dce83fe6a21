"""Monte Carlo experiment runner: the detector table, trials, sweeps,
scores, records and CSV.

Each trial draws an independent frame from a substream derived from
(master seed, trial index), so trials are reproducible, order-independent
and embarrassingly parallel.  The same substream serves every detector
and every swept axis value, which pairs the comparisons (common random
numbers).  A request (run_trials, or a sweep along any axis) is checked
once and runs its (cell, trial) tasks through one executor.  Its pool's
records equal a serial run's bit for bit when this process runs one BLAS
thread, as each worker does: on some OpenBLAS cores a product split over
threads rounds differently (at the reference cell, CE-MSE in its last
bits, and no decision).
"""

from __future__ import annotations

import concurrent.futures
import csv
import ctypes
import dataclasses
import os
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .detector import _finalize, detector_init, genie_detect, \
    run_detector_internals
from .errors import ConfigError, DimensionMismatch, TrialFailure
from .model import ScenarioConfig, _check_n_active, _is_int, build_alphabet, \
    generate_frame

# Each detector's decision (internals, frame) -> DetectionResult reads the
# loop's state; only the genie reads the frame.  Entries call _finalize and
# genie_detect by this module's names, so a patch or trace sees every call.
DETECTORS = {
    "amp_vbic": lambda internals, frame:
        _finalize(internals, include_offset=True),
    "amp_vbic_no_offset": lambda internals, frame:
        _finalize(internals, include_offset=False),
    "genie": lambda internals, frame:
        genie_detect(internals.pseudo.R, frame, internals.vbic_state.alphabet),
}
SWEEP_AXES = ("snr_db", "N", "p_a", "n_it")
SYMBOL_MATCH_TOL = 1e-9


@dataclass
class MetricsRecord:
    """One trial (or one aggregated cell, trial == -1) of one detector."""

    detector: str
    trial: int
    M: int
    N: int
    J: int
    p_a: float
    snr_db: float
    n_it: int
    aer: float
    ser: float
    ce_mse: float
    runtime_ms: float
    aer_stderr: float | None = None
    ser_stderr: float | None = None
    ce_mse_stderr: float | None = None


# MetricsRecord's field order is the CSV schema; the fields that default to
# None, the standard errors, are columns of aggregated files only.
CSV_FIELDS = [f.name for f in dataclasses.fields(MetricsRecord)
              if f.default is not None]
CSV_STDERR_FIELDS = [f.name for f in dataclasses.fields(MetricsRecord)
                     if f.default is None]


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent substream for one trial index."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def _score_inputs(noun: str, truth, estimate) -> tuple[np.ndarray, np.ndarray]:
    """truth and estimate as arrays, which must have one shape."""
    truth, estimate = np.asarray(truth), np.asarray(estimate)
    if truth.shape != estimate.shape:
        raise DimensionMismatch(
            f"{noun} differ in shape: {truth.shape} vs {estimate.shape}")
    return truth, estimate


def compute_aer(truth: np.ndarray, detected: np.ndarray) -> float:
    """Fraction of users whose activity decision is wrong."""
    truth, detected = _score_inputs("activity vectors", truth, detected)
    return float(np.mean(truth.astype(bool) != detected.astype(bool)))


def compute_ser(d_true: np.ndarray, d_hat: np.ndarray) -> float:
    """Fraction of wrong symbol decisions in the data slots 2..J of two
    (M, J) symbol matrices.

    The known reference-symbol slot (column 0) is not scored.  Complex
    equality is tested to 1e-9 absolute.
    """
    d_true, d_hat = _score_inputs("symbol matrices", d_true, d_hat)
    if d_true.ndim != 2:
        raise DimensionMismatch(f"symbol matrices must be 2-d (M, J), got "
                                f"shape {d_true.shape}")
    errors = np.abs(d_true[:, 1:] - d_hat[:, 1:]) > SYMBOL_MATCH_TOL
    return float(np.mean(errors))


def compute_ce_mse(mu_true: np.ndarray, mu_hat: np.ndarray) -> float:
    """Mean squared complex channel-estimate error over all users
    (inactive-user truth is zero)."""
    mu_true, mu_hat = _score_inputs("channel vectors", mu_true, mu_hat)
    return float(np.mean(np.abs(mu_true - mu_hat) ** 2))


def _run_one_trial(cell: tuple, trial: int,
                   detectors: tuple[str, ...]) -> list[list[MetricsRecord]]:
    """Records of one trial of a cell (config, n_active, n_its) at each
    count of n_its, in that order; n_active None draws Bernoulli activity.

    Module-level so that pool workers can run it too.
    """
    config, n_active, n_its = cell
    frame = generate_frame(config, trial_rng(config.seed, trial),
                           n_active=n_active)

    # One iteration loop serves every detector and every count: it runs
    # once up to the largest count and every detector decides at each
    # count before it continues, by its DETECTORS entry.  Every runtime
    # is the loop time up to the count, set-up included, plus that
    # detector's own decision, as in a fresh run of that many iterations.
    t0 = time.perf_counter()
    internals = detector_init(frame.A, frame.Y, config)
    loop_ms = (time.perf_counter() - t0) * 1e3
    by_n_it = {}
    for n_it in sorted(set(n_its)):
        t0 = time.perf_counter()
        run_detector_internals(internals, n_it)
        loop_ms += (time.perf_counter() - t0) * 1e3

        records = []
        for name in detectors:
            t1 = time.perf_counter()
            result = DETECTORS[name](internals, frame)
            runtime = loop_ms + (time.perf_counter() - t1) * 1e3
            records.append(MetricsRecord(
                detector=name, trial=trial, M=config.M, N=config.N, J=config.J,
                p_a=config.p_a, snr_db=config.snr_db, n_it=n_it,
                aer=compute_aer(frame.activity, result.activity_hat),
                ser=compute_ser(frame.D, result.D_hat),
                ce_mse=compute_ce_mse(frame.mu, result.channel_hat),
                runtime_ms=runtime))
        by_n_it[n_it] = records
    return [by_n_it[n_it] for n_it in n_its]


def _check_request(cells: list[tuple], n_trials: int,
                   detectors: tuple[str, ...], n_workers: int,
                   trial_start: int) -> None:
    """Reject, before any trial runs, a request the detector cannot run.

    Each cell's config is a scenario the detector can run; what is left
    to check is the request around it.  n_trials, n_workers and
    trial_start must be ints (not bools) and each n_active None or one,
    each in range; detectors must be a sequence (not a str) of distinct
    known names, at least one; and no config's N x M spreading matrix and
    (K, M, J) VB state may together exceed the machine's physical memory.
    """
    for name, value, low in (("n_trials", n_trials, 1),
                             ("n_workers", n_workers, 1),
                             ("trial_start", trial_start, 0)):
        if not _is_int(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
    # Every trial iterates detectors afresh, so a one-shot iterable would
    # run nothing after its first pass; a set orders the records by string
    # hash, which varies between interpreters.
    if not isinstance(detectors, Sequence) or isinstance(detectors, str):
        raise ConfigError(f"detectors must be a sequence of names, "
                          f"got {detectors!r}")
    # A tuple, so that an unhashable name is unknown, not a TypeError.
    names = tuple(DETECTORS)
    if not detectors:
        raise ConfigError(f"detectors must name at least one of {names}")
    for name in detectors:
        if name not in names:
            raise ConfigError(f"unknown detector {name!r}; "
                              f"choose from {names}")
    if len(set(detectors)) < len(detectors):
        raise ConfigError(f"detectors must not repeat a name, got {detectors!r}")
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    for config, n_active, _ in cells:
        k = build_alphabet(config.modulation).K
        # A (complex128) with one float64 N x M temporary beside it, and the
        # VB step's four float64 (K, M, J) arrays (alpha, resp twice, digamma).
        if 24 * config.N * config.M + 32 * k * config.M * config.J > memory:
            raise ConfigError(f"the N x M = {config.N} x {config.M} spreading "
                              f"matrix needs, with the (K, M, J) = "
                              f"({k}, {config.M}, {config.J}) VB "
                              f"state, more than the {memory} bytes of memory")
        if n_active is not None:
            _check_n_active(n_active, config.M)


def _openblas(name: str, restype, *args):
    """scipy_openblas_<name>64_(*args), args C ints, in the OpenBLAS that
    numpy's wheels bundle; None, and nothing called, where there is none."""
    try:
        fn = getattr(ctypes.CDLL(np._core._multiarray_umath.__file__),
                     f"scipy_openblas_{name}64_")
    except (AttributeError, OSError):
        return None
    fn.argtypes, fn.restype = [ctypes.c_int] * len(args), restype
    return fn(*args)


def _set_blas_threads(n: int) -> int | None:
    """Set the thread count of the OpenBLAS that numpy links and return
    the previous count; None, and nothing set, where there is none."""
    previous = _openblas("get_num_threads", ctypes.c_int)
    _openblas("set_num_threads", None, n)
    return previous


def _named_failure(task: tuple, fn, *args):
    """fn(*args), with any failure re-raised as a TrialFailure naming the
    (cell, trial) task's trial and M, N, p_a and snr_db, and chaining the
    original error."""
    (config, _, _), trial = task
    try:
        return fn(*args)
    except Exception as exc:
        raise TrialFailure(
            f"trial {trial} (M={config.M}, N={config.N}, p_a={config.p_a}, "
            f"snr_db={config.snr_db}) failed: {exc}") from exc


def _trial_results(cells: list[tuple], n_trials: int,
                   detectors: tuple[str, ...], n_workers: int,
                   trial_start: int = 0) -> list[list[MetricsRecord]]:
    """_check_request, then _run_one_trial of every (cell, trial) task,
    serially or in one process pool of at most one worker per task: one
    record list per cell and count of n_its, in that order, in trial order.

    Each worker runs one BLAS thread, so that n_workers workers use about
    n_workers cores; this process keeps its own count.  A failing task
    cancels the tasks not yet started.  Failures are wrapped in this
    process: an exception chained inside a pool worker arrives with its
    cause replaced by the worker's traceback text, so the worker raises
    the bare error.
    """
    _check_request(cells, n_trials, detectors, n_workers, trial_start)
    trials = range(trial_start, trial_start + n_trials)
    tasks = [(cell, t) for cell in cells for t in trials]
    # The default fork start method forks every worker at the first
    # submit, so workers beyond the task count would only cost memory.
    n_workers = min(n_workers, len(tasks))
    if n_workers == 1:
        results = [_named_failure(task, _run_one_trial, *task, detectors)
                   for task in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=n_workers, initializer=_set_blas_threads,
                initargs=(1,)) as pool:
            futures = [pool.submit(_run_one_trial, *task, detectors)
                       for task in tasks]
            try:
                results = [_named_failure(task, future.result)
                           for task, future in zip(tasks, futures)]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    n = len(trials)
    return [[rec for batches in results[c * n:(c + 1) * n] for rec in batches[i]]
            for c, (_, _, n_its) in enumerate(cells) for i in range(len(n_its))]


def run_trials(config: ScenarioConfig, n_trials: int,
               detectors: tuple[str, ...] = ("amp_vbic",), *,
               n_workers: int = 1, trial_start: int = 0,
               n_active: int | None = None) -> list[MetricsRecord]:
    """Run n_trials independent frames through the requested detectors.

    Returns one record per (trial, detector), ordered by trial.  A request
    the detector cannot run (see _check_request) raises ConfigError before
    any trial starts; a failing trial raises TrialFailure with the trial
    index and the cell in the message and the original error chained.
    """
    records, = _trial_results([(config, n_active, (config.n_it,))],
                              n_trials, detectors, n_workers, trial_start)
    return records


def _stderr(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(values.size))


def aggregate(records: list[MetricsRecord]) -> list[MetricsRecord]:
    """Collapse per-trial records to one row per (detector, config cell):
    mean metrics plus standard errors, trial index -1."""
    cells: dict[tuple, list[MetricsRecord]] = {}
    for rec in records:
        key = (rec.detector, rec.M, rec.N, rec.J, rec.p_a, rec.snr_db, rec.n_it)
        cells.setdefault(key, []).append(rec)
    out = []
    for group in cells.values():
        aer = np.array([r.aer for r in group])
        ser = np.array([r.ser for r in group])
        mse = np.array([r.ce_mse for r in group])
        out.append(dataclasses.replace(
            group[0], trial=-1,
            aer=float(aer.mean()), ser=float(ser.mean()),
            ce_mse=float(mse.mean()),
            runtime_ms=float(np.mean([r.runtime_ms for r in group])),
            aer_stderr=_stderr(aer), ser_stderr=_stderr(ser),
            ce_mse_stderr=_stderr(mse),
        ))
    return out


def sweep(base_config: ScenarioConfig, axis: str, values, n_trials: int,
          detectors: tuple[str, ...] = ("amp_vbic",), *,
          n_workers: int = 1) -> list[MetricsRecord]:
    """Aggregated records along one swept axis.

    Swept axes: snr_db, N, p_a, n_it.  Rows come in the order of values,
    one per detector for each value, and equal those of
    aggregate(run_trials(replace(base_config, axis=value), ...)): on every
    axis each user is active with probability p_a.  run_trials(n_active=k)
    fixes the active-user count instead.

    An n_it sweep draws each trial's frame once and runs its iteration
    loop once, up to the largest value, deciding at every value on the way
    (the loop does not depend on n_it, so the rows equal those of separate
    runs).  A row's runtime_ms is still that of a fresh run of that many
    iterations: the loop time up to the value plus the detector's one
    decision.

    Every swept value is checked before the first trial runs: a value
    that is not a number, an N or n_it that is not an integer, or a value
    given twice is a ConfigError.  Two values repeat when they build equal
    configs, so 5 and 5.0 on an integer axis, or 8 and 8.0 on snr_db, are
    one value.  All values share one process pool when n_workers > 1.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    if not isinstance(values, Iterable):
        raise ConfigError(f"values must be a sequence, got {values!r}")
    configs = [dataclasses.replace(base_config, **{axis: v}) for v in values]
    if not configs:
        raise ConfigError("sweep needs at least one axis value")
    if len(set(configs)) < len(configs):
        raise ConfigError(f"values must not repeat a value, got "
                          f"{[getattr(c, axis) for c in configs]!r}")
    if axis == "n_it":
        cells = [(base_config, None, tuple(c.n_it for c in configs))]
    else:
        cells = [(config, None, (config.n_it,)) for config in configs]
    return [row for records in _trial_results(cells, n_trials, detectors,
                                              n_workers)
            for row in aggregate(records)]


def write_csv(records: list[MetricsRecord], path) -> None:
    """Write records in the fixed CSV schema.  A file of aggregated rows
    (no record with trial >= 0) appends the standard-error columns; a
    non-finite metric raises ValueError before the file is touched."""
    fields = CSV_FIELDS + ([] if any(rec.trial >= 0 for rec in records)
                           else CSV_STDERR_FIELDS)
    rows = [[getattr(rec, f) for f in fields] for rec in records]
    for rec, row in zip(records, rows):
        if any(isinstance(x, float) and not np.isfinite(x) for x in row):
            raise ValueError(f"non-finite metric in record: {rec}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerows(rows)


def summarize(records: list[MetricsRecord]) -> str:
    """Human-readable table of aggregate(records), one line per detector
    and cell, for CLI output: the cell columns M, N, J, p_a, snr_db and
    n_it, then the mean aer, ser, ce_mse and runtime_ms."""
    lines = [f"{'detector':22s} {'M':>6s} {'N':>6s} {'J':>4s} {'p_a':>7s} "
             f"{'snr_db':>7s} {'n_it':>5s} {'aer':>10s} {'ser':>10s} "
             f"{'ce_mse':>10s} {'runtime_ms':>11s}"]
    for rec in aggregate(records):
        lines.append(f"{rec.detector:22s} {rec.M:6d} {rec.N:6d} {rec.J:4d} "
                     f"{rec.p_a:7g} {rec.snr_db:7g} {rec.n_it:5d} "
                     f"{rec.aer:10.5f} {rec.ser:10.5f} "
                     f"{rec.ce_mse:10.6f} {rec.runtime_ms:11.2f}")
    return "\n".join(lines)
