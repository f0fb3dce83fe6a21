"""Monte Carlo experiment runner: trials, sweeps, baselines, CSV output.

Each trial draws an independent frame from a substream derived from
(master seed, trial index), so trials are reproducible, order-independent
and embarrassingly parallel.  The same substream serves every detector
and every swept axis value, which pairs the comparisons (common random
numbers).  A request (run_trials, or a sweep along any axis) is checked
once and runs its (cell, trial) tasks through one executor.
"""

from __future__ import annotations

import concurrent.futures
import csv
import ctypes
import dataclasses
import numbers
import os
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .decide import DetectionResult
from .detector import _finalize, run_detector_internals
from .errors import ConfigError, TrialFailure
from .metrics import compute_aer, compute_ce_mse, compute_ser
from .model import ExtendedAlphabet, ScenarioConfig, build_alphabet, \
    generate_frame

DETECTOR_NAMES = ("amp_vbic", "amp_vbic_no_offset", "genie")
SWEEP_AXES = ("snr_db", "N", "p_a", "n_it")

CSV_FIELDS = ["detector", "trial", "M", "N", "J", "p_a", "snr_db", "n_it",
              "aer", "ser", "ce_mse", "runtime_ms"]
CSV_STDERR_FIELDS = ["aer_stderr", "ser_stderr", "ce_mse_stderr"]


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


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent substream for one trial index."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def genie_detect(r_final: np.ndarray, truth_support: np.ndarray,
                 truth_mu: np.ndarray, alphabet: ExtendedAlphabet) -> DetectionResult:
    """Nearest-symbol detection with known support and channels on the
    detector's own final pseudo observations.

    Activity is the true support and each active symbol is the
    constellation point d minimizing |r - mu d| with the true channel gain
    mu (ties resolve to the lowest symbol index).  r is the decoupling
    output of the detector's last iteration, so the genie inherits the
    residual interference left in it.  It is therefore not a bound on
    what known support allows: a least-squares fit on the true support
    scores SER 0.0000 at 40 dB where the genie scores 0.0124.
    """
    r_final = np.asarray(r_final)
    m, j = r_final.shape
    active = np.asarray(truth_support).astype(bool)
    d_act = alphabet.active_symbols
    dist = np.abs(r_final[:, :, None] - truth_mu[:, None, None] * d_act[None, None, :])
    d_hat = d_act[dist.argmin(axis=2)]
    d_hat = np.where(active[:, None], d_hat, 0.0 + 0.0j)
    sign = np.where(active, 1.0, -1.0)
    return DetectionResult(
        activity_hat=active.astype(np.int8),
        D_hat=d_hat,
        channel_hat=np.asarray(truth_mu).copy(),
        llr_dec=sign,
        llr_vbi=np.zeros(m),
        llr_offset=np.zeros(m),
    )


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
    # count before it continues.  amp_vbic and the offset ablation differ
    # only in the decision, and the genie reuses that iteration's pseudo
    # observations.  An amp_vbic-family runtime is the loop time up to the
    # count plus its own decision, as in a fresh run of that many
    # iterations.
    internals = None
    loop_ms = 0.0
    by_n_it = {}
    for n_it in sorted(set(n_its)):
        t0 = time.perf_counter()
        internals = run_detector_internals(frame.A, frame.Y, config, n_it,
                                           start=internals)
        loop_ms += (time.perf_counter() - t0) * 1e3

        records = []
        for name in detectors:
            t1 = time.perf_counter()
            if name == "genie":
                result = genie_detect(internals.pseudo.R, frame.activity,
                                      frame.mu, build_alphabet(config.modulation))
                runtime = 0.0
            else:
                result = _finalize(internals, config, include_offset=name == "amp_vbic")
                runtime = loop_ms
            runtime += (time.perf_counter() - t1) * 1e3
            records.append(MetricsRecord(
                detector=name, trial=trial, M=config.M, N=config.N, J=config.J,
                p_a=config.p_a, snr_db=config.snr_db, n_it=n_it,
                aer=compute_aer(frame.activity, result.activity_hat),
                ser=compute_ser(frame.D, result.D_hat),
                ce_mse=compute_ce_mse(frame.mu, result.channel_hat),
                runtime_ms=runtime))
        by_n_it[n_it] = records
    return [by_n_it[n_it] for n_it in n_its]


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_request(configs: list[ScenarioConfig], n_trials: int,
                   detectors: tuple[str, ...], n_workers: int,
                   trial_start: int = 0, n_active: int | None = None) -> None:
    """Reject, before any trial runs, a request the detector cannot run.

    Each ScenarioConfig is a scenario the detector can run; what is left
    to check is the request around it.  n_trials, n_workers and
    trial_start must be ints (not bools) and n_active None or one, each
    in range; detectors must be a sequence (not a str) of distinct known
    names, at least one; and no config's N x M spreading matrix and
    (K, M, J) VB state may together exceed the machine's physical memory.
    """
    for name, value, low in (("n_trials", n_trials, 1),
                             ("n_workers", n_workers, 1),
                             ("trial_start", trial_start, 0)):
        if not _is_int(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
    if n_active is not None and not _is_int(n_active):
        raise ConfigError(f"n_active must be an integer, got {n_active!r}")
    # Every trial iterates detectors afresh, so a one-shot iterable would
    # run nothing after its first pass; a set orders the records by string
    # hash, which varies between interpreters.
    if not isinstance(detectors, Sequence) or isinstance(detectors, str):
        raise ConfigError(f"detectors must be a sequence of names, "
                          f"got {detectors!r}")
    if not detectors:
        raise ConfigError(f"detectors must name at least one of "
                          f"{DETECTOR_NAMES}")
    for name in detectors:
        if name not in DETECTOR_NAMES:
            raise ConfigError(f"unknown detector {name!r}; "
                              f"choose from {DETECTOR_NAMES}")
    if len(set(detectors)) < len(detectors):
        raise ConfigError(f"detectors must not repeat a name, got {detectors!r}")
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    for config in configs:
        k = build_alphabet(config.modulation).K
        # The complex128 spreading matrix takes 16 N M bytes and each
        # float64 (K, M, J) array of the VB state 8 K M J.
        if 16 * config.N * config.M + 8 * k * config.M * config.J > memory:
            raise ConfigError(f"the N x M = {config.N} x {config.M} spreading "
                              f"matrix needs, with the (K, M, J) = "
                              f"({k}, {config.M}, {config.J}) VB "
                              f"state, more than the {memory} bytes of memory")
        if n_active is not None and not 0 <= n_active <= config.M:
            raise ConfigError(f"n_active must lie in [0, M={config.M}], "
                              f"got {n_active}")


def _set_blas_threads(n: int) -> int | None:
    """Set the thread count of the OpenBLAS that numpy links (the
    scipy-openblas build its wheels bundle) and return the previous count;
    None, and nothing set, where numpy links no such library."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        set_threads = lib.scipy_openblas_set_num_threads64_
        get_threads = lib.scipy_openblas_get_num_threads64_
    except (AttributeError, OSError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    previous = get_threads()
    set_threads(n)
    return previous


def _named_failure(trial: int, fn, *args):
    """fn(*args), with any failure re-raised as a TrialFailure naming the
    trial and chaining the original error."""
    try:
        return fn(*args)
    except Exception as exc:
        raise TrialFailure(f"trial {trial} failed: {exc}") from exc


def _trial_results(cells: list[tuple], trials: range,
                   detectors: tuple[str, ...],
                   n_workers: int) -> list[list[MetricsRecord]]:
    """_run_one_trial of every (cell, trial) task, serially or in one
    process pool of at most one worker per task: one record list per cell
    and iteration count, in the order of cells and n_its, in trial order.

    Each worker runs one BLAS thread, so that n_workers workers use about
    n_workers cores; this process keeps its own count.  A failing task
    cancels the tasks not yet started.  Failures are wrapped in this
    process: an exception chained inside a pool worker arrives with its
    cause replaced by the worker's traceback text, so the worker raises
    the bare error.
    """
    tasks = [(cell, t) for cell in cells for t in trials]
    # The default fork start method forks every worker at the first
    # submit, so workers beyond the task count would only cost memory.
    n_workers = min(n_workers, len(tasks))
    if n_workers == 1:
        results = [_named_failure(t, _run_one_trial, cell, t, detectors)
                   for cell, t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=n_workers, initializer=_set_blas_threads,
                initargs=(1,)) as pool:
            futures = [pool.submit(_run_one_trial, cell, t, detectors)
                       for cell, t in tasks]
            try:
                results = [_named_failure(t, future.result)
                           for (_, t), future in zip(tasks, futures)]
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
    index in the message and the original error chained.
    """
    _check_request([config], n_trials, detectors, n_workers, trial_start,
                   n_active)
    records, = _trial_results([(config, n_active, (config.n_it,))],
                              range(trial_start, trial_start + n_trials),
                              detectors, n_workers)
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
    for key, group in cells.items():
        aer = np.array([r.aer for r in group])
        ser = np.array([r.ser for r in group])
        mse = np.array([r.ce_mse for r in group])
        detector, m, n, j, p_a, snr_db, n_it = key
        out.append(MetricsRecord(
            detector=detector, trial=-1, M=m, N=n, J=j, p_a=p_a,
            snr_db=snr_db, n_it=n_it,
            aer=float(aer.mean()), ser=float(ser.mean()),
            ce_mse=float(mse.mean()),
            runtime_ms=float(np.mean([r.runtime_ms for r in group])),
            aer_stderr=_stderr(aer), ser_stderr=_stderr(ser),
            ce_mse_stderr=_stderr(mse),
        ))
    return out


def sweep(base_config: ScenarioConfig, axis: str, values, n_trials: int,
          detectors: tuple[str, ...] = ("amp_vbic",), *,
          n_workers: int = 1,
          bernoulli_activity: bool = False) -> list[MetricsRecord]:
    """Aggregated records along one swept axis.

    Swept axes: snr_db, N, p_a, n_it.  Rows come in the order of values,
    one per detector for each value.  A p_a sweep pins the active-user
    count to round(p_a * M) per frame so the axis means "number of active
    users"; bernoulli_activity=True restores per-user coin flips.

    An n_it sweep draws each trial's frame once and runs its iteration
    loop once, up to the largest value, deciding at every value on the way
    (the loop does not depend on n_it, so the rows equal those of separate
    runs).  A row's runtime_ms is still that of a fresh run of that many
    iterations: the loop time up to the value plus the detector's one
    decision.

    Every swept value is checked before the first trial runs (a value
    that is not a number, or an N or n_it that is not an integer, is a
    ConfigError), and all values share one process pool when n_workers > 1.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    if not isinstance(values, Iterable):
        raise ConfigError(f"values must be a sequence, got {values!r}")
    configs = [dataclasses.replace(base_config, **{axis: v}) for v in values]
    if not configs:
        raise ConfigError("sweep needs at least one axis value")
    _check_request(configs, n_trials, detectors, n_workers)
    if axis == "n_it":
        cells = [(base_config, None, tuple(c.n_it for c in configs))]
    else:
        pinned = axis == "p_a" and not bernoulli_activity
        cells = [(config, int(round(config.p_a * config.M)) if pinned else None,
                  (config.n_it,)) for config in configs]
    return [row for records in _trial_results(cells, range(n_trials),
                                              detectors, n_workers)
            for row in aggregate(records)]


def _has_trials(records: list[MetricsRecord]) -> bool:
    """Whether records are per trial; aggregated rows all have trial -1."""
    return any(rec.trial >= 0 for rec in records)


def write_csv(records: list[MetricsRecord], path) -> None:
    """Write records in the fixed CSV schema.  A file of aggregated rows
    (no record with trial >= 0) appends the standard-error columns."""
    fields = CSV_FIELDS + ([] if _has_trials(records) else CSV_STDERR_FIELDS)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for rec in records:
            row = [getattr(rec, f) for f in fields]
            for x in row:
                if isinstance(x, float) and not np.isfinite(x):
                    raise ValueError(f"non-finite metric in record: {rec}")
            writer.writerow(row)


def summarize(records: list[MetricsRecord]) -> str:
    """Human-readable aggregate table for CLI output."""
    rows = aggregate(records) if _has_trials(records) else records
    lines = [f"{'detector':22s} {'aer':>10s} {'ser':>10s} "
             f"{'ce_mse':>10s} {'runtime_ms':>11s}"]
    for rec in rows:
        lines.append(f"{rec.detector:22s} {rec.aer:10.5f} {rec.ser:10.5f} "
                     f"{rec.ce_mse:10.6f} {rec.runtime_ms:11.2f}")
    return "\n".join(lines)
