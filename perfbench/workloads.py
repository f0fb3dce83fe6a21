"""Workloads of the ampvbic benchmark, their closed loops and output checks.

Every workload is a closed loop with one client: the next request is sent
when the previous one has returned.  A request goes through the package's
public entry points only: one `harness.run_trials(cfg, 1, trial_start=t)`
call per trial, or one `harness.sweep` call for the sweep workload.  All
inputs derive from the workload seed.

The host's speed drifts, so every timed request is paired with the same
request on a frozen copy of the program (see baseline.py), and the gated
timings are scaled by the copy's speed; raw timings are printed too.

The timed requests run in one process.  The process pool is exercised by
the sweep workload's output check and measured in its traced run: timed
end to end, a 2-worker pool on a 2-core VM is too unsteady to gate (its
throughput spread between runs is about half its median), because each
worker starts a full BLAS thread pool.  BLAS threading is left as the
environment has it: pinning it here would hide that oversubscription.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ampvbic import amp, detector, harness, vbic
from ampvbic.errors import AmpVbicError
from ampvbic.model import ScenarioConfig

import baseline
from spans import Tracer, layer_stats, self_times

# Trial indices used for warm-up and set-up probes; far from the timed ones.
WARMUP_TRIAL = 1_000_000

# The timed requests are cut into this many windows of consecutive
# requests.  Each window's times are scaled by the host speed the frozen
# copy measured over the same window, and throughput is the median of the
# windows' rates, so a burst of host load moves one window, not the figure.
WINDOWS = 16

# Outer iterations of every workload's configuration.
N_IT = 20

# Fresh interpreters of the program, and as many of the frozen copy, timed
# per run for setup_s and peak_rss_mb.
SETUP_REPEATS = 5

# Records of one trial must agree on these fields between two runs of it.
SCORED_FIELDS = ("detector", "trial", "M", "N", "J", "p_a", "snr_db", "n_it",
                 "aer", "ser", "ce_mse")


@dataclass(frozen=True)
class Workload:
    name: str
    M: int
    N: int
    detectors: tuple[str, ...]
    # Requests whose outputs are scored: fixed, so the quality figures are
    # a function of the seed alone.  The loop runs at least this many.
    quality_requests: int
    # Wall times of one request and of set-up on the frozen copy of the
    # program at the host speed the normalised figures are scaled to: the
    # copy's medians on a 2-vCPU x86-64 VM (numpy 2.4, OpenBLAS 0.3.31).
    nominal_request_s: float
    nominal_setup_s: float
    n_active: int | None = None          # None: Bernoulli(p_a) activity
    sweep_values: tuple[int, ...] = ()   # non-empty: an n_it sweep per request
    sweep_trials: int = 0

    @property
    def is_sweep(self) -> bool:
        return bool(self.sweep_values)

    @property
    def units_per_request(self) -> int:
        """(trial, cell) pairs one request completes."""
        return self.sweep_trials * len(self.sweep_values) if self.is_sweep else 1

    def config_fields(self, seed: int) -> dict:
        return dict(M=self.M, N=self.N, J=10, p_a=0.1, snr_db=5.0,
                    modulation="qam16", n_it=N_IT, seed=seed)

    def config(self, seed: int, config_class=ScenarioConfig):
        return config_class(**self.config_fields(seed))


# Why each workload is here is recorded in BENCHMARK.json.  empty_frames is
# not in it: its timing repeats ref_cell's, and leaving it out keeps a full
# pass of the benchmark short.  It is kept to run by hand, because its
# printed AER (about 0.085, every detection a false alarm) tracks the
# low-load defect.
WORKLOADS = {w.name: w for w in (
    Workload("ref_cell", M=200, N=100, detectors=("amp_vbic", "genie"),
             quality_requests=100, nominal_request_s=0.070,
             nominal_setup_s=0.70),
    Workload("large_m", M=2000, N=1000, detectors=("amp_vbic", "genie"),
             quality_requests=8, nominal_request_s=1.40, nominal_setup_s=2.0),
    Workload("nit_sweep", M=200, N=100,
             detectors=("amp_vbic", "amp_vbic_no_offset", "genie"),
             quality_requests=6, nominal_request_s=1.00, nominal_setup_s=0.70,
             sweep_values=(5, 20, 50), sweep_trials=4),
    Workload("empty_frames", M=200, N=100, detectors=("amp_vbic", "genie"),
             quality_requests=100, nominal_request_s=0.070,
             nominal_setup_s=0.70, n_active=0),
)}

# Workers of the pool that the sweep workload checks and probes.
POOL_WORKERS = 2


def sweep_seed(seed: int, request: int) -> int:
    """Seed of the request-th sweep: each sweep draws fresh frames."""
    return int(np.random.SeedSequence([seed, request]).generate_state(1)[0])


def request(w: Workload, seed: int, k: int, n_workers: int = 1,
            program=harness):
    """Run request k through `program`, the package's harness module or
    the frozen copy's; returns its records."""
    cfg = w.config(seed, program.ScenarioConfig)
    if w.is_sweep:
        return program.sweep(
            dataclasses.replace(cfg, seed=sweep_seed(seed, k)), "n_it",
            w.sweep_values, w.sweep_trials, w.detectors, n_workers=n_workers)
    return program.run_trials(cfg, 1, w.detectors, trial_start=k,
                              n_active=w.n_active)


def warm_up(w: Workload, seed: int, program=harness) -> None:
    """Alphabet and first-trial warm-up, on a trial the timed loop never
    runs."""
    program.run_trials(w.config(seed, program.ScenarioConfig), 1, w.detectors,
                       trial_start=WARMUP_TRIAL, n_active=w.n_active)


@dataclass
class Sample:
    k: int
    wall_s: float
    records: list | None     # None: the request failed
    cpu_s: float             # process CPU time the request used
    # Wall time of the same request on the frozen copy of the program,
    # run next to it: the host's speed at that moment.
    ref_s: float = math.nan


def send(w: Workload, seed: int, k: int, n_workers: int = 1,
         tracer: Tracer | None = None) -> Sample:
    """Run request k and time it.

    A TrialFailure or other typed package error fails the request; any
    other exception is a benchmark error and propagates.
    """
    t0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        if tracer is None:
            records = request(w, seed, k, n_workers)
        else:
            tracer.trial = k
            with tracer.span("bench.request"):
                records = request(w, seed, k, n_workers)
    except AmpVbicError as exc:
        print(f"request {k} failed: {exc}", file=sys.stderr)
        records = None
    return Sample(k, time.perf_counter() - t0, records,
                  time.process_time() - cpu0)


def frozen_seconds(w: Workload, seed: int, k: int, frozen) -> float:
    """Wall time of request k on the frozen copy, the `baseline` module."""
    t0 = time.perf_counter()
    try:
        request(w, seed, k, program=frozen.harness)
    except frozen.AmpVbicError:
        pass      # the copy did the work; only its time is wanted
    return time.perf_counter() - t0


def closed_loop(w: Workload, seed: int, seconds: float, min_requests: int,
                frozen=None) -> list[Sample]:
    """Send requests 0, 1, ... until `seconds` have passed and at least
    `min_requests` were sent.  With the frozen copy (the `baseline`
    module), send each request to it too, next to the program: after it
    on even requests and before it on odd ones, so neither side always
    finds the memory and caches as the other left them."""
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < min_requests or time.perf_counter() < deadline:
        k = len(samples)
        ref_s = math.nan
        if frozen is not None and k % 2:
            ref_s = frozen_seconds(w, seed, k, frozen)
        sample = send(w, seed, k)
        if frozen is not None and not k % 2:
            ref_s = frozen_seconds(w, seed, k, frozen)
        sample.ref_s = ref_s
        samples.append(sample)
    return samples


def units(w: Workload, samples: list[Sample], completed: bool = True) -> int:
    return w.units_per_request * sum(
        1 for s in samples if s.records is not None or not completed)


# ---------------------------------------------------------------- checks

def check_records(w: Workload, samples: list[Sample]) -> list[str]:
    """Every record finite, in range and of the right trial, the count
    right, and the genie SER no higher than amp_vbic's in every cell
    (criterion 8)."""
    problems = []
    if not any(s.records is not None for s in samples):
        problems.append("no request completed")
    n_cells = len(w.sweep_values) if w.is_sweep else 1
    for s in samples:
        if s.records is None:
            continue
        if len(s.records) != len(w.detectors) * n_cells:
            problems.append(f"request {s.k}: {len(s.records)} records, "
                            f"expected {len(w.detectors) * n_cells}")
        for rec in s.records:
            values = (rec.aer, rec.ser, rec.ce_mse, rec.runtime_ms)
            # Sweeps return cell aggregates, marked trial -1.
            if rec.trial != (-1 if w.is_sweep else s.k):
                problems.append(f"request {s.k}: record of trial {rec.trial}")
            if not all(math.isfinite(v) for v in values):
                problems.append(f"request {s.k}: non-finite record {rec}")
            elif not (0.0 <= rec.aer <= 1.0 and 0.0 <= rec.ser <= 1.0
                      and rec.ce_mse >= 0.0):
                problems.append(f"request {s.k}: out-of-range record {rec}")
    cells = cell_means(w, samples[:w.quality_requests])
    for cell, by_det in cells.items():
        if by_det["genie"]["ser"] > by_det["amp_vbic"]["ser"]:
            problems.append(f"criterion 8 fails in cell {cell}: genie SER "
                            f"{by_det['genie']['ser']} > amp_vbic SER "
                            f"{by_det['amp_vbic']['ser']}")
    return problems


def cell_means(w: Workload, samples: list[Sample]) -> dict:
    """{cell: {detector: {aer, ser, ce_mse}}} over completed samples; a
    serial workload has one cell, a sweep one per axis value."""
    acc: dict = {}
    for s in samples:
        for rec in s.records or ():
            acc.setdefault(rec.n_it, {}).setdefault(rec.detector, []).append(rec)
    return {cell: {det: {f: statistics.fmean(getattr(r, f) for r in recs)
                         for f in ("aer", "ser", "ce_mse")}
                   for det, recs in by_det.items()}
            for cell, by_det in acc.items()}


def quality(w: Workload, samples: list[Sample]) -> dict[str, float]:
    """amp_vbic AER/SER/CE-MSE and genie SER over the scored requests,
    averaged over cells."""
    cells = list(cell_means(w, samples[:w.quality_requests]).values())
    if not cells:
        return {k: math.nan for k in ("aer", "ser", "ce_mse", "genie_ser")}
    out = {f: statistics.fmean(c["amp_vbic"][f] for c in cells)
           for f in ("aer", "ser", "ce_mse")}
    out["genie_ser"] = statistics.fmean(c["genie"]["ser"] for c in cells)
    return out


def scored(records) -> list[tuple]:
    return [tuple(getattr(r, f) for f in SCORED_FIELDS) for r in records]


def check_pool_matches_serial(w: Workload, seed: int,
                              trials: int = 4) -> list[str]:
    """Per-trial records from the process pool equal the serial ones,
    which holds only if each trial's randomness ignores run order."""
    cfg = dataclasses.replace(w.config(seed), n_it=w.sweep_values[0])
    pooled = harness.run_trials(cfg, trials, w.detectors,
                                n_workers=POOL_WORKERS)
    serial = [rec for t in range(trials)
              for rec in harness.run_trials(cfg, 1, w.detectors, trial_start=t)]
    if scored(pooled) != scored(serial):
        return [f"pool records differ from serial ones on trials 0..{trials - 1}"]
    return []


# ---------------------------------------------------------------- untraced

def windows(samples: list[Sample]) -> list[list[Sample]]:
    """The timed requests cut into WINDOWS runs of consecutive requests."""
    n = min(WINDOWS, len(samples))
    return [samples[i * len(samples) // n:(i + 1) * len(samples) // n]
            for i in range(n)]


def rate(w: Workload, samples: list[Sample]) -> float:
    """Completed units per second of request wall time."""
    return units(w, samples) / sum(s.wall_s for s in samples)


def host_speed(w: Workload, samples: list[Sample]) -> float:
    """The host's speed over a run of requests, relative to nominal: the
    frozen copy's nominal request time over its median one beside them."""
    return w.nominal_request_s / statistics.median(s.ref_s for s in samples)


def trial_ms(w: Workload, samples: list[Sample]) -> list[float]:
    """Wall time per (trial, cell) unit of every completed request; a
    sweep's is its wall time over the units it completes."""
    return [s.wall_s * 1e3 / w.units_per_request for s in samples
            if s.records is not None]


def normalised_trial_ms(w: Workload, samples: list[Sample]) -> list[float]:
    """Per-trial times scaled to nominal host speed, each by the speed
    measured over its own window of requests."""
    return [t * host_speed(w, part) for part in windows(samples)
            for t in trial_ms(w, part)]


def quantile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else math.nan


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_process(w: Workload, seed: int, path: Path,
                  package: str) -> tuple[float, float]:
    """One fresh interpreter that imports `package` from `path`, builds
    the alphabet and runs the warm-up trial: its wall time from launch to
    exit, and its peak RSS in MB."""
    code = (f"import sys; sys.path.insert(0, {str(path)!r})\n"
            f"import resource\n"
            f"from {package} import harness\n"
            f"harness.run_trials(harness.ScenarioConfig("
            f"**{w.config_fields(seed)!r}), 1, {list(w.detectors)!r}, "
            f"trial_start={WARMUP_TRIAL}, n_active={w.n_active!r})\n"
            f"print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], check=True,
                          cwd=path.parent, stdout=subprocess.PIPE, text=True)
    return time.perf_counter() - t0, int(proc.stdout.split()[-1]) / 1024.0


def set_up(w: Workload, seed: int) -> tuple[list[float], list[float],
                                             list[float]]:
    """Set-up wall times and peak RSS of fresh program processes, and
    set-up wall times of fresh frozen-copy processes run between them."""
    here = Path(__file__).resolve().parent
    walls, rss, ref_walls = [], [], []
    for _ in range(SETUP_REPEATS):
        wall, peak = fresh_process(w, seed, here.parent / "src", "ampvbic")
        walls.append(wall)
        rss.append(peak)
        ref_walls.append(fresh_process(w, seed, here / "baseline",
                                       "ampvbic_baseline")[0])
    return walls, rss, ref_walls


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]   # the gated figures
    extra: dict[str, tuple[float | None, str]]  # printed, not gated
    notes: dict[str, object]
    attempted: int
    failed: int
    problems: list[str]


def run_untraced(w: Workload, seed: int, seconds: float) -> Result:
    """End-to-end metrics, measured with tracing off.

    Timings are normalised by the frozen copy run beside the program.
    Peak RSS and set-up time come from fresh interpreters that run the
    program alone, so the copy's memory is not counted.
    """
    warm_up(w, seed)
    warm_up(w, seed, baseline.harness)
    samples = closed_loop(w, seed, seconds, w.quality_requests, baseline)
    problems = check_records(w, samples)
    if w.is_sweep:
        problems += check_pool_matches_serial(w, seed)
    setups, rss, ref_setups = set_up(w, seed)

    all_ms = trial_ms(w, samples)
    q = quality(w, samples)
    metrics = {
        "trials_per_s_norm": (quantile([rate(w, p) / host_speed(w, p)
                                        for p in windows(samples)], 50),
                              "1/s"),
        "trial_ms_p50_norm": (quantile(normalised_trial_ms(w, samples), 50),
                              "ms"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        # Each program set-up is paired with the frozen copy's next to it.
        "setup_s": (statistics.median(p / b for p, b in zip(setups, ref_setups))
                    * w.nominal_setup_s, "s"),
    }
    attempted = units(w, samples, completed=False)
    failed = attempted - units(w, samples)
    extra = {
        "trials_per_s": (quantile([rate(w, p) for p in windows(samples)], 50),
                         "1/s"),
        "trials_per_s_mean": (rate(w, samples), "1/s"),
        "trial_ms_p50": (quantile(all_ms, 50), "ms"),
        # A p90 needs at least ten samples beyond it.
        "trial_ms_p90": (quantile(all_ms, 90) if len(all_ms) >= 100
                         else None, "ms"),
        "trial_ms_p90_norm": (quantile(normalised_trial_ms(w, samples), 90)
                              if len(all_ms) >= 100 else None, "ms"),
        "aer": (q["aer"], "frac"),
        "ser": (q["ser"], "frac"),
        "ce_mse": (q["ce_mse"], "mse"),
        "genie_ser": (q["genie_ser"], "frac"),
        "fail_frac": (failed / attempted, "frac"),
        # This process also holds the frozen copy and the pool check.
        "process_peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s_raw": (statistics.median(setups), "s"),
        "baseline_setup_s": (statistics.median(ref_setups), "s"),
        "baseline_request_ms": (statistics.median(s.ref_s for s in samples)
                                * 1e3, "ms"),
        "host_speed": (host_speed(w, samples), "ratio"),
    }
    notes = {"requests": len(samples), "trial_samples": len(all_ms),
             "scored_requests": w.quality_requests,
             "setup_samples_s": [round(t, 4) for t in setups],
             "baseline_setup_samples_s": [round(t, 4) for t in ref_setups]}
    return Result(metrics, extra, notes, attempted, failed, problems)


# ---------------------------------------------------------------- traced

# (module, attribute, span name): the attributes the program calls through.
# detector._finalize is wrapped as well as harness._finalize because
# run_detector_internals calls its own module's name.
TRACED = (
    (harness, "run_trials", "harness.run_trials"),
    (harness, "generate_frame", "model.generate_frame"),
    (harness, "run_detector_internals", "detector.run_detector_internals"),
    (harness, "_finalize", "detector._finalize"),
    (detector, "_finalize", "detector._finalize"),
    (harness, "genie_detect", "harness.genie_detect"),
    (amp, "amp_decouple", "amp.amp_decouple"),
    (vbic, "warm_start_channel", "vbic.warm_start_channel"),
    (vbic, "vbic_step", "vbic.vbic_step"),
    (vbic, "update_dirichlet", "vbic.update_dirichlet"),
    (vbic, "update_channel", "vbic.update_channel"),
    (vbic, "update_gamma", "vbic.update_gamma"),
    (vbic, "update_responsibilities", "vbic.update_responsibilities"),
    (vbic, "posterior_moments", "vbic.posterior_moments"),
    (vbic, "posterior_variance_full", "vbic.posterior_variance_full"),
    (detector, "detect", "decide.detect"),
    (detector, "correct_phase", "decide.correct_phase"),
)

VB_STEPS = ("update_dirichlet", "update_channel", "update_gamma",
            "update_responsibilities", "posterior_moments",
            "posterior_variance_full", "warm_start_channel")

MODULES = ("model", "amp", "vbic", "detector", "decide", "harness")

# (span name, statistic) pairs reported per layer.
LAYER_METRICS = (
    [("model.generate_frame", "ms_p50")]
    + [("amp.amp_decouple", s)
       for s in ("ms_p50", "calls_per_trial", "self_ms_per_trial")]
    + [(f"vbic.{f}", s) for f in VB_STEPS for s in ("ms_p50", "self_ms_per_trial")]
    + [("vbic.vbic_step", "self_ms_per_trial"),
       ("detector.run_detector_internals", "self_ms_per_trial"),
       ("detector._finalize", "self_ms_per_trial"),
       ("decide.detect", "ms_p50"),
       ("decide.correct_phase", "calls_per_trial"),
       ("harness.genie_detect", "ms_p50"),
       ("harness.run_trials", "self_ms_per_trial")]
)

STAT_UNITS = {"ms_p50": "ms", "calls_per_trial": "count",
              "self_ms_per_trial": "ms"}


def trace_program(tracer: Tracer) -> None:
    for module, attr, name in TRACED:
        tracer.wrap(module, attr, name)


def untouched(originals) -> bool:
    """True when every traced attribute is the original object again."""
    return all(getattr(m, a) is o for (m, a, _), o in zip(TRACED, originals))


def run_traced(w: Workload, seed: int, seconds: float,
               spans_path: Path | None = None) -> Result:
    """Per-layer metrics from a traced run of the workload.

    Every request runs untraced, then at once traced: the traced outputs
    must equal the untraced ones, and the wall-time ratio of the pairs is
    the tracing overhead.  The sweep workload adds one untraced request
    through the process pool for the pool figures, which are 0 on other
    workloads.
    """
    warm_up(w, seed)
    originals = [getattr(m, a) for m, a, _ in TRACED]
    tracer = Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(plain) < w.quality_requests or time.perf_counter() < deadline:
        plain.append(send(w, seed, len(plain)))
        with tracer:
            trace_program(tracer)
            traced.append(send(w, seed, plain[-1].k, tracer=tracer))
    plain_wall = sum(s.wall_s for s in plain)
    cpu_per_wall = sum(s.cpu_s for s in plain) / plain_wall
    problems = check_records(w, plain) + check_records(w, traced)
    if not untouched(originals):
        problems.append("a traced attribute was not restored")
    for a, b in zip(plain, traced):
        if (a.records is None) != (b.records is None) or \
                (a.records is not None and scored(a.records) != scored(b.records)):
            problems.append(f"request {a.k}: traced outputs differ from untraced")

    n_units = units(w, traced)
    stats = layer_stats(tracer.spans, n_units)
    selfs = self_times(tracer.spans)
    traced_wall = sum(s.wall_s for s in traced)
    metrics: dict[str, tuple[float, str]] = {}
    for name, stat in LAYER_METRICS:
        value = stats.get(name, {}).get(stat, 0.0)
        metrics[f"{name}.{stat}"] = (value, STAT_UNITS[stat])
    total_self = sum(selfs)
    for mod in MODULES:
        share = sum(t for sp, t in zip(tracer.spans, selfs)
                    if sp.name.split(".")[0] == mod)
        metrics[f"{mod}.self_frac"] = (share / total_self, "frac")

    pool_cpu = pool_ratio = pool_speedup = 0.0
    attempted = units(w, plain, False) + units(w, traced, False)
    failed = attempted - units(w, plain) - units(w, traced)
    if w.is_sweep:
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        pooled = [send(w, seed, plain[0].k, n_workers=POOL_WORKERS)]
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        child_cpu = (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime)
        pool_cpu = child_cpu / max(units(w, pooled), 1)
        pool_ratio = child_cpu / pooled[0].wall_s
        # The same sweep through the pool against serially: below 1 the
        # workers slow each other down.
        pool_speedup = plain[0].wall_s / pooled[0].wall_s
        attempted += units(w, pooled, False)
        failed += units(w, pooled, False) - units(w, pooled)
        problems += check_records(w, pooled)
        if pooled[0].records is not None and plain[0].records is not None \
                and scored(pooled[0].records) != scored(plain[0].records):
            problems.append("pooled sweep differs from the serial one")

    q = quality(w, plain)
    metrics.update({
        "harness.pool.child_cpu_s_per_trial": (pool_cpu, "s"),
        "harness.pool.cpu_per_wall": (pool_ratio, "ratio"),
        "harness.pool.speedup": (pool_speedup, "ratio"),
        "process.cpu_per_wall": (cpu_per_wall, "ratio"),
        "trace.overhead_frac": (traced_wall / plain_wall - 1.0, "frac"),
        "trace.residual_frac": (1.0 - total_self / traced_wall, "frac"),
        "quality.aer": (q["aer"], "frac"),
        "quality.ser": (q["ser"], "frac"),
        "quality.ce_mse": (q["ce_mse"], "mse"),
        "quality.genie_ser": (q["genie_ser"], "frac"),
    })
    if spans_path is not None:
        tracer.write(spans_path)
    notes = {"requests": len(traced), "units": n_units,
             "spans": len(tracer.spans)}
    return Result(metrics, {}, notes, attempted, failed, problems)
