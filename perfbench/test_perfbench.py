"""Tests of the benchmark itself: span arithmetic, attribute restoration,
failure counting, host-speed normalisation, the frozen copy, and a
tiny-size smoke run of every workload."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import workloads
from ampvbic import harness
from ampvbic.errors import TrialFailure
import baseline
from spans import Span, Tracer, layer_stats, self_times

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_spec_names_defined_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_self_times_subtract_covered_child_time():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("b.inner", 6.0, 7.0, 2, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])
    # Self times of one tree add up to the root's duration.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_times_count_overlapping_and_overhanging_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),     # overlaps a on [3, 4]
        Span("c", 8.0, 12.0, 0, 0),    # runs past the root's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_layer_stats_normalise_by_units():
    spans = [Span("root", 0.0, 0.010, -1, 0), Span("leaf", 0.0, 0.004, 0, 0),
             Span("root", 1.0, 1.010, -1, 1), Span("leaf", 1.0, 1.002, 2, 1)]
    stats = layer_stats(spans, units=2)
    assert stats["leaf"]["calls_per_trial"] == 1.0
    assert stats["leaf"]["ms_p50"] == pytest.approx(3.0)
    assert stats["root"]["self_ms_per_trial"] == pytest.approx(7.0)


def test_tracer_records_spans_and_restores_attributes_after_errors():
    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod = types.SimpleNamespace(inner=inner, outer=outer)
    with pytest.raises(ValueError):
        with Tracer() as tracer:
            tracer.wrap(mod, "inner", "m.inner")
            tracer.wrap(mod, "outer", "m.outer")
            tracer.trial = 7
            assert mod.outer(1) == 4
            raise ValueError("traced code failed")
    assert mod.inner is inner and mod.outer is outer
    names = [(s.name, s.parent, s.trial) for s in tracer.spans]
    assert names == [("m.outer", -1, 7), ("m.inner", 0, 7)]


def test_program_attributes_are_restored():
    originals = [getattr(m, a) for m, a, _ in workloads.TRACED]
    with Tracer() as tracer:
        workloads.trace_program(tracer)
        assert not workloads.untouched(originals)
    assert workloads.untouched(originals)


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], M=20, N=12,
                               quality_requests=2, sweep_trials=2)


def test_typed_failures_count_and_other_errors_propagate(monkeypatch):
    w = tiny("ref_cell")
    real = harness.run_trials

    def flaky(config, n_trials, detectors, **kw):
        if kw["trial_start"] == 1:
            raise TrialFailure("trial 1 failed: injected")
        return real(config, n_trials, detectors, **kw)

    monkeypatch.setattr(harness, "run_trials", flaky)
    samples = workloads.closed_loop(w, 0, 0, 3)
    assert workloads.units(w, samples, completed=False) == 3
    assert workloads.units(w, samples) == 2

    monkeypatch.setattr(harness, "run_trials",
                        lambda *a, **k: (_ for _ in ()).throw(KeyError("bug")))
    with pytest.raises(KeyError):
        workloads.closed_loop(w, 0, 0, 1)


def test_normalised_times_follow_the_reference_speed(monkeypatch):
    monkeypatch.setattr(workloads, "WINDOWS", 2)
    w = tiny("ref_cell")
    nominal = w.nominal_request_s
    # The frozen copy ran at half speed over the first two requests, at
    # nominal speed over the last two.
    samples = [workloads.Sample(k, 0.2, [], 0.2, ref)
               for k, ref in enumerate([2 * nominal] * 2 + [nominal] * 2)]
    assert workloads.normalised_trial_ms(w, samples) == pytest.approx(
        [100.0, 100.0, 200.0, 200.0])
    assert [workloads.host_speed(w, p) for p in workloads.windows(samples)] \
        == pytest.approx([0.5, 1.0])


def test_frozen_copy_runs_instead_of_the_program(monkeypatch):
    w = tiny("ref_cell")
    calls = []
    monkeypatch.setattr(harness, "run_trials",
                        lambda *a, **k: calls.append(a) or [])
    assert baseline.harness is not harness
    assert workloads.frozen_seconds(w, 3, 0, baseline) > 0
    assert calls == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_clean(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    w = tiny(name)
    plain = workloads.run_untraced(w, 3, 0)
    assert plain.problems == []
    assert sorted(plain.metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(math.isfinite(v) and v > 0 for v, _ in plain.metrics.values())

    traced = workloads.run_traced(w, 3, 0, spans_path=tmp_path / "spans.jsonl")
    assert traced.problems == []
    assert sorted(traced.metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert traced.metrics["trace.residual_frac"][0] == pytest.approx(0, abs=0.05)
    # The traced run scores the same requests as the untraced one.
    for key in ("aer", "ser", "ce_mse", "genie_ser"):
        assert traced.metrics[f"quality.{key}"][0] == plain.extra[key][0]
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "ref_cell",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
