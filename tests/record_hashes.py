"""Print the two record hashes that pin the harness's decisions.

Each hash is the first 16 hex digits of the SHA-256 of repr() of a list
of records with runtime_ms zeroed, so it moves exactly when a decision,
a score or the record layout moves:

  run_trials  the reference cell (M=200, N=100, J=10, p_a=0.1, 5 dB,
              QAM16, n_it 20), seed 2026, trials 0..19, all three
              detectors;
  nit_sweep   the same cell at seed 7, an n_it sweep over 5, 20 and 50,
              4 trials, all three detectors.

Both are computed three ways: serially with this process's BLAS thread
count, serially with one BLAS thread, and with 2 worker processes, which
the harness pins to one BLAS thread each.  Every line names the OpenBLAS
core (kernel) that numpy runs on and the BLAS thread count.  Float
results move in their last bits with the core, and on some cores
(Haswell, Sandybridge, Nehalem) with the thread count too, so a serial
run equals the pool only with one BLAS thread.  The script exits 1 when
the serial one-thread hashes differ from the pool's, which the harness
promises are equal, and when they differ from this core's RECORDED
entry or the core has none (it then prints what it measured); the first
line is printed and not compared.  A declared model change re-records
RECORDED.  Run it from the repository root (a few seconds per line),
with OPENBLAS_CORETYPE=<core> to choose a core:

  PYTHONPATH=src python tests/record_hashes.py

pytest does not collect this file; it is not named test_*.py.  The
tests import its reference request and its OpenBLAS helpers.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import sys

from ampvbic.harness import _openblas, _set_blas_threads, run_trials, sweep
from ampvbic.model import ScenarioConfig

REFERENCE_CELL = ScenarioConfig(M=200, N=100, J=10, p_a=0.1, snr_db=5.0,
                                modulation="qam16", n_it=20, seed=2026)
DETECTORS = ("amp_vbic", "amp_vbic_no_offset", "genie")

# The one-thread (run_trials, nit_sweep) hashes per OpenBLAS core, with
# numpy 2.4.6 and scipy 1.17.1.
RECORDED = {
    "SkylakeX": ("5607319c87d45d83", "ae76d6d668bba877"),
    "Haswell": ("a50f6b85fb857fe5", "21faa82eacc8ea08"),
    "Sandybridge": ("bc571fb1163f3ed1", "69debb841f6736b0"),
    "Nehalem": ("db7f1cc220f24d61", "e8f249b04fe94054"),
    "Katmai": ("32eebda638acd928", "84695a4c97ed5174"),
}


def openblas_core() -> str | None:
    """The OpenBLAS core (kernel) that numpy's matrix products run on."""
    name = _openblas("get_corename", ctypes.c_char_p)
    return None if name is None else name.decode()


def blas_threads() -> int | None:
    """This process's OpenBLAS thread count."""
    return _openblas("get_num_threads", ctypes.c_int)


def without_runtimes(records) -> list:
    return [dataclasses.replace(r, runtime_ms=0.0) for r in records]


def record_hash(records) -> str:
    return hashlib.sha256(repr(without_runtimes(records)).encode()) \
        .hexdigest()[:16]


def hashes(n_workers: int) -> tuple[str, str]:
    trials = run_trials(REFERENCE_CELL, 20, DETECTORS, n_workers=n_workers)
    rows = sweep(dataclasses.replace(REFERENCE_CELL, seed=7), "n_it",
                 (5, 20, 50), 4, DETECTORS, n_workers=n_workers)
    return record_hash(trials), record_hash(rows)


def describe(pair) -> str:
    return f"run_trials {pair[0]}  nit_sweep {pair[1]}"


def main() -> int:
    core = openblas_core()

    def show(n_workers, threads):
        pair = hashes(n_workers)
        print(f"n_workers={n_workers}  core={core}  blas_threads={threads}  "
              f"{describe(pair)}")
        return pair

    show(1, blas_threads())
    _set_blas_threads(1)
    serial = show(1, blas_threads())
    # The harness pins each pool worker to one BLAS thread.
    if show(2, "1 per worker") != serial:
        print("record hashes differ: the pool does not equal the serial run "
              "at one BLAS thread", file=sys.stderr)
        return 1
    if core not in RECORDED:
        print(f"no recorded hashes for core {core}; it measured "
              f"{describe(serial)}", file=sys.stderr)
        return 1
    if serial != RECORDED[core]:
        print(f"record hashes moved on core {core}: recorded "
              f"{describe(RECORDED[core])}, measured {describe(serial)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
