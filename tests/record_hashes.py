"""Print the two record hashes that pin the harness's decisions.

Each hash is the first 16 hex digits of the SHA-256 of repr() of a list
of records with runtime_ms zeroed, so it moves exactly when a decision,
a score or the record layout moves:

  run_trials  the reference cell (M=200, N=100, J=10, p_a=0.1, 5 dB,
              QAM16, n_it 20), seed 2026, trials 0..19, all three
              detectors;
  nit_sweep   the same cell at seed 7, an n_it sweep over 5, 20 and 50,
              4 trials, all three detectors.

Both are computed serially and with 2 worker processes.  Run it from the
repository root (a few seconds per line):

  PYTHONPATH=src python tests/record_hashes.py

pytest does not collect this file; it is not named test_*.py.
"""

from __future__ import annotations

import dataclasses
import hashlib

from ampvbic.harness import run_trials, sweep
from ampvbic.model import ScenarioConfig

REFERENCE_CELL = ScenarioConfig(M=200, N=100, J=10, p_a=0.1, snr_db=5.0,
                                modulation="qam16", n_it=20, seed=2026)
DETECTORS = ("amp_vbic", "amp_vbic_no_offset", "genie")


def record_hash(records) -> str:
    zeroed = [dataclasses.replace(r, runtime_ms=0.0) for r in records]
    return hashlib.sha256(repr(zeroed).encode()).hexdigest()[:16]


def main() -> None:
    for n_workers in (1, 2):
        trials = run_trials(REFERENCE_CELL, 20, DETECTORS, n_workers=n_workers)
        rows = sweep(dataclasses.replace(REFERENCE_CELL, seed=7), "n_it",
                     (5, 20, 50), 4, DETECTORS, n_workers=n_workers)
        print(f"n_workers={n_workers}  run_trials {record_hash(trials)}  "
              f"nit_sweep {record_hash(rows)}")


if __name__ == "__main__":
    main()
