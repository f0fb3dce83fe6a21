"""The frozen program, run beside the current one to measure host speed.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes, so the same code timed now and ten minutes later
reads differently.  `baseline/ampvbic_baseline` is a copy of the package
as it stood when the benchmark was defined.  Next to every timed request
the benchmark sends the same request to that copy and times it.  The copy
is the same kind of work as the program, so it slows down and speeds up
with the host the same way, and the ratio of the two times follows the
program alone.

The copy runs in the benchmark's own process, one request at a time: a
second process would keep a second BLAS thread pool spinning beside the
program's and slow both down.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "baseline"))

from ampvbic_baseline import harness  # noqa: E402,F401
from ampvbic_baseline.errors import AmpVbicError  # noqa: E402,F401
