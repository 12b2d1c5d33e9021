"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload and prints its metrics as the last line of standard
output.  See ``perfbench/NOTES.md`` for why each workload exists and which
layer metric should move which end-to-end metric.

Nothing here imports :mod:`repro` at module level: :func:`prepare` must run
first, because ``repro.sim.config`` reads ``REPRO_*`` settings at import.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: Root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent
#: The package source the benchmark measures.
SRC = ROOT / "src"
#: Scratch space for traces, caches and sockets (ignored by git).
OUT = ROOT / "perfbench" / ".out"


def prepare() -> None:
    """Import ``repro`` from this checkout, with no ``REPRO_*`` overrides.

    Environment knobs such as ``REPRO_COHERENCE`` or ``REPRO_HOTLOOP``
    retarget the simulator; a benchmark run must measure the defaults
    whatever the caller's shell exports.
    """
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
