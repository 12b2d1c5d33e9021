"""Record the core-pipeline golden digests (reviewed regeneration only).

Usage::

    PYTHONPATH=src python -m tests.sim.record_goldens

Runs every scenario of :mod:`tests.sim.golden_scenarios`, checks its
sanity asserts, and writes ``tests/sim/goldens/core_loop.json``.  A
digest change is a behaviour change of the pipeline: commit a
regenerated file only together with the change that explains it.

The committed digests were recorded at commit 3892a89, where a second,
object-graph implementation of the core loop still existed; that
recording ran every scenario on both loops and wrote nothing unless the
two digests were identical for every entry (``cross_checked_against`` in
the file).  A regeneration has only the one loop left to consult, so it
records ``null`` there.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from tests.sim.golden_scenarios import all_scenarios, digest

GOLDENS = Path(__file__).resolve().parent / "goldens" / "core_loop.json"


def _revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record() -> dict:
    entries = {}
    for scenario in all_scenarios():
        entries[scenario.name], system = digest(scenario)
        if scenario.sanity is not None:
            scenario.sanity(system)
        print(f"{scenario.name}: ok", file=sys.stderr)
    return {
        "recorded_at": _revision(),
        "cross_checked_against": None,
        "entries": entries,
    }


def main() -> None:
    goldens = record()
    GOLDENS.parent.mkdir(parents=True, exist_ok=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens['entries'])} digests to {GOLDENS}", file=sys.stderr)


if __name__ == "__main__":
    main()
