"""Metric catalogue, failure tally and the result line.

``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` checks that
the two agree.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
from typing import Iterable

#: End-to-end metrics (``--trace 0``), every one measured on every workload.
END_TO_END = (
    ("sim_cycles_per_s", "1/s"),
    ("sim_user_instr_per_s", "1/s"),
    ("sweep_wall_s", "s"),
    ("resubmit_wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_turnaround_s.p50", "s"),
    ("job_turnaround_s.p95", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

GATES = ("immediate", "check", "strict")
BACKENDS = ("shared", "snoopy", "directory")
CTRL_OPS = ("vocal_read", "phantom_read", "vocal_write", "sync_access")
OUTCOMES = ("masked", "detected_recovered", "detected_unrecoverable", "sdc", "timeout")


def _per_layer() -> tuple[tuple[str, str], ...]:
    rows = [
        ("sim.run_s", "s"),
        ("sim.kernel.loop_s", "s"),
        ("sim.kernel.stepped_frac", "ratio"),
        ("sim.kernel.horizon_s", "s"),
        ("sim.kernel.horizon_calls", "count"),
        ("sim.kernel.horizon_share", "ratio"),
        ("sim.construct_s", "s"),
        ("workloads.generate_s", "s"),
        ("workloads.generate_share", "ratio"),
        ("pipeline.core_step_s", "s"),
        ("pipeline.core_step_calls", "count"),
    ]
    for op in ("offer", "release"):
        for gate in GATES:
            rows += [(f"core.gate.{op}_s.{gate}", "s"), (f"core.gate.{op}_calls.{gate}", "count")]
    rows += [
        ("core.gate.share", "ratio"),
        ("core.pair.step_s", "s"),
        ("core.pair.step_calls", "count"),
        ("core.pair.recoveries", "count"),
        ("core.pair.sync_requests", "count"),
    ]
    for op in ("load", "store", "rmw"):
        rows += [(f"memory.port.{op}_s", "s"), (f"memory.port.{op}_calls", "count")]
    for op in CTRL_OPS:
        for backend in BACKENDS:
            rows += [
                (f"memory.ctrl.{op}_s.{backend}", "s"),
                (f"memory.ctrl.{op}_calls.{backend}", "count"),
            ]
    rows += [
        ("memory.share", "ratio"),
        ("exec.run_job_s", "s"),
        ("exec.run_job_calls", "count"),
        ("exec.cache.get_s", "s"),
        ("exec.cache.get_calls", "count"),
        ("exec.cache.put_s", "s"),
        ("exec.cache.put_calls", "count"),
        ("serve.submit_s", "s"),
        ("serve.submit_calls", "count"),
        ("serve.queue_wait_s.p50", "s"),
        ("serve.queue_wait_s.p95", "s"),
        ("serve.service_s.p50", "s"),
        ("serve.service_s.p95", "s"),
        ("serve.dedup_ratio", "ratio"),
        ("serve.cache_hit_ratio", "ratio"),
        ("campaign.golden_s", "s"),
    ]
    rows += [(f"campaign.outcome.{bucket}", "count") for bucket in OUTCOMES]
    rows.append(("trace.overhead", "ratio"))
    return tuple(rows)


#: Per-layer metrics (``--trace 1``).  A layer a workload bypasses reads 0.
PER_LAYER = _per_layer()


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def trimmed_mean(values: Iterable[float], trim: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and highest ``trim`` share; 0 when empty.

    Repeated timings within a run are combined this way.  The shared host
    switches between fast and slow spells lasting seconds; a median jumps
    between the two as their shares cross one half, while a mean follows
    the shares smoothly, and trimming drops the odd hiccup.
    """
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    kept = ordered[cut:len(ordered) - cut]
    return statistics.fmean(kept) if kept else 0.0


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]; 0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def high_water_mb() -> float:
    """This process's peak resident set since exec, in MB.

    ``VmHWM`` starts afresh at exec; ``ru_maxrss`` would also count the
    process that forked this one (the caller's own footprint).
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def check(self, label: str, key: str, value, goldens: dict[str, str]) -> None:
        """Count one result, failing it unless its digest is the golden one."""
        from perfbench.plans import digest

        expected = goldens.get(key)
        got = digest(value)
        if expected is None:
            self.fail(f"{label}: no golden digest for {key[:16]}")
        elif got != expected:
            self.fail(f"{label}: digest {got} != golden {expected} ({key[:16]})")
        else:
            self.ok()


def emit(tally: Tally, metrics: dict[str, float], catalogue) -> dict:
    """Print a readable table on stderr and the result line on stdout."""
    units = dict(catalogue)
    missing = set(units) - set(metrics)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    if tally.attempted == 0:
        tally.fail("no operation ran")
    for message in tally.messages:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    error_rate = ratio(tally.failed, tally.attempted)
    print(
        f"perfbench: attempted {tally.attempted}, failed {tally.failed}, "
        f"error_rate {error_rate:.4f}",
        file=sys.stderr,
    )
    for name, unit in catalogue:
        print(f"  {name:40s} {metrics[name]:>16.6g} {unit}", file=sys.stderr)
    line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in catalogue
        },
    }
    print(json.dumps(line), flush=True)
    return line
