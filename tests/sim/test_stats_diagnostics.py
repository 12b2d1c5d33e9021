"""Stats is the architectural record; strategy diagnostics stay out.

``CMPSystem.collect_stats`` documents the contract this file enforces:
every counter folded into :class:`~repro.sim.stats.Stats` must be
bit-identical across simulation strategies (naive/event kernel,
telemetry on/off), because the differential tests compare whole
snapshots.  Diagnostics that *measure the strategy* — ``CMPSystem.steps``,
anything telemetry records — would differ between equivalent runs, so
leaking any of them into Stats silently breaks every equivalence test.
"""

from __future__ import annotations

from repro.isa import assemble
from repro.sim.cmp import CMPSystem
from repro.sim.config import Mode
from repro.sim.options import SimOptions
from tests.core.helpers import SMALL

PROG = """
    movi r1, 30
    movi r2, 0
    movi r3, 0x400
loop:
    add r2, r2, r1
    store r2, [r3]
    load r4, [r3]
    addi r3, r3, 8
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""

#: Name fragments that mark a counter as a strategy diagnostic.
FORBIDDEN_FRAGMENTS = ("steps", "mirror", "replay", "obs", "telemetry", "trace")

CONFIG = SMALL.replace(n_logical=1).with_redundancy(
    mode=Mode.REUNION, comparison_latency=10, fingerprint_interval=8
)


def _run(options: SimOptions) -> CMPSystem:
    system = CMPSystem(CONFIG, [assemble(PROG)], options=options)
    system.run_until_idle(max_cycles=500_000)
    return system


class TestNoDiagnosticLeaks:
    def test_no_strategy_counter_names(self):
        system = _run(SimOptions(trace="full"))
        snapshot = system.collect_stats().snapshot()
        offenders = [
            name
            for name in snapshot
            if any(fragment in name.lower() for fragment in FORBIDDEN_FRAGMENTS)
        ]
        assert offenders == []

    def test_steps_differ_but_stats_are_equal(self):
        # The event kernel skips idle cycles, so it steps strictly fewer
        # times than the naive kernel on a memory-bound program — the
        # very quantity that must not appear in Stats.
        event = _run(SimOptions(kernel="event"))
        naive = _run(SimOptions(kernel="naive"))
        assert event.steps < naive.steps
        assert event.collect_stats().snapshot() == naive.collect_stats().snapshot()
