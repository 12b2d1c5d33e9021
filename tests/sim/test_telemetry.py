"""The telemetry contract: observe everything, change nothing.

Two halves:

* **Bit identity** — a run with telemetry armed (any level) must produce
  exactly the same architectural results as the same run with telemetry
  off.  The sampler and emitters only ever read simulator state.
* **Strategy independence** — the *event stream itself* describes the
  simulated machine, not how it is simulated or observed: under either
  kernel, a fault-injected run armed at ``full`` emits the ``events``
  level's records unchanged (order and payload) around its diagnostics,
  and the naive and the event kernel emit identical streams.
"""

from __future__ import annotations

import pytest

from repro.core.faults import FaultInjector
from repro.isa import assemble
from repro.obs import events as ev
from repro.sim.cmp import CMPSystem
from repro.sim.config import Mode, PhantomStrength
from repro.sim.options import SimOptions
from tests.core.helpers import SMALL

#: Mixed compute: ALU work, stores, loads, a serializing atomic,
#: branches — exercises comparison, sync requests and the check gate.
MIXED = """
    movi r1, 40
    movi r2, 0
    movi r3, 0x400
    movi r6, 0x900
loop:
    add r2, r2, r1
    store r2, [r3]
    load r4, [r3]
    atomic r5, [r6], r1
    addi r3, r3, 8
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""


def _config(
    phantom: PhantomStrength = PhantomStrength.GLOBAL, fingerprint_interval: int = 8
):
    return SMALL.replace(n_logical=1).with_redundancy(
        mode=Mode.REUNION,
        comparison_latency=10,
        fingerprint_interval=fingerprint_interval,
        phantom=phantom,
    )


def _run(options: SimOptions, phantom=PhantomStrength.GLOBAL) -> CMPSystem:
    system = CMPSystem(_config(phantom), [assemble(MIXED)], options=options)
    system.run_until_idle(max_cycles=500_000)
    return system


def _observe(system: CMPSystem) -> dict:
    return {
        "now": system.now,
        "stats": dict(system.collect_stats().snapshot()),
        "arf": [[core.arf.read(reg) for reg in range(8)] for core in system.cores],
        "recovery_log": [pair.recovery_log for pair in system.pairs],
    }


class TestBitIdentity:
    @pytest.mark.parametrize("level", ["metrics", "events", "full"])
    def test_armed_run_matches_disarmed(self, level):
        baseline = _observe(_run(SimOptions()))
        armed_system = _run(SimOptions(trace=level))
        assert _observe(armed_system) == baseline
        # The run must have actually been observed, or this proves nothing.
        assert armed_system.obs is not None
        assert armed_system.obs.metrics.rows or armed_system.obs.log.emitted

    def test_events_level_sees_the_taxonomy(self):
        system = _run(SimOptions(trace="events"))
        kinds = set(system.obs.log.counts())
        assert "fingerprint.compare" in kinds
        assert "sync.request" in kinds  # the atomic serializes every loop

    def test_full_level_adds_diagnostics(self):
        events = set(_run(SimOptions(trace="events")).obs.log.counts())
        full = set(_run(SimOptions(trace="full")).obs.log.counts())
        assert events <= full
        assert "fingerprint.close" in full - events

    def test_off_allocates_nothing(self):
        system = CMPSystem(_config(), [assemble(MIXED)], options=SimOptions())
        assert system.obs is None
        assert system.controller.obs is None
        assert all(core.obs is None for core in system.cores)
        assert all(pair.obs is None for pair in system.pairs)


#: Diagnostics only the ``full`` level emits.
FULL_ONLY_KINDS = frozenset(
    {
        ev.K_FP_CLOSE,
        ev.K_CACHE_EVICT,
        ev.K_CACHE_WRITEBACK_DROP,
        ev.K_DIR_GETS,
        ev.K_DIR_GETM,
        ev.K_DIR_INVAL,
        ev.K_DIR_WRITEBACK,
        ev.K_DIR_GRANT,
    }
)


def _fault_stream(kernel: str, trace: str = "events") -> tuple[list[dict], CMPSystem]:
    system = CMPSystem(
        _config(),
        [assemble(MIXED)],
        options=SimOptions(kernel=kernel, trace=trace),
    )
    injector = FaultInjector(seed=7)
    injector.attach(system.cores[1])  # the mute
    injector.inject_once(after=40)
    system.run_until_idle(max_cycles=500_000)
    return [event.to_dict() for event in system.obs.log], system


class TestKernelIndependentStream:
    @pytest.mark.parametrize("kernel", ["naive", "event"])
    def test_fault_injected_streams_identical(self, kernel):
        events_stream, events_system = _fault_stream(kernel)
        full_stream, full_system = _fault_stream(kernel, trace="full")
        # Arming the diagnostics adds records but moves or alters none:
        # order and payload, record for record (cycle stamps included).
        diagnostics = [r for r in full_stream if r["kind"] in FULL_ONLY_KINDS]
        assert diagnostics
        assert [
            r for r in full_stream if r["kind"] not in FULL_ONLY_KINDS
        ] == events_stream
        assert _observe(full_system) == _observe(events_system)

        kinds = {record["kind"] for record in events_stream}
        assert "fault.inject" in kinds
        assert "fingerprint.mismatch" in kinds
        assert "recovery.start" in kinds
        assert "recovery.rollback" in kinds
        assert "recovery.resume" in kinds
        assert events_system.recoveries() >= 1

    def test_kernels_emit_identical_streams(self):
        naive_stream, naive_system = _fault_stream("naive")
        event_stream, event_system = _fault_stream("event")
        # Order and payload, record for record (cycle stamps included).
        assert naive_stream == event_stream
        assert _observe(naive_system) == _observe(event_system)
        assert any(r["kind"] == "fault.inject" for r in event_stream)

    @pytest.mark.parametrize("kernel", ["naive", "event"])
    def test_mismatch_records_carry_the_divergence(self, kernel):
        stream, _ = _fault_stream(kernel)
        mismatches = [r for r in stream if r["kind"] == "fingerprint.mismatch"]
        assert mismatches
        first = mismatches[0]
        assert first["cause"] in {"fingerprint", "count", "poison"}
        assert first["vocal_fp"] != first["mute_fp"] or first["cause"] != "fingerprint"


class TestRingBound:
    def test_capacity_bounds_memory_not_accounting(self):
        system = _run(SimOptions(trace="events", trace_capacity=8))
        log = system.obs.log
        assert len(log) == 8
        assert log.emitted > 8
        assert log.dropped == log.emitted - 8
        # The survivors are the newest records.
        cycles = [event.cycle for event in log]
        assert cycles == sorted(cycles)
