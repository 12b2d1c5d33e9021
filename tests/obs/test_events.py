"""Unit tests for the event log ring buffer and the Telemetry front door."""

import pytest

from repro.obs.events import (
    Event,
    EventLog,
    K_FP_COMPARE,
    Telemetry,
)


def _event(cycle: int, kind: str = "fingerprint.compare") -> Event:
    return Event(kind, cycle, "pair0", {"index": cycle})


class TestEventLog:
    def test_append_preserves_order(self):
        log = EventLog(capacity=8)
        for cycle in range(5):
            log.append(_event(cycle))
        assert [e.cycle for e in log.snapshot()] == [0, 1, 2, 3, 4]
        assert len(log) == 5
        assert log.emitted == 5
        assert log.dropped == 0

    def test_ring_drops_oldest_and_counts(self):
        log = EventLog(capacity=3)
        for cycle in range(7):
            log.append(_event(cycle))
        # The tail of history survives; displaced records are counted.
        assert [e.cycle for e in log] == [4, 5, 6]
        assert log.emitted == 7
        assert log.dropped == 4
        assert len(log) == 3

    def test_counts_histogram(self):
        log = EventLog(capacity=8)
        log.append(_event(0, "recovery.start"))
        log.append(_event(1, "recovery.resume"))
        log.append(_event(2, "recovery.start"))
        assert log.counts() == {"recovery.start": 2, "recovery.resume": 1}

    def test_clear_keeps_counters(self):
        log = EventLog(capacity=4)
        log.append(_event(0))
        log.clear()
        assert len(log) == 0
        assert log.emitted == 1  # truncation stays visible

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)


class TestEvent:
    def test_to_dict_flattens_args(self):
        event = Event("sync.request", 42, "pair1", {"pc": 0x40, "op": "ATOMIC"})
        assert event.to_dict() == {
            "kind": "sync.request",
            "cycle": 42,
            "source": "pair1",
            "pc": 0x40,
            "op": "ATOMIC",
        }


class TestTelemetryLevels:
    def test_metrics_level_counts_without_buffering(self):
        telemetry = Telemetry(level="metrics")
        assert not telemetry.events_on and not telemetry.full
        telemetry.emit("recovery.start", 10, "pair0")
        telemetry.emit("recovery.resume", 35, "pair0")
        # No records stored, but the metrics side still saw both events.
        assert len(telemetry.log) == 0
        assert telemetry.log.emitted == 0
        assert telemetry.metrics.recovery_latencies == [25]

    def test_events_level_buffers(self):
        telemetry = Telemetry(level="events")
        assert telemetry.events_on and not telemetry.full
        telemetry.emit(K_FP_COMPARE, 8, "pair0", index=1, matched=True)
        assert len(telemetry.log) == 1
        assert telemetry.log.snapshot()[0].args == {"index": 1, "matched": True}

    def test_full_implies_events(self):
        telemetry = Telemetry(level="full")
        assert telemetry.events_on and telemetry.full

    def test_off_and_unknown_levels_rejected(self):
        with pytest.raises(ValueError):
            Telemetry(level="off")
        with pytest.raises(ValueError):
            Telemetry(level="verbose")


class TestCycleStamping:
    def test_explicit_cycle_updates_last_cycle(self):
        telemetry = Telemetry(level="events")
        telemetry.emit(K_FP_COMPARE, 120, "pair0")
        assert telemetry.last_cycle == 120

    def test_none_cycle_stamps_with_last_cycle(self):
        telemetry = Telemetry(level="events")
        telemetry.last_cycle = 77
        telemetry.emit("cache.evict", None, "l2", line_addr=0x400)
        (event,) = telemetry.log.snapshot()
        assert event.cycle == 77
        # A below-timing-layer emission must not advance the clock.
        assert telemetry.last_cycle == 77

