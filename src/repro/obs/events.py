"""The event log: typed records in a bounded ring buffer.

Every record is an :class:`Event` — kind, cycle, source, payload.
Kinds are dot-namespaced strings (the module-level ``K_*`` constants
are the full taxonomy); sources name the emitting component
(``"pair0"``, ``"core3"``, ``"l2"``).  Payloads are flat JSON-ready
dicts so export needs no per-kind knowledge.

The buffer is a ``deque(maxlen=capacity)``: appending past capacity
drops the *oldest* record (and counts it), so a long run keeps the tail
of its history — the part that explains how it ended — at bounded
memory.  ``emitted``/``dropped`` make truncation visible instead of
silent.

:class:`Telemetry` is the front door components hold a reference to
(or ``None`` when telemetry is off — the zero-cost-when-off contract is
that disarmed hot paths test one attribute against ``None`` and touch
nothing else).  It pre-computes the level flags ``events_on`` and
``full`` once so emitting sites never string-compare levels, and feeds
every emission to the metrics sampler even when the record itself is
below the storage threshold (the ``metrics`` level keeps time series
without buffering events).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Iterator

from repro.obs.metrics import MetricsSampler

# -- event taxonomy ---------------------------------------------------------
# Output comparison.
K_FP_COMPARE = "fingerprint.compare"  # events
K_FP_MISMATCH = "fingerprint.mismatch"  # events
K_FP_CLOSE = "fingerprint.close"  # full
# Partial protection policies (interval-sampled / unprotected / dynamic
# pairs only; full and little-mute gates never emit these).
K_FP_SKIP = "fingerprint.skip"  # events: interval closed unchecked
K_PROTECTION_OFF = "protection.off"  # events: dynamic policy paused checking
K_PROTECTION_ON = "protection.on"  # events: dynamic policy resumed checking
# The re-execution protocol.
K_RECOVERY_START = "recovery.start"  # events
K_RECOVERY_ROLLBACK = "recovery.rollback"  # events
K_RECOVERY_RESUME = "recovery.resume"  # events
K_RECOVERY_FAILURE = "recovery.failure"  # events
# Relaxed input replication.
K_SYNC_REQUEST = "sync.request"  # events
K_PHANTOM_READ = "phantom.read"  # events
# Interrupt replication.
K_INTERRUPT_POST = "interrupt.post"  # events
# Cache controller diagnostics.
K_CACHE_EVICT = "cache.evict"  # full
K_CACHE_WRITEBACK_DROP = "cache.writeback_drop"  # full
# Directory backend traffic (repro.memory.directory).
K_DIR_GETS = "dir.gets"  # full: GetS serviced at a home bank
K_DIR_GETM = "dir.getm"  # full: GetM serviced at a home bank
K_DIR_INVAL = "dir.inval"  # full: one holder's copy invalidated
K_DIR_WRITEBACK = "dir.writeback"  # full: dirty eviction folded to memory
K_DIR_GRANT = "dir.grant"  # full: home-bank arbiter grant (WRR slot)
# Fault injection.
K_FAULT_INJECT = "fault.inject"  # events
K_FAULT_ABSORB = "fault.absorb"  # events: a faulted entry entered a check interval


@dataclass(slots=True)
class Event:
    """One telemetry record."""

    kind: str
    cycle: int
    source: str
    args: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        out = {"kind": self.kind, "cycle": self.cycle, "source": self.source}
        out.update(self.args)
        return out


class EventLog:
    """Bounded ring buffer of :class:`Event` records."""

    __slots__ = ("_buffer", "capacity", "emitted", "dropped")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("event-log capacity must be >= 1")
        self.capacity = capacity
        self._buffer: deque[Event] = deque(maxlen=capacity)
        self.emitted = 0  # total records offered
        self.dropped = 0  # oldest records displaced by the ring

    def append(self, event: Event) -> None:
        self.emitted += 1
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(event)

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._buffer)

    def snapshot(self) -> list[Event]:
        """The buffered records, oldest first."""
        return list(self._buffer)

    def counts(self) -> Counter:
        """Buffered-record histogram by kind (diagnostics, summaries)."""
        return Counter(event.kind for event in self._buffer)

    def clear(self) -> None:
        self._buffer.clear()


class Telemetry:
    """The armed-telemetry front door components emit through.

    A simulated system either holds one ``Telemetry`` (telemetry armed)
    or ``None`` (off) in every component's ``obs`` slot; nothing in the
    simulator branches on the level strings directly.  ``last_cycle``
    tracks the most recent emission/sample cycle so emitters without a
    natural timestamp (cache-array evictions happen inside request
    processing, several frames below anything holding ``now``) can
    stamp records accurately to within the current step.
    """

    __slots__ = ("level", "events_on", "full", "log", "metrics", "last_cycle")

    def __init__(
        self,
        level: str = "events",
        capacity: int = 65_536,
        fingerprint_bits: int = 16,
        metrics_interval: int = 1_024,
    ) -> None:
        from repro.sim.options import TRACE_LEVELS

        if level not in TRACE_LEVELS or level == "off":
            raise ValueError(
                f"telemetry level must be one of {TRACE_LEVELS[1:]}, got {level!r}"
            )
        rank = TRACE_LEVELS.index(level)
        self.level = level
        self.events_on = rank >= TRACE_LEVELS.index("events")
        self.full = rank >= TRACE_LEVELS.index("full")
        self.log = EventLog(capacity)
        self.metrics = MetricsSampler(
            interval=metrics_interval, fingerprint_bits=fingerprint_bits
        )
        self.last_cycle = 0

    def emit(self, kind: str, cycle: int | None, source: str, **args: Any) -> None:
        """Record one event (and feed the metrics counters).

        ``cycle=None`` stamps the record with :attr:`last_cycle` — the
        cycle of the in-flight step — for emitters below the timing
        layer.
        """
        if cycle is None:
            cycle = self.last_cycle
        else:
            self.last_cycle = cycle
        self.metrics.observe(kind, cycle, source)
        if self.events_on:
            self.log.append(Event(kind, cycle, source, args))
