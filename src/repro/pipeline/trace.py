"""Pipeline tracing: per-instruction event timelines.

Attach a :class:`PipelineTracer` to a core and every dynamic instruction
records its dispatch, issue, completion, and retirement cycles (plus
squashes).  ``render()`` produces a classic text waterfall — the tool
you want when a retirement stall or a recovery needs explaining.

Tracing costs one attribute check per pipeline event when disabled and
is therefore always compiled in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pipeline.flat import FlatView


@dataclass
class InstrTrace:
    """Lifecycle timestamps of one dynamic instruction."""

    seq: int
    pc: int
    text: str
    injected: bool
    dispatched: int = -1
    issued: int = -1
    completed: int = -1
    retired: int = -1
    squashed: bool = False

    @property
    def lifetime(self) -> int:
        """Dispatch-to-retire cycles (-1 while unfinished or squashed)."""
        if self.retired < 0 or self.dispatched < 0:
            return -1
        return self.retired - self.dispatched


class PipelineTracer:
    """Collects instruction lifecycles from one core."""

    def __init__(self, capacity: int = 10_000) -> None:
        self.capacity = capacity
        self._records: dict[int, InstrTrace] = {}
        self.order: list[int] = []

    # -- recording (called from the core) ----------------------------------
    def dispatch(self, entry: FlatView, cycle: int) -> None:
        if len(self.order) >= self.capacity:
            return
        record = InstrTrace(
            seq=entry.seq,
            pc=entry.pc,
            text=str(entry.inst),
            injected=entry.injected,
            dispatched=cycle,
        )
        self._records[entry.seq] = record
        self.order.append(entry.seq)

    def issue(self, entry: FlatView, cycle: int) -> None:
        record = self._records.get(entry.seq)
        if record is not None:
            record.issued = cycle

    def complete(self, entry: FlatView, cycle: int) -> None:
        record = self._records.get(entry.seq)
        if record is not None:
            record.completed = cycle

    def retire(self, entry: FlatView, cycle: int) -> None:
        record = self._records.get(entry.seq)
        if record is not None:
            record.retired = cycle

    def squash(self, entry: FlatView) -> None:
        record = self._records.get(entry.seq)
        if record is not None:
            record.squashed = True

    # -- queries ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.order)

    def record_for(self, seq: int) -> InstrTrace | None:
        return self._records.get(seq)

    def retired_records(self) -> list[InstrTrace]:
        return [
            self._records[seq]
            for seq in self.order
            if self._records[seq].retired >= 0 and not self._records[seq].squashed
        ]

    def mean_lifetime(self) -> float:
        """Average dispatch-to-retire cycles of retired instructions.

        This is the check-occupancy metric: under redundant execution it
        grows by roughly the comparison latency (Section 5.2).
        """
        lifetimes = [r.lifetime for r in self.retired_records() if r.lifetime >= 0]
        return sum(lifetimes) / len(lifetimes) if lifetimes else 0.0

    # -- rendering ----------------------------------------------------------------
    def render(self, last: int = 24, width: int = 56) -> str:
        """A text waterfall of the most recent ``last`` instructions."""
        records = [self._records[seq] for seq in self.order][-last:]
        if not records:
            return "(no instructions traced)"
        start = min(r.dispatched for r in records)
        end = max(max(r.retired, r.completed, r.issued, r.dispatched) for r in records)
        span = max(1, end - start)
        scale = min(1.0, width / span)

        def col(cycle: int) -> int:
            return int((cycle - start) * scale) if cycle >= 0 else -1

        lines = [f"cycle {start} .. {end}  (D=dispatch X=issue C=complete R=retire)"]
        for record in records:
            lane = [" "] * (int(span * scale) + 2)
            for cycle, mark in (
                (record.dispatched, "D"),
                (record.issued, "X"),
                (record.completed, "C"),
                (record.retired, "R"),
            ):
                position = col(cycle)
                if position >= 0:
                    lane[position] = mark
            flag = "!" if record.squashed else "i" if record.injected else " "
            lines.append(f"{record.seq:>5}{flag} {record.text[:26]:<26} |{''.join(lane)}|")
        return "\n".join(lines)
