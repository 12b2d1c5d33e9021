"""The Strict oracle: strict input replication with ideal timing.

Section 5.1 of the paper defines *Strict* as the oracle performance model
for all strict-input-replication designs (lockstep, LVQ): it imposes no
penalty for input replication itself — the virtual partner has identical
timing — while still modelling the fundamental costs of checking:

* every fingerprint waits one comparison latency before retirement, so
  instructions occupy the ROB longer (the resource-occupancy penalty that
  hurts the paper's scientific workloads), and
* serializing instructions still stall for the full comparison latency,
  because they may not execute until all older instructions have been
  compared and retired (the penalty that dominates commercial workloads).

Implementation: a :class:`CheckGate` whose partner always produces a
matching fingerprint at exactly the same cycle.
"""

from __future__ import annotations

from repro.core.check_stage import CheckGate
from repro.sim.config import RedundancyConfig


class StrictCheckGate(CheckGate):
    """A check gate compared against an identically-timed virtual partner."""

    def __init__(self, config: RedundancyConfig) -> None:
        super().__init__(config)
        self._latency = config.comparison_latency

    def _self_compare(self) -> None:
        while self._closed:
            record = self.pop_closed()
            # The virtual partner's fingerprint matches, generated at the
            # same cycle: retirement happens one comparison latency later.
            self.clear_interval(record.index, record.close_cycle + self._latency)

    def offer_f(self, core, slot: int, now: int) -> None:
        super().offer_f(core, slot, now)
        self._self_compare()

    def close_open(self, now: int) -> None:
        super().close_open(now)
        self._self_compare()

    def maybe_timeout_close(self, now: int) -> None:
        super().maybe_timeout_close(now)
        self._self_compare()
