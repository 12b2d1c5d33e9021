"""Output-comparison bandwidth analysis (Section 2.4 of the paper).

Redundant cores must compare execution results; the question is how many
bits cross the inter-core channel.  The paper surveys three designs:

* **direct comparison** — every instruction's architectural updates
  (register writeback, store address/value, branch target) are shipped
  and compared;
* **dependence-chain comparison** (Gomaa et al. [9]) — only instructions
  that *end* dependence chains are compared, losslessly, saving ~20%;
* **fingerprinting** (Smolens et al. [21], what Reunion uses) — updates
  are hashed; only ``fingerprint_bits`` per interval cross the channel,
  cutting bandwidth by orders of magnitude at a bounded coverage cost.

:class:`BandwidthMeter` attaches to a core's retirement stream and
accounts all three schemes simultaneously over the same instructions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pipeline.ooo_core import OoOCore
from repro.pipeline.flat import FlatView


def update_bits(entry: FlatView) -> int:
    """Architectural update bits one instruction produces (64b words)."""
    bits = 0
    inst = entry.inst
    if inst.writes_reg and entry.result is not None:
        bits += 64
    if inst.is_store and entry.addr is not None:
        bits += 64
        if entry.store_value is not None:
            bits += 64
    if inst.is_atomic and entry.addr is not None:
        bits += 64
    if inst.is_control and entry.actual_next is not None:
        bits += 64
    return bits


def ends_dependence_chain(entry: FlatView) -> bool:
    """True when no in-flight instruction consumed this result.

    Retirement-time approximation of Gomaa et al.'s chain-ending test:
    a register result with live consumers will be checked transitively
    through them; stores, branches and unconsumed results terminate
    chains and must be compared themselves.
    """
    if not entry.inst.writes_reg:
        return True  # stores/branches always end chains
    return not entry.consumed


@dataclass
class BandwidthMeter:
    """Accumulates comparison-bandwidth statistics at retirement."""

    fingerprint_bits: int = 16
    fingerprint_interval: int = 1

    instructions: int = 0
    direct_bits: int = 0
    chain_bits: int = 0
    chain_compared: int = 0

    def attach(self, core: OoOCore) -> None:
        core.retire_hook = self._hook

    def _hook(self, entry: FlatView) -> None:
        self.instructions += 1
        bits = update_bits(entry)
        self.direct_bits += bits
        if ends_dependence_chain(entry):
            self.chain_bits += bits
            self.chain_compared += 1

    # -- per-instruction bandwidths ----------------------------------------
    @property
    def direct_bits_per_instr(self) -> float:
        return self.direct_bits / self.instructions if self.instructions else 0.0

    @property
    def chain_bits_per_instr(self) -> float:
        return self.chain_bits / self.instructions if self.instructions else 0.0

    @property
    def fingerprint_bits_per_instr(self) -> float:
        return self.fingerprint_bits / self.fingerprint_interval

    def summary(self) -> dict[str, float]:
        return {
            "direct": self.direct_bits_per_instr,
            "chain": self.chain_bits_per_instr,
            "fingerprint": self.fingerprint_bits_per_instr,
        }
