"""Retire gates: the policy boundary between pipeline and redundancy.

The out-of-order core hands completed instructions, in program order, to
its *retire gate*.  The gate decides when each may update architectural
state:

* :class:`ImmediateGate` — non-redundant execution: instructions retire
  the cycle after they are offered.
* ``StrictCheckGate`` (in :mod:`repro.core.strict`) — oracle strict input
  replication: fingerprints are compared against a virtual partner with
  identical timing, so only the comparison latency and the resulting
  buffering are modelled.
* ``CheckGate`` (in :mod:`repro.core.check_stage`) — real
  fingerprint exchange between the vocal and mute cores of a pair.

Keeping the gate abstract lets one pipeline implementation serve all
three execution models, which is exactly the paper's dual-use argument.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol

from repro.pipeline.flat import M_INJECTED

#: Horizon sentinel for the cycle-skipping kernel: "no pending event".
#: Any real simulated cycle is far below this.
NEVER = 1 << 62


class RetireGate(Protocol):
    """What the core needs from a retirement-checking policy.

    The core identifies in-flight instructions by ring slot (at offer)
    and by packed int reference ``(seq << core._f_sbits) | slot`` (in
    the gate's queue) into its column arrays (see
    :mod:`repro.pipeline.flat`).  A ref whose slot seq no longer matches
    was squashed after it was offered.
    """

    def offer_f(self, core, slot: int, now: int) -> None:
        """The oldest completed instruction, live in ``slot``, enters check."""

    def pop_retirable_f(self, core, now: int, limit: int) -> list[int]:
        """Packed refs cleared for retirement, oldest first.

        The returned list is a per-gate scratch buffer, valid only until
        the next pop on this gate — callers consume it immediately and
        never retain it.  Callers must re-validate each ref's seq before
        acting on it: a TRAP or interrupt retired mid-batch squashes
        younger refs still in the returned batch.
        """

    def has_retirable_f(self, core, now: int) -> bool:
        """Cheap allocation-free precheck: would ``pop_retirable_f`` act?

        True whenever the pop would return refs *or* discard squashed
        ones.
        """

    def next_release_f(self, core, now: int) -> int:
        """Earliest cycle >= ``now`` at which this gate could release work.

        Conservative horizon for the cycle-skipping kernel: ``now`` means
        "may act on the very next step", :data:`NEVER` means the gate has
        no self-generated events (it can still be woken externally, e.g.
        by its pair partner's comparison).
        """

    def close_open(self, now: int) -> None:
        """A serializing instruction is waiting: end the open interval now.

        Section 4.4: "the fingerprint interval immediately ends to allow
        older instructions to retire" when a serializing instruction is
        encountered.
        """

    def flush(self) -> None:
        """Drop all pending check state (squash / recovery)."""

    @property
    def open_count(self) -> int:
        """User instructions in the currently-open fingerprint interval."""

    # Implementations also carry a ``users_offered`` attribute: the
    # cumulative count of *user* (non-injected) instructions offered,
    # never reset by :meth:`flush`.  The core's offer loop consults it
    # to service external interrupts at the in-order offer boundary.


class ImmediateGate:
    """Non-redundant retirement: no checking, no added latency."""

    __slots__ = ("_queue", "_scratch", "users_offered")

    def __init__(self) -> None:
        self._queue: deque[int] = deque()  # packed refs, offer order
        #: Reused pop_retirable_f output buffer (valid until the next pop).
        self._scratch: list[int] = []
        #: Cumulative user instructions offered (interrupt offer boundary).
        self.users_offered = 0

    def offer_f(self, core, slot: int, now: int) -> None:
        if not core.f_mask[slot] & M_INJECTED:
            self.users_offered += 1
        self._queue.append((core.f_seq[slot] << core._f_sbits) | slot)

    def pop_retirable_f(self, core, now: int, limit: int) -> list[int]:
        # Queued refs may have gone stale (squashed after offer); the
        # caller re-validates seqs.
        out = self._scratch
        out.clear()
        queue = self._queue
        while queue and len(out) < limit:
            out.append(queue.popleft())
        return out

    def has_retirable_f(self, core, now: int) -> bool:
        return bool(self._queue)

    def close_open(self, now: int) -> None:
        pass  # no intervals without checking

    def flush(self) -> None:
        self._queue.clear()

    def next_release_f(self, core, now: int) -> int:
        # Queued entries retire on the very next step; otherwise nothing.
        return now if self._queue else NEVER

    open_count = 0  # no fingerprint intervals without checking
