"""The logical processor pair: vocal/mute coupling and recovery.

This module implements Section 3's execution model and Section 4.3's
microarchitecture:

* **fingerprint exchange** — when both cores have closed fingerprint
  interval *k*, the pair compares them; a match clears the interval for
  retirement one comparison latency after the *later* close (the cores
  "swap" fingerprints, so the observed latency includes any vocal/mute
  skew — the loose-coupling cost of Section 5.3);
* **synchronizing requests** — atomics always, and the first load during
  re-execution, are performed once by the shared cache controller when
  both cores have arrived, and the single coherent value is delivered to
  both (Definition 10);
* **the re-execution protocol** (Definition 11, Figure 4) — on mismatch,
  both cores roll back to safe state and single-step to the first memory
  read, issued as a synchronizing request; a second mismatch escalates to
  the vocal-to-mute ARF copy; a third is an unrecoverable failure;
* **a divergence watchdog** — input incoherence can send the mute down a
  wild path that never produces a matching interval (e.g. into a halt or
  a divergent loop); if one side's closed fingerprint waits longer than
  ``divergence_timeout`` for its partner, the pair treats it as a
  detected divergence and recovers.
"""

from __future__ import annotations

import enum

from repro.core.check_stage import CheckGate, ProtectionState
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Op
from repro.isa.semantics import atomic_result
from repro.memory.l2_controller import SharedL2Controller
from repro.pipeline.gates import NEVER
from repro.pipeline.ooo_core import OoOCore
from repro.sim.config import ProtectionPolicy, SystemConfig

#: Base address of the (per-core, uncontended) interrupt vector data.
INTERRUPT_VECTOR_BASE = 0x4800_0000


def default_interrupt_handler(vector: int = 0) -> list[Instruction]:
    """A minimal external-interrupt service routine.

    Trap entry, two vector-table loads, a non-idempotent device
    acknowledge, trap exit — the serializing mix of a real handler.
    """
    base = INTERRUPT_VECTOR_BASE + (vector % 64) * 64
    return [
        Instruction(Op.TRAP),
        Instruction(Op.LOAD, rd=0, rs1=0, imm=base),
        Instruction(Op.LOAD, rd=0, rs1=0, imm=base + 8),
        Instruction(Op.MMUOP),
        Instruction(Op.TRAP),
    ]


class PairState(enum.Enum):
    NORMAL = "normal"
    WAIT_RECOVERY = "wait-recovery"  # mismatch seen; fingerprints in flight
    SINGLE_STEP = "single-step"  # re-execution protocol running


class LogicalPair:
    """One logical processor: a vocal core and a mute core."""

    def __init__(
        self,
        pair_id: int,
        vocal: OoOCore,
        mute: OoOCore,
        controller: SharedL2Controller,
        config: SystemConfig,
        policy: ProtectionPolicy | None = None,
    ) -> None:
        self.pair_id = pair_id
        self.vocal = vocal
        self.mute = mute
        self.controller = controller
        self.config = config
        self.redundancy = config.redundancy
        #: This pair's protection policy (default: the paper's ``full``).
        #: Result-affecting modes arrive via SystemConfig.pair_policies,
        #: resolved and threaded by CMPSystem.
        self.policy = policy if policy is not None else ProtectionPolicy()

        vocal.gate = CheckGate(config.redundancy)
        mute.gate = CheckGate(config.redundancy)
        vocal.gate.paired = True
        mute.gate.paired = True
        vocal.pair_sync_atomics = True
        mute.pair_sync_atomics = True

        #: Shared checked-interval schedule for the partial modes
        #: (interval-sampled / unprotected / dynamic); None for the
        #: always-checked modes (full, little-mute).
        self.protection_state: ProtectionState | None = None
        self._dynamic = self.policy.mode == "dynamic"
        self._dyn_paused = False
        self.protection_toggles = 0
        mode_name = self.policy.mode
        if mode_name == "interval-sampled":
            self.protection_state = ProtectionState(self.policy.checked_fraction)
        elif mode_name == "unprotected":
            self.protection_state = ProtectionState(0.0)
        elif mode_name == "dynamic":
            self.protection_state = ProtectionState(None)
        if self.protection_state is not None:
            for gate in (vocal.gate, mute.gate):
                gate._policy_state = self.protection_state
                gate._check_all = False
        if mode_name == "unprotected":
            # Redundancy off: no fingerprint exchange (every interval is
            # unchecked via the 0.0 fraction above), no sync coupling —
            # atomics perform locally, as on a non-redundant core — and
            # the mute core is parked (never stepped; its counters stay
            # deterministically zero).  The vocal keeps its CheckGate so
            # retirement still batches by interval, modeling the
            # dual-use hardware with the exchange disabled.
            vocal.pair_sync_atomics = False
            mute.pair_sync_atomics = False
            mute.parked = True

        self.state = PairState.NORMAL
        self.phase = 0  # 1 or 2 while recovering
        self._recovery_at = 0
        self._recovery_escalate = False
        self._recovery_cause = ""  # what scheduled the pending recovery
        self._exit_single_step_at: int | None = None
        self.failed = False

        #: Armed telemetry (see repro.obs), or None.  Set by CMPSystem.
        self.obs = None
        self._obs_source = f"pair{pair_id}"

        # Statistics.
        self.recoveries = 0
        self.mismatch_recoveries = 0
        self.timeout_recoveries = 0
        self.phase2_recoveries = 0
        self.sync_requests = 0
        self.failures = 0
        #: (cycle, cause) per recovery — detection-latency analysis.
        self.recovery_log: list[tuple[int, str]] = []

    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        """Advance pair-level machinery; call after both cores stepped."""
        if self.failed:
            return
        vocal_gate: CheckGate = self.vocal.gate  # type: ignore[assignment]
        mute_gate: CheckGate = self.mute.gate  # type: ignore[assignment]
        # maybe_timeout_close, inlined: this runs every pair-cycle and
        # pair gates are always plain CheckGates (never Strict), so the
        # attribute test replaces two method calls.
        if vocal_gate._count and now - vocal_gate._last_offer > vocal_gate._timeout_limit:
            vocal_gate._close(now)
        if mute_gate._count and now - mute_gate._last_offer > mute_gate._timeout_limit:
            mute_gate._close(now)

        if self.state is PairState.WAIT_RECOVERY:
            if now >= self._recovery_at:
                self._begin_recovery(now)
            return

        if vocal_gate._closed and mute_gate._closed:
            self._compare_intervals(now)
            if self.state is PairState.WAIT_RECOVERY:
                if now >= self._recovery_at:
                    self._begin_recovery(now)
                return
            if self._dynamic:
                self._evaluate_dynamic(now)

        if self.vocal.sync_request is not None and self.mute.sync_request is not None:
            self._service_sync_requests(now)
        if vocal_gate._closed or mute_gate._closed:
            self._watchdog(now)

        if self._exit_single_step_at is not None and now >= self._exit_single_step_at:
            self._exit_single_step(now)

    # -- event horizon (cycle-skipping kernel) ---------------------------------
    def next_event(self, now: int) -> int:
        """Conservative wake-up horizon for the cycle-skipping kernel.

        The pair's own events: beginning a scheduled recovery, comparing
        fingerprints once both sides have closed an interval, servicing a
        synchronizing request once both cores have parked one, the
        divergence watchdog, and leaving single-step mode.  Gate
        interval-timeout closes are performed by :meth:`step` but their
        horizons are reported by each gate's ``next_release`` (through
        the cores), so they are not repeated here.
        """
        if self.failed:
            return NEVER
        if self.state is PairState.WAIT_RECOVERY:
            at = self._recovery_at
            return at if at > now else now
        wake = NEVER
        vocal_gate: CheckGate = self.vocal.gate  # type: ignore[assignment]
        mute_gate: CheckGate = self.mute.gate  # type: ignore[assignment]
        a = vocal_gate.peek_closed()
        b = mute_gate.peek_closed()
        if a is not None and b is not None:
            return now  # a comparison happens on the very next step
        waiting = a if a is not None else b
        if waiting is not None:
            # One side is waiting on its partner; the watchdog fires one
            # cycle past the divergence timeout.
            at = waiting.close_cycle + self.redundancy.divergence_timeout + 1
            if at <= now:
                return now
            if at < wake:
                wake = at
        if self.vocal.sync_request is not None and self.mute.sync_request is not None:
            return now
        at = self._exit_single_step_at
        if at is not None:
            if at <= now:
                return now
            if at < wake:
                wake = at
        return wake

    # -- fingerprint comparison ------------------------------------------------
    def _compare_intervals(self, now: int) -> None:
        vocal_gate: CheckGate = self.vocal.gate  # type: ignore[assignment]
        mute_gate: CheckGate = self.mute.gate  # type: ignore[assignment]
        latency = self.redundancy.comparison_latency
        obs = self.obs
        vocal_closed = vocal_gate._closed
        mute_closed = mute_gate._closed
        vocal_retire = vocal_gate._retire_time
        mute_retire = mute_gate._retire_time
        # Both sides have a closed interval, so at least one comparison
        # happens below: the cores' cached skip horizons predate the
        # retire times being set here.
        self.vocal._skip_until = 0
        self.mute._skip_until = 0
        while vocal_closed and mute_closed:
            a = vocal_closed.popleft()
            b = mute_closed.popleft()
            ready = max(a.close_cycle, b.close_cycle) + latency
            matched = (
                a.fingerprint == b.fingerprint
                and a.count == b.count
                and a.has_halt == b.has_halt
            )
            if obs is not None:
                obs.emit(
                    "fingerprint.compare",
                    now,
                    self._obs_source,
                    index=a.index,
                    vocal_fp=a.fingerprint,
                    mute_fp=b.fingerprint,
                    count=a.count,
                    matched=matched,
                )
            if matched:
                # clear_interval on both gates, inlined.
                vocal_retire[a.index] = ready
                vocal_gate.fingerprints_compared += 1
                mute_retire[b.index] = ready
                mute_gate.fingerprints_compared += 1
                if self.state is PairState.SINGLE_STEP and (a.has_sync or a.has_halt):
                    # Recovery has made forward progress through the
                    # synchronizing access: resume normal execution.
                    self._exit_single_step_at = ready
                continue
            # Divergence detected when the fingerprints arrive.
            if obs is not None:
                if a.count != b.count or a.has_halt != b.has_halt:
                    why = "count"
                else:
                    why = "fingerprint"
                obs.emit(
                    "fingerprint.mismatch",
                    now,
                    self._obs_source,
                    index=a.index,
                    vocal_fp=a.fingerprint,
                    mute_fp=b.fingerprint,
                    vocal_count=a.count,
                    mute_count=b.count,
                    cause=why,
                )
            self._schedule_recovery(
                ready,
                escalate=self.state is PairState.SINGLE_STEP,
                cause="mismatch",
            )
            self.mismatch_recoveries += 1
            return

    def _evaluate_dynamic(self, now: int) -> None:
        """Döbel-style load-adaptive protection, decided at comparison points.

        Runs right after a mismatch-free comparison batch, NORMAL state
        only.  Load is the vocal's check-stage backlog (instructions
        buffered behind fingerprint exchange).  When it reaches
        ``off_threshold``, the next ``off_intervals`` fingerprint
        intervals — numbered from the *larger* of the two gates' next
        interval index, so neither side has closed any of them yet and
        both gates make the identical skip decision — go unchecked.
        After a window expires, the first comparison either extends the
        pause (backlog still above ``on_threshold``) or resumes checking.
        Deterministic: comparisons fire at identical cycles under both
        kernels, so the backlog snapshot is too.
        """
        state = self.protection_state
        vocal_gate: CheckGate = self.vocal.gate  # type: ignore[assignment]
        mute_gate: CheckGate = self.mute.gate  # type: ignore[assignment]
        index = vocal_gate._index
        if mute_gate._index > index:
            index = mute_gate._index
        if index < state.skip_until:
            return  # an off-window is still scheduled or active
        policy = self.policy
        backlog = len(vocal_gate._pending)
        if self._dyn_paused:
            if backlog > policy.on_threshold:
                # Still loaded: extend the pause with a fresh window.
                state.skip_from = index
                state.skip_until = index + policy.off_intervals
                if self.obs is not None:
                    self.obs.emit(
                        "protection.off",
                        now,
                        self._obs_source,
                        from_index=index,
                        until_index=state.skip_until,
                        backlog=backlog,
                    )
            else:
                self._dyn_paused = False
                self.protection_toggles += 1
                if self.obs is not None:
                    self.obs.emit(
                        "protection.on", now, self._obs_source, backlog=backlog
                    )
        elif backlog >= policy.off_threshold:
            self._dyn_paused = True
            self.protection_toggles += 1
            state.skip_from = index
            state.skip_until = index + policy.off_intervals
            if self.obs is not None:
                self.obs.emit(
                    "protection.off",
                    now,
                    self._obs_source,
                    from_index=index,
                    until_index=state.skip_until,
                    backlog=backlog,
                )

    def _schedule_recovery(self, at: int, escalate: bool, cause: str = "") -> None:
        self.state = PairState.WAIT_RECOVERY
        self._recovery_at = at
        self._recovery_escalate = escalate
        self._recovery_cause = cause
        self._exit_single_step_at = None

    # -- the re-execution protocol ------------------------------------------------
    def _begin_recovery(self, now: int) -> None:
        """Rollback both cores to safe state and enter single-step mode."""
        self.vocal._skip_until = 0
        self.mute._skip_until = 0
        if self._recovery_escalate and self.phase >= 2:
            # Phase two already failed: unrecoverable (fingerprint
            # aliasing let a soft error retire).  Signal failure.
            self.failed = True
            self.failures += 1
            self.vocal.halted = True
            self.mute.halted = True
            if self.obs is not None:
                self.obs.emit(
                    "recovery.failure",
                    now,
                    self._obs_source,
                    cause=self._recovery_cause,
                )
            return

        self.recoveries += 1
        self.recovery_log.append(
            (now, "phase2" if self._recovery_escalate else "phase1")
        )
        if self.obs is not None:
            self.obs.emit(
                "recovery.start",
                now,
                self._obs_source,
                phase=2 if self._recovery_escalate else 1,
                cause=self._recovery_cause,
            )
        # Retire everything already cleared by matching comparisons, so
        # both ARFs reflect the identical compared prefix.
        self.vocal.drain_cleared(now)
        self.mute.drain_cleared(now)

        resume = self.vocal.next_retire_pc()
        penalty = self.redundancy.rollback_penalty
        if self._recovery_escalate:
            # Phase two: initialize the mute ARF from the vocal
            # (Definition 9) and retry.
            self.phase = 2
            self.phase2_recoveries += 1
            self.mute.arf.copy_from(self.vocal.arf)
            penalty += self.redundancy.arf_copy_latency
        else:
            self.phase = 1

        for core in (self.vocal, self.mute):
            core.flush_for_recovery(resume, now, penalty)
            core.single_step = True
            core.gate.single_step = True  # type: ignore[attr-defined]
        if self.protection_state is not None:
            # The flushes restarted both gates' interval numbering at 0;
            # a stale dynamic off-window would alias the new numbering.
            self.protection_state.clear_window()
            self._dyn_paused = False
        if self.obs is not None:
            self.obs.emit(
                "recovery.rollback",
                now,
                self._obs_source,
                resume_pc=resume,
                penalty=penalty,
            )
        self.state = PairState.SINGLE_STEP
        self._exit_single_step_at = None

    def _exit_single_step(self, now: int) -> None:
        for core in (self.vocal, self.mute):
            core.single_step = False
            core.gate.single_step = False  # type: ignore[attr-defined]
            core._skip_until = 0
        if self.obs is not None:
            self.obs.emit(
                "recovery.resume", now, self._obs_source, phase=self.phase
            )
        self.state = PairState.NORMAL
        self.phase = 0
        self._exit_single_step_at = None

    # -- synchronizing requests ---------------------------------------------------
    def _service_sync_requests(self, now: int) -> None:
        """Perform one coherent access on behalf of both cores.

        Atomics park in ``sync_request`` whenever they reach the head of
        their core's ROB; during single-step, the first load does too.
        The access happens once, when both cores have arrived.
        """
        vocal_entry = self.vocal.sync_request
        mute_entry = self.mute.sync_request
        if vocal_entry is None or mute_entry is None:
            return
        same_operation = (
            vocal_entry.pc == mute_entry.pc
            and vocal_entry.inst is mute_entry.inst
            and vocal_entry.addr == mute_entry.addr
            and vocal_entry.val2 == mute_entry.val2
        )
        if not same_operation:
            # The cores disagree before a non-idempotent operation even
            # executes: recover now, before anything becomes visible.
            self.vocal.sync_request = None
            self.mute.sync_request = None
            self.vocal._skip_until = 0
            self.mute._skip_until = 0
            self.mismatch_recoveries += 1
            self._schedule_recovery(
                now,
                escalate=self.state is PairState.SINGLE_STEP,
                cause="sync_divergence",
            )
            return

        self.sync_requests += 1
        if self.obs is not None:
            self.obs.emit(
                "sync.request",
                now,
                self._obs_source,
                pc=vocal_entry.pc,
                addr=vocal_entry.addr,
                op=vocal_entry.inst.op.name,
            )
        addr = vocal_entry.addr
        line_shift = self.config.l1.line_bytes.bit_length() - 1
        reply = self.controller.synchronizing_access(
            self.vocal.core_id, self.mute.core_id, addr >> line_shift, now
        )
        offset = (addr >> 3) & (self.config.l1.line_bytes // 8 - 1)
        old_value = reply.data[offset]

        op = vocal_entry.inst.op
        if op in (Op.ATOMIC, Op.CAS):
            rd_value, new_value = atomic_result(
                op, old_value, vocal_entry.val2 or 0, vocal_entry.inst.imm
            )
            if new_value is not None:
                # Both L1s hold the line with write permission after the
                # synchronizing fill; the single RMW updates both.
                self.vocal.port.rmw_write(addr, new_value)
                self.mute.port.rmw_write(addr, new_value)
            value = rd_value
        else:
            value = old_value

        vocal_entry.was_sync = True
        mute_entry.was_sync = True
        self.vocal.complete_sync(vocal_entry, value, reply.done)
        self.mute.complete_sync(mute_entry, value, reply.done)

    # -- external interrupts -----------------------------------------------------
    def post_interrupt(self, handler: list[Instruction] | None = None) -> int:
        """Replicate an external interrupt to both cores (Section 4.3).

        The vocal chooses a fingerprint-interval boundary far enough out
        that neither core has retired past it; both cores service the
        interrupt after comparing and retiring the preceding
        instructions.  Returns the chosen user-instruction count.
        """
        if handler is None:
            handler = default_interrupt_handler()
        margin = (
            self.config.core.rob_size
            + self.redundancy.fingerprint_interval
            + 2 * self.config.core.width
        )
        target = max(self.vocal.user_retired, self.mute.user_retired) + margin
        self.vocal.schedule_interrupt(target, handler)
        self.mute.schedule_interrupt(target, handler)
        if self.obs is not None:
            self.obs.emit(
                "interrupt.post",
                None,
                self._obs_source,
                target=target,
                handler_len=len(handler),
            )
        return target

    # -- watchdog --------------------------------------------------------------------
    def _watchdog(self, now: int) -> None:
        """Detect one-sided divergence (a partner that stops checking in)."""
        vocal_gate: CheckGate = self.vocal.gate  # type: ignore[assignment]
        mute_gate: CheckGate = self.mute.gate  # type: ignore[assignment]
        a = vocal_gate.peek_closed()
        b = mute_gate.peek_closed()
        timeout = self.redundancy.divergence_timeout
        waiting = a if (a is not None and b is None) else b if (b is not None and a is None) else None
        if waiting is not None and now - waiting.close_cycle > timeout:
            self.timeout_recoveries += 1
            self._schedule_recovery(
                now,
                escalate=self.state is PairState.SINGLE_STEP,
                cause="timeout",
            )

    # -- reporting ---------------------------------------------------------------------
    def collect_stats(self, stats, prefix: str = "") -> None:
        base = prefix or f"pair{self.pair_id}."
        stats.set(base + "recoveries", self.recoveries)
        stats.set(base + "mismatch_recoveries", self.mismatch_recoveries)
        stats.set(base + "timeout_recoveries", self.timeout_recoveries)
        stats.set(base + "phase2_recoveries", self.phase2_recoveries)
        stats.set(base + "sync_requests", self.sync_requests)
        stats.set(base + "failures", self.failures)
        if self.protection_state is not None:
            # Partial policies only: full/little-mute pairs report
            # nothing here, keeping their snapshots byte-identical to
            # the pre-policy ones.
            stats.set(
                base + "unchecked_intervals",
                self.vocal.gate.intervals_unchecked,
            )
            stats.set(base + "protection_toggles", self.protection_toggles)
