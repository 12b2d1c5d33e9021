"""Interrupt replication and single-step recovery under the event kernel.

The cycle-skipping kernel is the default, so the two pair-level
protocols with the most intricate timing, external interrupts
(Section 4.3) and the single-step re-execution protocol (Section 4.2),
get direct coverage here under the event kernel and against the naive
one rather than relying on the naive kernel alone.
"""

from __future__ import annotations

from repro.core.pair import PairState, default_interrupt_handler
from repro.isa import assemble
from repro.isa.interpreter import run as golden_run
from repro.sim.cmp import CMPSystem
from repro.sim.config import Mode, PhantomStrength
from repro.sim.options import SimOptions
from tests.core.helpers import SMALL

#: Loadless loop: an interrupt posted mid-run lands in a steady stream
#: of ALU work.
COMPUTE = """
    movi r1, 800
    movi r2, 1
    movi r3, 7
loop:
    add r2, r2, r3
    add r4, r2, r1
    add r3, r3, r4
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""

#: Cold loads of preloaded data followed by an atomic and more work: with
#: null phantom requests the mute's fills observe stale values, forcing a
#: phase-1 recovery; the atomic afterwards is the synchronizing access
#: through which single-step mode makes forward progress and exits.
INCOHERENT_THEN_SYNC = """
    .word 0x800 3
    .word 0x840 5
    movi r1, 0x800
    load r2, [r1]
    load r3, [r1+64]
    mul r4, r2, r3
    movi r6, 0x900
    atomic r5, [r6], r2
    addi r7, r4, 1
    add r7, r7, r5
    halt
"""


def _config(phantom: PhantomStrength = PhantomStrength.GLOBAL):
    return SMALL.replace(n_logical=1).with_redundancy(
        mode=Mode.REUNION,
        comparison_latency=10,
        fingerprint_interval=8,
        phantom=phantom,
    )


def _vocal_state(system: CMPSystem) -> dict:
    vocal = system.vocal_cores[0]
    return {
        "arf": [vocal.arf.read(reg) for reg in range(8)],
        "user_retired": vocal.user_retired,
        "interrupts_serviced": vocal.interrupts_serviced,
        "injected_retired": vocal.injected_retired,
        "recovery_log": list(system.pairs[0].recovery_log),
        "now": system.now,
    }


class TestPostInterruptEventKernel:
    def test_interrupt_mid_run(self):
        """An interrupt posted mid-run is serviced once by both cores."""
        system = CMPSystem(
            _config(),
            [assemble(COMPUTE)],
            options=SimOptions.from_env(kernel="event"),
        )
        system.run(300)
        pair = system.pairs[0]
        target = pair.post_interrupt()
        # The chosen boundary is beyond both cores' retirement point.
        assert target > max(core.user_retired for core in system.cores)
        system.run_until_idle(max_cycles=500_000)
        vocal, mute = system.cores
        assert vocal.interrupts_serviced == 1
        assert mute.interrupts_serviced == 1
        assert vocal.injected_retired == len(default_interrupt_handler())
        assert mute.injected_retired == vocal.injected_retired
        assert target <= vocal.user_retired
        assert system.recoveries() == 0

    def test_interrupt_timing_matches_naive_kernel(self):
        """The event kernel must service the replicated interrupt at the
        same cycle and program point as per-cycle simulation."""

        def scenario(kernel):
            system = CMPSystem(
                _config(),
                [assemble(COMPUTE)],
                options=SimOptions.from_env(kernel=kernel),
            )
            system.run(300)
            system.post_interrupt(0)
            system.run_until_idle(max_cycles=500_000)
            return system

        assert _vocal_state(scenario("event")) == _vocal_state(scenario("naive"))

    def test_interrupt_preserves_program_results(self):
        golden = golden_run(assemble(COMPUTE))
        system = CMPSystem(
            _config(),
            [assemble(COMPUTE)],
            options=SimOptions.from_env(kernel="event"),
        )
        system.run(300)
        system.post_interrupt(0)
        system.run_until_idle(max_cycles=500_000)
        vocal = system.vocal_cores[0]
        for reg in range(8):
            assert vocal.arf.read(reg) == golden.registers.read(reg)
        assert vocal.user_retired == golden.retired
        assert vocal.arf == system.cores[1].arf


class TestSingleStepRecoveryEventKernel:
    def _run_to_recovery(self) -> CMPSystem:
        system = CMPSystem(
            _config(phantom=PhantomStrength.NULL),
            [assemble(INCOHERENT_THEN_SYNC)],
            options=SimOptions.from_env(kernel="event"),
        )
        pair = system.pairs[0]
        for _ in range(2_000):
            system.run(5)
            if pair.state is PairState.SINGLE_STEP:
                break
        return system

    def test_enters_and_exits_single_step(self):
        system = self._run_to_recovery()
        pair = system.pairs[0]
        assert pair.state is PairState.SINGLE_STEP
        # Both cores (and their gates) are in one-instruction-interval mode.
        for core in system.cores:
            assert core.single_step
            assert core.gate.single_step
        system.run_until_idle(max_cycles=500_000)
        # Forward progress through the synchronizing atomic released the
        # pair back to normal pipelined execution before the halt.
        assert pair.state is PairState.NORMAL
        assert pair.phase == 0
        for core in system.cores:
            assert not core.single_step
            assert not core.gate.single_step

    def test_recovery_restores_correct_results(self):
        """Phase-1 rollback + single-step must converge on the coherent
        (golden-interpreter) values despite the mute's stale fills."""
        golden = golden_run(assemble(INCOHERENT_THEN_SYNC))
        system = CMPSystem(
            _config(phantom=PhantomStrength.NULL),
            [assemble(INCOHERENT_THEN_SYNC)],
            options=SimOptions.from_env(kernel="event"),
        )
        system.run_until_idle(max_cycles=500_000)
        pair = system.pairs[0]
        assert pair.recoveries >= 1
        assert not pair.failed
        assert any(kind == "phase1" for _, kind in pair.recovery_log)
        vocal = system.vocal_cores[0]
        for reg in range(8):
            assert vocal.arf.read(reg) == golden.registers.read(reg)
        assert vocal.arf == system.cores[1].arf

    def test_recovery_timing_matches_naive_kernel(self):
        """Cycle-skipping may not move a recovery: same recovery log
        (cycle + phase), same end state as the per-cycle kernel."""

        def scenario(kernel):
            system = CMPSystem(
                _config(phantom=PhantomStrength.NULL),
                [assemble(INCOHERENT_THEN_SYNC)],
                options=SimOptions.from_env(kernel=kernel),
            )
            system.run_until_idle(max_cycles=500_000)
            return system

        event, naive = scenario("event"), scenario("naive")
        assert _vocal_state(event) == _vocal_state(naive)
        assert event.pairs[0].recoveries == naive.pairs[0].recoveries
