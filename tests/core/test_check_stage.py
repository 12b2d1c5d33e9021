"""Unit tests for the check gate and strict oracle gate.

Entries are hand-filled ring slots of a real core (the columns the
pipeline writes before it offers an instruction), offered and released
through the gates' flat protocol exactly as the core's retire loop does.
"""

from repro.core.check_stage import CheckGate
from repro.core.strict import StrictCheckGate
from repro.isa import Instruction, Op, assemble
from repro.isa.decode import flags_of
from repro.pipeline.flat import M_INJECTED
from repro.sim.config import RedundancyConfig
from tests.pipeline.helpers import build_core

CORE, _, _ = build_core(assemble("halt"))


def make_entry(seq, op=Op.ADD, injected=False, result=1):
    """Fill ``seq``'s ring slot with a completed instruction; return the slot."""
    if op is Op.ADD:
        inst = Instruction(op, rd=1, rs1=2, rs2=3)
    else:
        inst = Instruction(op)
    slot = seq & CORE._f_smask
    CORE.f_seq[slot] = seq
    CORE.f_inst[slot] = inst
    CORE.f_flags[slot] = flags_of(inst, CORE.sc_mode)
    CORE.f_mask[slot] = M_INJECTED if injected else 0
    CORE.f_res[slot] = result
    CORE.f_addr[slot] = None
    CORE.f_sval[slot] = None
    CORE.f_anext[slot] = None
    return slot


def offer(gate, seq, now, **fields):
    gate.offer_f(CORE, make_entry(seq, **fields), now)


def pop(gate, now, limit):
    """Seqs of the refs the gate releases at ``now``."""
    return [packed >> CORE._f_sbits for packed in gate.pop_retirable_f(CORE, now, limit)]


def squash(seq):
    CORE.f_seq[seq & CORE._f_smask] = -1  # freeing the slot is the squash mark


class TestCheckGate:
    def test_interval_closes_at_interval_length(self):
        gate = CheckGate(RedundancyConfig(fingerprint_interval=2))
        offer(gate, 0, now=0)
        assert gate.peek_closed() is None
        offer(gate, 1, now=1)
        record = gate.peek_closed()
        assert record is not None and record.count == 2

    def test_serializing_closes_interval_early(self):
        gate = CheckGate(RedundancyConfig(fingerprint_interval=50))
        offer(gate, 0, now=0)
        offer(gate, 1, now=1, op=Op.MEMBAR, result=None)
        record = gate.peek_closed()
        assert record is not None and record.count == 2

    def test_halt_closes_interval(self):
        gate = CheckGate(RedundancyConfig(fingerprint_interval=50))
        offer(gate, 0, now=0, op=Op.HALT, result=None)
        record = gate.peek_closed()
        assert record is not None and record.has_halt

    def test_entries_wait_for_clear(self):
        gate = CheckGate(RedundancyConfig(fingerprint_interval=1))
        offer(gate, 0, now=0)
        assert pop(gate, now=100, limit=4) == []
        record = gate.pop_closed()
        gate.clear_interval(record.index, retire_time=10)
        assert pop(gate, now=9, limit=4) == []
        assert pop(gate, now=10, limit=4) == [0]

    def test_injected_entries_transparent(self):
        gate = CheckGate(RedundancyConfig(fingerprint_interval=1, comparison_latency=10))
        offer(gate, 0, now=0)
        offer(gate, 1, now=0, op=Op.NOP, injected=True, result=None)
        # The injected instruction cannot retire past the unchecked user entry.
        assert pop(gate, now=100, limit=4) == []
        record = gate.pop_closed()
        assert record.count == 1  # handler not fingerprinted
        gate.clear_interval(record.index, retire_time=5)
        assert pop(gate, now=5, limit=4) == [0, 1]

    def test_injected_serializing_pays_comparison_latency(self):
        """Handler traps/MMU ops stall a full comparison latency (Sec 4.4)."""
        gate = CheckGate(RedundancyConfig(fingerprint_interval=1, comparison_latency=10))
        offer(gate, 0, now=20, op=Op.TRAP, injected=True, result=None)
        assert pop(gate, now=29, limit=4) == []
        assert len(pop(gate, now=30, limit=4)) == 1

    def test_single_step_closes_every_instruction(self):
        gate = CheckGate(RedundancyConfig(fingerprint_interval=50))
        gate.single_step = True
        offer(gate, 0, now=0)
        assert gate.peek_closed() is not None

    def test_timeout_close(self):
        config = RedundancyConfig(fingerprint_interval=10)
        gate = CheckGate(config)
        offer(gate, 0, now=0)
        gate.maybe_timeout_close(now=5)
        assert gate.peek_closed() is None
        gate.maybe_timeout_close(now=100)
        record = gate.peek_closed()
        assert record is not None and record.count == 1

    def test_flush_resets_everything(self):
        gate = CheckGate(RedundancyConfig(fingerprint_interval=1))
        offer(gate, 0, now=0)
        gate.flush()
        assert gate.peek_closed() is None
        assert pop(gate, now=100, limit=4) == []
        # Interval numbering restarts from zero after recovery.
        offer(gate, 1, now=5)
        assert gate.peek_closed().index == 0

    def test_squashed_entries_skipped(self):
        gate = CheckGate(RedundancyConfig(fingerprint_interval=1))
        offer(gate, 0, now=0)
        record = gate.pop_closed()
        gate.clear_interval(record.index, retire_time=0)
        squash(0)
        assert gate.has_retirable_f(CORE, now=10)  # the pop must discard it
        assert pop(gate, now=10, limit=4) == []

    def test_identical_streams_produce_identical_records(self):
        config = RedundancyConfig(fingerprint_interval=3)
        gate_a, gate_b = CheckGate(config), CheckGate(config)
        for gate in (gate_a, gate_b):
            for seq in range(6):
                offer(gate, seq, now=seq, result=seq * 7)
        while True:
            a, b = gate_a.peek_closed(), gate_b.peek_closed()
            if a is None:
                assert b is None
                break
            assert (a.fingerprint, a.count, a.index) == (b.fingerprint, b.count, b.index)
            gate_a.pop_closed()
            gate_b.pop_closed()

    def test_different_values_produce_different_fingerprints(self):
        config = RedundancyConfig(fingerprint_interval=1)
        gate_a, gate_b = CheckGate(config), CheckGate(config)
        offer(gate_a, 0, now=0, result=1)
        offer(gate_b, 0, now=0, result=2)
        assert gate_a.peek_closed().fingerprint != gate_b.peek_closed().fingerprint


class TestStrictGate:
    def test_self_clears_after_latency(self):
        gate = StrictCheckGate(RedundancyConfig(fingerprint_interval=1, comparison_latency=10))
        offer(gate, 0, now=5)
        assert pop(gate, now=14, limit=4) == []
        assert len(pop(gate, now=15, limit=4)) == 1

    def test_zero_latency_clears_immediately(self):
        gate = StrictCheckGate(RedundancyConfig(fingerprint_interval=1, comparison_latency=0))
        offer(gate, 0, now=5)
        assert len(pop(gate, now=5, limit=4)) == 1

    def test_interval_batching(self):
        gate = StrictCheckGate(RedundancyConfig(fingerprint_interval=4, comparison_latency=10))
        for seq in range(3):
            offer(gate, seq, now=seq)
        assert pop(gate, now=50, limit=8) == []  # interval still open
        offer(gate, 3, now=3)
        assert len(pop(gate, now=13, limit=8)) == 4
