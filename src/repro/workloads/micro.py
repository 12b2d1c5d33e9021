"""Microbenchmarks: targeted stressors for specific machine behaviours.

These are not part of the paper's Table 2 suite; they exist to isolate
one mechanism at a time — the way an architect would probe a design:

* :class:`PointerChase` — a dependent load chain through a randomized
  linked list: pure memory latency, no MLP.  Sensitive to check-stage
  retirement delay, insensitive to comparison bandwidth.
* :class:`Stream` — a sequential read-modify-write sweep: bandwidth and
  MLP bound, the workload most hurt by ROB occupancy.
* :class:`LockContention` — every core hammers fetch-add on a handful of
  shared locks: the worst case for Reunion's pair-synchronized atomics
  and for serializing stalls generally.
* :class:`FalseSharing` — cores write disjoint words of the same cache
  lines: an invalidation storm that maximizes input-incoherence
  opportunities for the mute caches.
* :class:`ComputeKernel` — a dense ALU/branch loop with no memory
  accesses at all: the pure-compute pole of the workload space, where
  redundant execution's cost is all pipeline simulation (the worst
  case for cycle skipping).
"""

from __future__ import annotations

import random

from repro.isa.builder import ProgramBuilder
from repro.isa.opcodes import Op
from repro.isa.program import Program
from repro.workloads.base import Workload

MICRO_BASE = 0x0D00_0000
MICRO_SHARED = 0x0E00_0000


class PointerChase(Workload):
    """Chase a randomized singly-linked list: one load depends on the last."""

    name = "pointer-chase"
    category = "Micro"

    def __init__(self, nodes: int = 512, chases_per_iteration: int = 64) -> None:
        self.nodes = nodes
        self.chases = chases_per_iteration

    def programs(self, n_logical: int, seed: int = 0) -> list[Program]:
        rng = random.Random(0xC4A5E ^ seed)
        programs = []
        for core in range(n_logical):
            base = MICRO_BASE + core * 0x0010_0000
            order = list(range(self.nodes))
            rng.shuffle(order)
            image = {}
            for position, node in enumerate(order):
                succ = order[(position + 1) % self.nodes]
                image[base + node * 8] = base + succ * 8
            builder = ProgramBuilder(name=f"pointer-chase/cpu{core}")
            builder.reg(1, base + order[0] * 8)
            builder.label("loop")
            for _ in range(self.chases):
                builder.load(1, 1)  # r1 <- M[r1]: the chain
            builder.jump("loop")
            program = builder.build()
            program.memory_image.update(image)
            programs.append(program)
        return programs


class Stream(Workload):
    """Sequential sweep: load, add, store, advance — maximal MLP."""

    name = "stream"
    category = "Micro"

    def __init__(self, footprint_bytes: int = 64 * 1024, unroll: int = 32) -> None:
        self.footprint = footprint_bytes
        self.unroll = unroll

    def programs(self, n_logical: int, seed: int = 0) -> list[Program]:
        programs = []
        mask = (self.footprint - 1) & ~0x7
        for core in range(n_logical):
            base = MICRO_BASE + core * 0x0010_0000
            builder = ProgramBuilder(name=f"stream/cpu{core}")
            builder.reg(1, base)
            builder.reg(2, 0)  # offset
            builder.label("loop")
            builder.add(3, 1, 2)
            for i in range(self.unroll):
                builder.load(4 + (i % 4), 3, i * 8)
                builder.addi(4 + (i % 4), 4 + (i % 4), 1)
                builder.store(4 + (i % 4), 3, i * 8)
            builder.addi(2, 2, self.unroll * 8)
            builder.alu(Op.ANDI, 2, 2, imm=mask)
            builder.jump("loop")
            programs.append(builder.build())
        return programs


class LockContention(Workload):
    """All cores fetch-add the same few locks, then spin briefly."""

    name = "lock-contention"
    category = "Micro"

    def __init__(self, locks: int = 2, work_between: int = 16) -> None:
        self.locks = locks
        self.work = work_between

    def programs(self, n_logical: int, seed: int = 0) -> list[Program]:
        programs = []
        for core in range(n_logical):
            builder = ProgramBuilder(name=f"lock-contention/cpu{core}")
            builder.reg(2, 1)
            builder.label("loop")
            for lock in range(self.locks):
                builder.movi(1, MICRO_SHARED + lock * 64)
                builder.atomic(3, 1, 2)  # fetch-add the lock word
                for i in range(self.work):
                    builder.add(4 + (i % 4), 4 + (i % 4), 3)
            builder.jump("loop")
            programs.append(builder.build())
        return programs


class FalseSharing(Workload):
    """Each core writes its own word of shared lines: invalidation storm."""

    name = "false-sharing"
    category = "Micro"

    def __init__(self, lines: int = 8, writes_per_line: int = 4) -> None:
        self.lines = lines
        self.writes = writes_per_line

    def programs(self, n_logical: int, seed: int = 0) -> list[Program]:
        programs = []
        for core in range(n_logical):
            builder = ProgramBuilder(name=f"false-sharing/cpu{core}")
            word = core % 8  # each core's private word within every line
            builder.reg(2, 0)
            builder.label("loop")
            builder.addi(2, 2, 1)
            for line in range(self.lines):
                builder.movi(1, MICRO_SHARED + line * 64 + word * 8)
                for _ in range(self.writes):
                    builder.store(2, 1)
                    builder.load(3, 1)
            builder.jump("loop")
            programs.append(builder.build())
        return programs


class ComputeKernel(Workload):
    """Dependent ALU work and data-dependent branches; zero memory traffic.

    Every instruction is register-to-register, so a Reunion pair's cores
    never interact with the memory system: the workload isolates the raw
    cost of simulating redundant pipelines.
    """

    name = "compute-kernel"
    category = "Micro"

    def __init__(self, unroll: int = 12) -> None:
        self.unroll = unroll

    def programs(self, n_logical: int, seed: int = 0) -> list[Program]:
        programs = []
        for core in range(n_logical):
            builder = ProgramBuilder(name=f"compute-kernel/cpu{core}")
            builder.reg(1, 3)
            builder.reg(2, (seed * 2654435761 + core * 40503 + 1) & 0xFFFF)
            builder.label("loop")
            builder.addi(6, 6, 1)
            builder.alu(Op.ANDI, 7, 6, imm=3)
            builder.beq(7, 0, "mix")  # taken every 4th trip: predictor work
            for i in range(self.unroll):
                builder.add(3 + (i % 3), 3 + (i % 3), 1 + (i % 2))
            builder.jump("loop")
            builder.label("mix")
            for i in range(self.unroll):
                builder.alu(Op.MUL, 3 + (i % 3), 3 + (i % 3), rs2=2)
                builder.alu(Op.ANDI, 3 + (i % 3), 3 + (i % 3), imm=0xFFFFFF)
            builder.jump("loop")
            programs.append(builder.build())
        return programs


def micro_suite() -> list[Workload]:
    return [PointerChase(), Stream(), LockContention(), FalseSharing(), ComputeKernel()]
