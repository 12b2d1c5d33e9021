"""Property-based differential testing: random programs, golden results.

Hypothesis generates random (terminating) programs over the safe subset
of the ISA; the full out-of-order timing pipeline must leave exactly the
architectural state the in-order reference interpreter computes —
registers and memory — regardless of speculation, forwarding, cache
behavior, or TLB activity.  This is the strongest single check on the
pipeline's value accuracy, which everything in Reunion depends on.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import NUM_REGS, Instruction, Op, Program
from repro.isa.interpreter import run as golden_run
from tests.pipeline.helpers import build_core, memory_words, run_to_halt

# Register conventions for generated programs:
#   r1  loop counter          r2  data base pointer
#   r3..r11 data registers (sources and destinations)
LOOP_REG = 1
BASE_REG = 2
DATA_REGS = list(range(3, 12))
DATA_BASE = 0x2000
DATA_WORDS = 16  # offsets 0..120

alu_ops = st.sampled_from([Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.MUL, Op.SLT])
imm_ops = st.sampled_from([Op.ADDI, Op.ANDI, Op.ORI, Op.XORI])
branch_ops = st.sampled_from([Op.BEQ, Op.BNE, Op.BLT, Op.BGE])
data_reg = st.sampled_from(DATA_REGS)
offset = st.integers(min_value=0, max_value=DATA_WORDS - 1).map(lambda i: i * 8)


@st.composite
def body_instruction(draw):
    """One random body instruction descriptor."""
    kind = draw(
        st.sampled_from(
            ["alu", "alu", "alu", "imm", "load", "store", "branch", "serial", "atomic"]
        )
    )
    if kind == "alu":
        return ("alu", draw(alu_ops), draw(data_reg), draw(data_reg), draw(data_reg))
    if kind == "imm":
        return (
            "imm",
            draw(imm_ops),
            draw(data_reg),
            draw(data_reg),
            draw(st.integers(min_value=-100, max_value=100)),
        )
    if kind == "load":
        return ("load", draw(data_reg), draw(offset))
    if kind == "store":
        return ("store", draw(data_reg), draw(offset))
    if kind == "branch":
        # Forward skip over one instruction, resolved at build time.
        return ("branch", draw(branch_ops), draw(data_reg), draw(data_reg))
    if kind == "atomic":
        return ("atomic", draw(data_reg), draw(data_reg), draw(offset))
    return ("serial", draw(st.sampled_from([Op.MEMBAR, Op.TRAP, Op.MMUOP])))


@st.composite
def random_program(draw):
    """A terminating program: prologue, random body, countdown epilogue."""
    iterations = draw(st.integers(min_value=1, max_value=4))
    body = draw(st.lists(body_instruction(), min_size=1, max_size=25))
    seeds = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**16),
            min_size=len(DATA_REGS),
            max_size=len(DATA_REGS),
        )
    )
    return build_program(iterations, body, seeds)


def seeded_random_program(seed: int) -> Program:
    """The :func:`random_program` distribution, drawn from a seeded RNG.

    Same descriptor vocabulary and bounds, but independent of the
    Hypothesis version, so a corpus of these programs stays fixed for
    golden digests.
    """
    rng = random.Random(seed)
    alu = [Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.MUL, Op.SLT]
    imm = [Op.ADDI, Op.ANDI, Op.ORI, Op.XORI]
    branches = [Op.BEQ, Op.BNE, Op.BLT, Op.BGE]

    def reg() -> int:
        return rng.choice(DATA_REGS)

    def off() -> int:
        return rng.randrange(DATA_WORDS) * 8

    def descriptor() -> tuple:
        kind = rng.choice(
            ["alu", "alu", "alu", "imm", "load", "store", "branch", "serial", "atomic"]
        )
        if kind == "alu":
            return ("alu", rng.choice(alu), reg(), reg(), reg())
        if kind == "imm":
            return ("imm", rng.choice(imm), reg(), reg(), rng.randint(-100, 100))
        if kind == "load":
            return ("load", reg(), off())
        if kind == "store":
            return ("store", reg(), off())
        if kind == "branch":
            return ("branch", rng.choice(branches), reg(), reg())
        if kind == "atomic":
            return ("atomic", reg(), reg(), off())
        return ("serial", rng.choice([Op.MEMBAR, Op.TRAP, Op.MMUOP]))

    iterations = rng.randint(1, 4)
    body = [descriptor() for _ in range(rng.randint(1, 25))]
    seeds = [rng.randint(0, 2**16) for _ in DATA_REGS]
    return build_program(iterations, body, seeds, name=f"random/{seed}")


def build_program(
    iterations: int, body: list[tuple], seeds: list[int], name: str = "random"
) -> Program:
    """Assemble body descriptors into a terminating countdown loop."""
    instructions = [
        Instruction(Op.MOVI, rd=LOOP_REG, imm=iterations),
        Instruction(Op.MOVI, rd=BASE_REG, imm=DATA_BASE),
    ]
    for reg, seed in zip(DATA_REGS, seeds):
        instructions.append(Instruction(Op.MOVI, rd=reg, imm=seed))
    loop_start = len(instructions)

    for descriptor in body:
        kind = descriptor[0]
        if kind == "alu":
            _, op, rd, rs1, rs2 = descriptor
            instructions.append(Instruction(op, rd=rd, rs1=rs1, rs2=rs2))
        elif kind == "imm":
            _, op, rd, rs1, imm = descriptor
            instructions.append(Instruction(op, rd=rd, rs1=rs1, imm=imm))
        elif kind == "load":
            _, rd, off = descriptor
            instructions.append(Instruction(Op.LOAD, rd=rd, rs1=BASE_REG, imm=off))
        elif kind == "store":
            _, rs, off = descriptor
            instructions.append(Instruction(Op.STORE, rs2=rs, rs1=BASE_REG, imm=off))
        elif kind == "branch":
            _, op, rs1, rs2 = descriptor
            # Skip exactly the next instruction (a nop filler).
            instructions.append(
                Instruction(op, rs1=rs1, rs2=rs2, target=len(instructions) + 2)
            )
            instructions.append(Instruction(Op.NOP))
        elif kind == "atomic":
            _, rd, rs2, off = descriptor
            instructions.append(
                Instruction(Op.ATOMIC, rd=rd, rs1=BASE_REG, rs2=rs2, imm=off)
            )
        else:
            instructions.append(Instruction(descriptor[1]))

    instructions.append(Instruction(Op.ADDI, rd=LOOP_REG, rs1=LOOP_REG, imm=-1))
    instructions.append(
        Instruction(Op.BNE, rs1=LOOP_REG, rs2=0, target=loop_start)
    )
    instructions.append(Instruction(Op.HALT))
    image = {DATA_BASE + 8 * i: (i * 0x1234 + 1) for i in range(DATA_WORDS)}
    return Program(instructions=instructions, memory_image=image, name=name)


@given(program=random_program())
@settings(max_examples=60, deadline=None)
def test_pipeline_matches_interpreter(program):
    golden = golden_run(program, max_instructions=50_000)
    assert golden.halted, "generated program must terminate"

    core, memory, _ = build_core(program)
    run_to_halt(core, max_cycles=300_000)

    for reg in range(NUM_REGS):
        assert core.arf.read(reg) == golden.registers.read(reg), f"r{reg} differs"
    watch = [DATA_BASE + 8 * i for i in range(DATA_WORDS)]
    got = memory_words(core, memory, watch)
    for addr in watch:
        assert got[addr] == golden.memory.get(addr, 0), f"M[{addr:#x}] differs"
    assert core.user_retired == golden.retired
