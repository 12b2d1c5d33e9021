"""Scenarios behind the core-pipeline golden digests.

Each scenario builds and drives one :class:`~repro.sim.cmp.CMPSystem`
under explicit :class:`~repro.sim.options.SimOptions` and a config that
no ``REPRO_*`` variable can retarget, so a digest means the same thing
on every CI leg.  :func:`digest` reduces a finished run to what the
equivalence contract covers: the ``_observe`` dict of
``tests/sim/test_replay_exec.py`` plus, per vocal core, the SHA-256 of
its user commit stream (:class:`CommitProbe`).

``tests/sim/record_goldens.py`` writes the digests to
``tests/sim/goldens/``; ``tests/sim/test_hotloop.py`` replays them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from repro.core.faults import FaultInjector
from repro.exec.jobs import resolve_workload
from repro.isa import assemble
from repro.isa.builder import ProgramBuilder
from repro.isa.opcodes import Op
from repro.sim import MANYCORE_8
from repro.sim.cmp import CMPSystem
from repro.sim.config import (
    BusConfig,
    CacheStyle,
    CoherenceStyle,
    CoreConfig,
    L1Config,
    L2Config,
    MemoryConfig,
    Mode,
    PhantomStrength,
    ProtectionPolicy,
    RedundancyConfig,
    SystemConfig,
    TLBConfig,
)
from repro.sim.options import SimOptions
from repro.workloads.base import hashed_schedule
from repro.workloads.micro import MICRO_BASE, PointerChase
from tests.pipeline.test_differential_random import seeded_random_program
from tests.sim.test_replay_exec import MIXED, _observe

#: ``tests.core.helpers.SMALL`` without the REPRO_COHERENCE retargeting.
BASE = SystemConfig(
    n_logical=1,
    core=CoreConfig(width=4, rob_size=32, store_buffer_size=8, frontend_latency=3),
    l1=L1Config(size_bytes=1024, assoc=2, load_to_use=2, mshrs=4),
    l2=L2Config(size_bytes=16 * 1024, assoc=8, banks=2, hit_latency=8, mshrs=8),
    tlb=TLBConfig(itlb_entries=8, dtlb_entries=16, page_bits=10, hw_fill_latency=10),
    memory=MemoryConfig(latency=40),
    redundancy=RedundancyConfig(divergence_timeout=2000),
)

COHERENCE = {
    "shared": {"cache_style": CacheStyle.SHARED},
    "snoopy": {
        "cache_style": CacheStyle.SNOOPY,
        "bus": BusConfig(coherence=CoherenceStyle.SNOOPY),
    },
    "directory": {
        "cache_style": CacheStyle.SNOOPY,
        "bus": BusConfig(coherence=CoherenceStyle.DIRECTORY),
    },
}

CHASE = PointerChase(nodes=48, chases_per_iteration=6)
FAULT_TARGETS = ("result", "store_addr", "branch_target")


def pair_config(fingerprint_interval: int = 8) -> SystemConfig:
    """One REUNION pair: the configuration the loop scenarios share."""
    return BASE.with_redundancy(
        mode=Mode.REUNION,
        comparison_latency=10,
        fingerprint_interval=fingerprint_interval,
        phantom=PhantomStrength.GLOBAL,
    )


@dataclass(frozen=True)
class Scenario:
    """One recorded run: how to build it, drive it and sanity-check it."""

    name: str
    kernel: str
    execution: str
    build: Callable[[SimOptions], CMPSystem]
    drive: Callable[[CMPSystem], None]
    #: Asserts that the run reached the paths it exists to cover, so a
    #: digest that still matches cannot hide a scenario gone vacuous.
    sanity: Callable[[CMPSystem], None] | None = None


def _until_idle(system: CMPSystem) -> None:
    system.run_until_idle(max_cycles=500_000)


def _for(cycles: int) -> Callable[[CMPSystem], None]:
    return lambda system: system.run(cycles)


def _pair_system(program, fault=None, fingerprint_interval=8, itlb=None):
    def build(options: SimOptions) -> CMPSystem:
        system = CMPSystem(
            pair_config(fingerprint_interval), [program], [itlb], options=options
        )
        if fault is not None:
            interval, seed, target = fault
            FaultInjector(interval=interval, seed=seed, target=target).attach(
                system.cores[1]
            )
        return system

    return build


def _recovered(system: CMPSystem) -> None:
    assert system.pairs[0].recoveries > 0, "the fault plan never fired"


def loop_scenarios() -> list[Scenario]:
    """MIXED and CHASE across the full kernel x execution matrix."""
    mixed = assemble(MIXED)
    chase = CHASE.programs(1, seed=3)[0]
    out = []
    for execution in ("dual", "replay"):
        for kernel in ("naive", "event"):
            out.append(
                Scenario(
                    f"mixed/{execution}-{kernel}", kernel, execution,
                    _pair_system(mixed), _until_idle,
                )
            )
            out.append(
                Scenario(
                    f"chase/{execution}-{kernel}", kernel, execution,
                    _pair_system(chase), _for(30_000),
                )
            )
    return out


def fault_scenarios() -> list[Scenario]:
    """MIXED with a periodic fault plan on the mute, one per target."""
    mixed = assemble(MIXED)
    return [
        Scenario(
            f"fault/{target}", "event", "dual",
            _pair_system(mixed, fault=(40, 11, target)), _until_idle, _recovered,
        )
        for target in FAULT_TARGETS
    ]


def random_fault_plan(seed: int):
    """No plan for every fourth seed; otherwise (interval, seed, target)."""
    if seed % 4 == 0:
        return None
    rng = random.Random(0xFA17 ^ seed)
    return (rng.randint(6, 30), rng.randint(0, 2**16), rng.choice(FAULT_TARGETS))


#: Seeds of the random-program corpus.
RANDOM_SEEDS = range(36)


def random_scenarios() -> list[Scenario]:
    """Seeded random programs (tests/pipeline's generator) with fault plans."""
    return [
        Scenario(
            f"random/{seed}", "event", "dual",
            _pair_system(seeded_random_program(seed), fault=random_fault_plan(seed)),
            _until_idle,
        )
        for seed in RANDOM_SEEDS
    ]


def fuzz_program(seed: int):
    """A branchy, store-heavy, TLB-hostile loop for the cold-path fuzz.

    Loads pseudo-random memory words and branches on their low bit, so
    roughly half the conditional branches mispredict (squash path); the
    roving offset strides across a 32 KB footprint — double the base
    config's 16-entry x 1 KB DTLB reach — so loads keep taking software
    TLB walks (injected-handler path); the not-taken arms store, feeding
    the fingerprint store words and the ``store_addr`` fault target.
    """
    rng = random.Random(0xF022 ^ seed)
    words = 4096
    mask = (words * 8 - 1) & ~0x7
    builder = ProgramBuilder(name=f"coldpath-fuzz/{seed}")
    builder.reg(1, MICRO_BASE)  # footprint base
    builder.reg(2, 0)  # roving offset
    builder.reg(3, rng.randrange(1, 1 << 16) | 1)  # odd scramble constant
    builder.label("loop")
    for i in range(rng.randrange(6, 12)):
        builder.add(4, 1, 2)
        builder.load(5, 4)
        builder.alu(Op.XOR, 6, 6, 5)
        builder.alu(Op.MUL, 6, 6, 3)
        builder.alu(Op.ANDI, 7, 6, imm=1)
        skip = f"skip{i}"
        builder.bne(7, 0, skip)
        builder.store(6, 4)
        builder.label(skip)
        builder.addi(2, 2, rng.choice([8, 24, 1032, 2056]))
        builder.alu(Op.ANDI, 2, 2, imm=mask)
    builder.jump("loop")
    program = builder.build()
    program.memory_image.update(
        {MICRO_BASE + i * 8: rng.getrandbits(64) for i in range(words)}
    )
    return program


def _cold_paths_fired(system: CMPSystem) -> None:
    vocal = system.cores[0]
    assert vocal.mispredicts > 0
    assert vocal.dtlb_misses > 0
    assert vocal.itlb_misses > 0
    assert vocal.interrupts_serviced == 1
    assert system.pairs[0].recoveries > 0


def coldpath_scenarios() -> list[Scenario]:
    """Seeded fuzz forcing every view-materializing cold path in one run.

    One scenario exercises branch mispredicts (squash rollback),
    synthetic ITLB misses (trap squash + injected handler), DTLB misses
    (software-walk injection), an external interrupt replicated mid-run,
    and mid-interval fault injection on the mute with the resulting
    detections and recoveries.
    """
    out = []
    for seed in (0, 1, 2):
        rng = random.Random(0x5EED ^ seed)
        program = fuzz_program(seed)
        itlb = hashed_schedule(rate_per_kinstr=rng.choice([10.0, 25.0]), seed=seed)
        interval = rng.choice([1, 4, 8])
        kernel = rng.choice(["naive", "event"])
        execution = rng.choice(["dual", "replay"])
        interrupt_at = rng.randrange(2_000, 8_000)
        fault = (
            rng.randrange(25, 60),
            rng.randrange(2**16),
            rng.choice(FAULT_TARGETS),
        )

        def drive(system, interrupt_at=interrupt_at):
            system.run(interrupt_at)
            system.post_interrupt(0)
            system.run(20_000 - interrupt_at)

        out.append(
            Scenario(
                f"coldpath/{seed}", kernel, execution,
                _pair_system(program, fault, interval, itlb), drive,
                _cold_paths_fired,
            )
        )
    return out


def _workload_system(config: SystemConfig, workload: str, seed: int = 1):
    def build(options: SimOptions) -> CMPSystem:
        spec = resolve_workload(workload)
        programs = spec.programs(config.n_logical, seed)
        schedules = spec.itlb_schedules(config.n_logical, seed)
        return CMPSystem(config, programs, schedules, options=options)

    return build


def system_scenarios() -> list[Scenario]:
    """Every mode, coherence backend and protection policy at least once.

    Two-CPU systems on repository workloads for a fixed window, plus one
    stock MANYCORE_8 (four pairs, directory backend) run.
    """
    two = BASE.replace(n_logical=2)
    out = []
    workloads = {"shared": "DB2 OLTP", "snoopy": "false-sharing", "directory": "ocean"}
    for coherence, workload in workloads.items():
        for mode in (Mode.NONREDUNDANT, Mode.STRICT, Mode.REUNION):
            config = two.replace(**COHERENCE[coherence]).with_redundancy(
                mode=mode, comparison_latency=10, fingerprint_interval=4
            )
            kernel = "naive" if mode is Mode.STRICT else "event"
            out.append(
                Scenario(
                    f"system/{mode.name.lower()}-{coherence}", kernel, "replay",
                    _workload_system(config, workload), _for(4_000),
                )
            )
    policies = {
        "little-mute": ("shared", ProtectionPolicy.little_mute(2)),
        "interval-sampled": ("snoopy", ProtectionPolicy.interval_sampled(0.5)),
        "dynamic": ("directory", ProtectionPolicy.dynamic(4, 1, 8)),
        "unprotected": ("shared", ProtectionPolicy.unprotected()),
    }
    for name, (coherence, policy) in policies.items():
        config = (
            two.replace(**COHERENCE[coherence])
            .with_redundancy(mode=Mode.REUNION, comparison_latency=10,
                             fingerprint_interval=4)
            .with_protection(policy)
        )
        out.append(
            Scenario(
                f"system/{name}-{coherence}", "event", "dual",
                _workload_system(config, "lock-contention"), _for(4_000),
            )
        )
    out.append(
        Scenario(
            "system/manycore8-directory", "event", "replay",
            _workload_system(MANYCORE_8, "DB2 OLTP"), _for(2_500),
        )
    )
    return out


def all_scenarios() -> list[Scenario]:
    return [
        *loop_scenarios(),
        *fault_scenarios(),
        *random_scenarios(),
        *coldpath_scenarios(),
        *system_scenarios(),
    ]


class CommitProbe:
    """Vocal retire hook: SHA-256 over the user commit stream.

    Hashes the same tuple per commit as the campaign golden signature,
    but reads the address and store value of memory instructions alone:
    the flat ring leaves those columns unwritten for every other
    instruction, so there they hold whatever the slot's previous
    occupant left.
    """

    def __init__(self) -> None:
        self.count = 0
        self._hash = hashlib.sha256()

    def signature(self) -> str:
        return self._hash.hexdigest()

    def __call__(self, entry) -> None:
        self.count += 1
        mem = entry.inst.is_mem
        self._hash.update(
            repr(
                (
                    entry.pc,
                    entry.result,
                    entry.addr if mem else None,
                    entry.store_value if mem else None,
                    entry.actual_next,
                )
            ).encode()
        )


def _probe(system: CMPSystem) -> list[CommitProbe]:
    probes = []
    for core in system.vocal_cores:
        probe = CommitProbe()
        core.retire_hook = probe
        probes.append(probe)
    return probes


def digest(scenario: Scenario, **options) -> tuple[dict, CMPSystem]:
    """Run ``scenario``; return its JSON-normal digest and the system.

    A retire observer closes mirror windows, so when a pair mirrors the
    commit streams come from a second, probed run; otherwise the probes
    ride along on the observed run itself.
    """
    sim_options = SimOptions(
        kernel=scenario.kernel, execution=scenario.execution, **options
    )
    system = scenario.build(sim_options)
    mirrors = any(pair.replay_enabled for pair in system.pairs)
    probes = None if mirrors else _probe(system)
    scenario.drive(system)
    if probes is None:
        probed = scenario.build(sim_options)
        probes = _probe(probed)
        scenario.drive(probed)
    record = {
        "observe": _observe(system),
        "commits": [[probe.count, probe.signature()] for probe in probes],
    }
    # Tuples become lists: the recorded and replayed forms compare equal.
    return json.loads(json.dumps(record)), system
