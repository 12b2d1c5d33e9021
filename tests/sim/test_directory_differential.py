"""Snoopy-vs-directory differential suite.

The directory backend's correctness anchor: at the *degenerate*
interconnect point — one home bank, zero link latency, weight-0 (FCFS)
arbitration — every directory timing formula reduces algebraically to
the snoopy bus's, and the directory's exact presence tracking reaches
the same forward/grant decisions a bus snoop would.  Whole simulated
systems must therefore be **bit-identical** between the two backends:
cycles, architectural state, recovery counts, and the full Stats
snapshot (modulo the backends' own ``bus.*`` / ``dir.*`` counters,
which must agree pairwise under the name mapping below).

Runs cover both kernels and fault-injected runs — any timing or protocol divergence between the backends shows up
as a diff here long before it would corrupt a paper figure.
"""

import dataclasses

import pytest

from repro.core.faults import FaultInjector
from repro.isa import assemble
from repro.sim.cmp import CMPSystem
from repro.sim.config import (
    MANYCORE_16,
    CacheStyle,
    CoherenceStyle,
    Mode,
)
from repro.sim.options import SimOptions
from tests.core.helpers import SMALL
from tests.core.test_pair_integration import TestInputIncoherence as Race

#: bus counter -> the directory counter it must equal at the degenerate
#: point.  (dir.invals / dir.forwards / dir.upgrades are directory-only
#: diagnostics with no bus analogue; they are excluded from identity.)
COUNTER_MAP = {
    "bus.reads": "dir.gets",
    "bus.writes": "dir.getm",
    "bus.memory_reads": "dir.memory_reads",
    "bus.writebacks": "dir.writebacks",
    "bus.phantom_null": "dir.phantom_null",
    "bus.phantom_snooped": "dir.phantom_snooped",
    "bus.phantom_garbage": "dir.phantom_garbage",
    "bus.phantom_memory": "dir.phantom_memory",
    "bus.sync_requests": "dir.sync_requests",
    "bus.mute_evicts_dropped": "dir.mute_evicts_dropped",
}

SNOOPY_CONFIG = SMALL.replace(
    cache_style=CacheStyle.SNOOPY,
    bus=dataclasses.replace(SMALL.bus, coherence=CoherenceStyle.SNOOPY),
)

#: The degenerate directory: same snoop/transfer/occupancy/mshr numbers,
#: one bank, zero-latency links, FCFS arbitration.
DEGENERATE_CONFIG = SMALL.replace(
    cache_style=CacheStyle.SNOOPY,
    bus=dataclasses.replace(
        SMALL.bus,
        coherence=CoherenceStyle.DIRECTORY,
        dir_banks=1,
        link_latency=0,
        wrr_vocal_weight=0,
        wrr_mute_weight=0,
    ),
)


def _observe(base, kernel, inject):
    """Run the 2-pair Figure 1 race; return everything comparable."""
    config = base.replace(n_logical=2).with_redundancy(
        mode=Mode.REUNION, comparison_latency=10
    )
    system = CMPSystem(
        config,
        [assemble(Race.READER), assemble(Race.WRITER)],
        options=SimOptions(kernel=kernel),
    )
    if inject:
        injector = FaultInjector(seed=7)
        injector.attach(system.cores[1])  # pair 0's mute
        injector.inject_once(after=40)
    cycles = system.run_until_idle(max_cycles=200_000)
    snapshot = dict(system.collect_stats().snapshot())
    arch = {
        key: value
        for key, value in snapshot.items()
        if not key.startswith(("bus.", "dir."))
    }
    fabric = {
        key: value
        for key, value in snapshot.items()
        if key.startswith(("bus.", "dir."))
    }
    registers = tuple(
        tuple(core.arf.read(reg) for reg in range(9))
        for core in system.vocal_cores
    )
    recoveries = tuple(
        (pair.recoveries, pair.sync_requests) for pair in system.pairs
    )
    return cycles, arch, fabric, registers, recoveries, system.failed


@pytest.mark.parametrize("kernel", ["naive", "event"])
@pytest.mark.parametrize("inject", [False, True])
class TestDegenerateBitIdentity:
    def test_race_is_bit_identical(self, kernel, inject):
        snoopy = _observe(SNOOPY_CONFIG, kernel, inject)
        direct = _observe(DEGENERATE_CONFIG, kernel, inject)

        assert snoopy[0] == direct[0], "cycle counts diverged"
        assert snoopy[1] == direct[1], "architectural stats diverged"
        assert snoopy[3] == direct[3], "vocal register files diverged"
        assert snoopy[4] == direct[4], "recovery/sync accounting diverged"
        assert snoopy[5] == direct[5] is False

        for bus_key, dir_key in COUNTER_MAP.items():
            assert snoopy[2].get(bus_key, 0) == direct[2].get(dir_key, 0), (
                f"{bus_key} != {dir_key}"
            )


class TestDegenerateCoverage:
    def test_race_exercises_the_protocol(self):
        """The differential workload is only meaningful if it actually
        drives forwards, invalidations, sync requests and recoveries."""
        *_, fabric, _, recoveries, failed = _observe(
            DEGENERATE_CONFIG, "event", inject=False
        )
        assert not failed
        assert fabric.get("dir.sync_requests", 0) >= 1
        assert fabric.get("dir.phantom_snooped", 0) >= 1
        assert fabric.get("dir.invals", 0) >= 1
        assert recoveries[0][0] >= 1  # the racing pair recovered

    def test_injected_fault_is_contained_on_both_backends(self):
        for base in (SNOOPY_CONFIG, DEGENERATE_CONFIG):
            *_, registers, _, failed = _observe(base, "event", True)
            assert not failed
            assert registers[0][3] == 77  # reader still saw the payload


class TestManycoreEndToEnd:
    def test_16_core_8_pair_runs_with_reunion_accounting(self):
        """A 16-core (8-pair) directory system runs an artifact workload
        end to end on the non-degenerate interconnect, with the
        phantom-read and recovery stats the bench report records."""
        from repro.workloads.micro import PointerChase

        config = MANYCORE_16
        assert config.n_logical == 8 and config.n_cores == 16
        workload = PointerChase(nodes=4096)
        programs = workload.programs(config.n_logical, 0)
        schedules = workload.itlb_schedules(config.n_logical, 0)
        system = CMPSystem(
            config, programs, schedules, options=SimOptions(kernel="event")
        )
        system.run(6_000)
        assert not system.failed
        snapshot = dict(system.collect_stats().snapshot())
        phantoms = sum(
            value
            for key, value in snapshot.items()
            if key.startswith("dir.phantom_")
        )
        assert phantoms > 0  # every pair's mute misses raise phantoms
        assert snapshot.get("dir.gets", 0) > 0
        assert sum(core.user_retired for core in system.vocal_cores) > 0
        # Recovery accounting is present (and per-pair) even when clean.
        for pair in system.pairs:
            assert f"pair{pair.pair_id}.recoveries" in snapshot
