"""Golden digests of the core hot loop.

Every scenario in :mod:`tests.sim.golden_scenarios` is replayed on the
shipping core loop and diffed against ``tests/sim/goldens/core_loop.json``:
statistics, fingerprint comparison counts, recovery logs, architectural
registers and each vocal's commit-stream signature.  The digests were
recorded while a second, object-graph implementation of the same
pipeline still existed, and that recording asserted both loops agreed on
every entry; the file now holds that shared answer.  A mismatch here is
a behaviour change of the pipeline, never noise: regenerate the file
(``python -m tests.sim.record_goldens``) only together with the change
that explains it.

The scenarios cover both kernels (MIXED and a memory-bound pointer
chase), periodic fault recovery per fault target, a
seeded corpus of random programs with fault plans, a cold-path fuzz that
forces squashes, TLB traps, an interrupt and recoveries in one run, and a
system matrix spanning every redundancy mode, coherence backend and
protection policy.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.sim.golden_scenarios import (
    FAULT_TARGETS,
    RANDOM_SEEDS,
    all_scenarios,
    digest,
    system_scenarios,
)

GOLDENS = json.loads(
    (Path(__file__).parent / "goldens" / "core_loop.json").read_text()
)["entries"]
SCENARIOS = {scenario.name: scenario for scenario in all_scenarios()}


def _mismatch(name: str) -> list[str]:
    """Replay ``name``; return the digest fields that differ from the golden."""
    scenario = SCENARIOS[name]
    got, system = digest(scenario)
    if scenario.sanity is not None:
        scenario.sanity(system)
    want = GOLDENS[name]
    observed = got["observe"]
    fields = [key for key, value in want["observe"].items() if observed.get(key) != value]
    if got["commits"] != want["commits"]:
        fields.append("commits")
    return fields


def _check(name: str) -> None:
    fields = _mismatch(name)
    assert not fields, f"{name}: {fields} differ from the golden digest"


def test_goldens_cover_every_scenario():
    assert set(GOLDENS) == set(SCENARIOS)


@pytest.mark.parametrize("variant", ["dual-naive", "dual-event"])
class TestHotLoopEquivalence:
    """Curated scenarios under both kernels (``dual-<kernel>`` digests)."""

    def test_mixed_workload(self, variant):
        _check(f"mixed/{variant}")

    def test_memory_bound_workload(self, variant):
        _check(f"chase/{variant}")


@pytest.mark.parametrize("target", FAULT_TARGETS)
def test_fault_recovery_is_loop_independent(target):
    """Injected faults detect and recover exactly as recorded.

    The injector counts *eligible* instructions, so any divergence in
    issue order or re-execution would shift every subsequent injection
    and show up as a different recovery log.
    """
    _check(f"fault/{target}")


def test_random_programs_bit_identical():
    """The seeded random-program corpus, fault plans included."""
    names = [f"random/{seed}" for seed in RANDOM_SEEDS]
    mismatched = {name: fields for name in names if (fields := _mismatch(name))}
    assert not mismatched
    recovered = [name for name in names if any(GOLDENS[name]["observe"]["recovery_log"])]
    assert len(recovered) >= 8, "the corpus' fault plans stopped firing"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cold_path_fuzz_bit_identical(seed):
    """Squashes, ITLB and DTLB traps, an interrupt and recoveries, one run."""
    _check(f"coldpath/{seed}")


@pytest.mark.parametrize(
    "name", [scenario.name.partition("/")[2] for scenario in system_scenarios()]
)
def test_system_matrix(name):
    """Every redundancy mode, coherence backend and protection policy."""
    _check(f"system/{name}")
