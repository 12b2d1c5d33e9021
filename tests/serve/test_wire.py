"""Wire codec: jobs and results must round-trip with identical keys.

The service's dedup hinges on one invariant: a job reconstructed from
its wire rendering recomputes the submitter's content-hash key exactly.
These tests pin that for every job kind, across the awkward corners of
the config space (enums, nested dataclasses, ``pair_policies`` tuples),
and :class:`TestPinnedKeys` pins literal keys so a change to how configs
or options are rendered cannot silently orphan every cached result.
"""

import dataclasses

import pytest

from repro.campaign.outcome import GoldenReference, Outcome
from repro.campaign.plan import plan_campaign
from repro.exec.jobs import SampleJob
from repro.serve.wire import (
    WireError,
    decode_dataclass,
    golden_from_wire,
    golden_to_wire,
    job_from_wire,
    job_to_wire,
    result_from_wire,
    result_to_wire,
)
from repro.sim.config import (
    DEFAULT_CONFIG,
    MANYCORE_8,
    Mode,
    ProtectionPolicy,
    RedundancyConfig,
    SystemConfig,
)
from repro.sim.options import SimOptions
from repro.sim.sampling import Sample

from perfbench.plans import mem_jobs

CONFIG = DEFAULT_CONFIG.replace(n_logical=2)
REUNION = CONFIG.with_redundancy(mode=Mode.REUNION)

#: Configs spanning the corners the decoder has to get right.
CONFIGS = [
    CONFIG,
    REUNION,
    CONFIG.with_redundancy(mode=Mode.STRICT),
    # Per-pair policy mix: nested dataclasses inside an Optional tuple.
    REUNION.with_protection(
        (
            ProtectionPolicy(mode="full"),
            ProtectionPolicy(mode="little-mute", mute_width=2),
        )
    ),
    REUNION.with_protection(
        ProtectionPolicy(mode="interval-sampled", checked_fraction=0.25)
    ),
    REUNION.with_protection(
        ProtectionPolicy(
            mode="dynamic", off_threshold=48, on_threshold=16, off_intervals=4
        )
    ),
]


def _sample_job(config: SystemConfig, seed: int = 0) -> SampleJob:
    return SampleJob(config, "ocean", seed, warmup=80, measure=160)


class TestSampleJobs:
    @pytest.mark.parametrize("config", CONFIGS, ids=range(len(CONFIGS)))
    def test_round_trip_preserves_key(self, config):
        job = _sample_job(config)
        decoded = job_from_wire(job_to_wire(job))
        assert decoded.key == job.key
        assert decoded.config == job.config
        assert (decoded.workload_name, decoded.seed) == ("ocean", 0)

    def test_wire_is_the_canonical_payload(self):
        job = _sample_job(CONFIG)
        wire = job_to_wire(job)
        assert wire == {"kind": "sample", "job": job.payload()}

    def test_schema_mismatch_rejected(self):
        wire = job_to_wire(_sample_job(CONFIG))
        wire["job"]["schema"] = 9999
        with pytest.raises(WireError, match="schema"):
            job_from_wire(wire)


#: A hand-built REUNION system: no ``REPRO_*`` variable retargets it
#: (unlike ``DEFAULT_CONFIG``, which ``REPRO_COHERENCE`` rewrites).
PINNED_REUNION = SystemConfig(
    n_logical=2, redundancy=RedundancyConfig(mode=Mode.REUNION)
)

#: Literal SHA-256 keys of ``SampleJob(config, "ocean", 3, 80, 160)``.
PINNED_SAMPLE_KEYS = {
    "manycore-8": (
        MANYCORE_8,
        "8a7e50f478e289c8e93881ce64dae79f08bebad35479a368618c36e555a58d8c",
    ),
    "reunion": (
        PINNED_REUNION,
        "ac4572296bcb163c4d54c8c135587e71e998942973c79148662b276f91eebff6",
    ),
    "full": (
        PINNED_REUNION.with_protection(ProtectionPolicy.full()),
        "a7e16a467a8389ca96a3085959e348d1b3e9a809d471d932366357b23397fc8e",
    ),
    "little-mute": (
        PINNED_REUNION.with_protection(ProtectionPolicy.little_mute(2)),
        "fc0b462a33f287cc133b6f1458cdfcae71a0e302a0691218359d66e9d4d9e200",
    ),
    "interval-sampled": (
        PINNED_REUNION.with_protection(ProtectionPolicy.interval_sampled(0.25)),
        "f4088ae0df072b248b7bd10b43c7eacc5791943dc4e7ae09e8cdef0183d742da",
    ),
    "unprotected": (
        PINNED_REUNION.with_protection(ProtectionPolicy.unprotected()),
        "f19f929d4cc9984e3c812896c3a282ed089a85d9c069a4a4490281f32e4a78ee",
    ),
    "dynamic": (
        PINNED_REUNION.with_protection(ProtectionPolicy.dynamic()),
        "77b57ac3f341cd358ab8122c99beb2011eac82bd05afd4e65c7598cf5d8c91b3",
    ),
}

#: Literal keys of the benchmark's many-pair jobs at seed 0.
PINNED_MEM_KEYS = {
    "chase-16-directory": "9d785c0f69a2ab9e398b590b4569ec75ef568fe092d9758bbdd582651cb8705e",
    "chase-8-snoopy": "cec273fb6cddb3512f8347f7595b89993c5cf109eb773536acdf7a2588de5554",
    "false-sharing-8-directory": "cf4450e675f9066adf6102a551e49bc304bbc49677020e05e7026f4a00c591cb",
}


class TestPinnedKeys:
    """Cache keys are a persistent format: these literals must not move.

    A key change orphans every cached sample and every golden the
    benchmark recorded, so one must come with a ``SCHEMA_VERSION`` bump
    and new literals, never by accident.
    """

    @pytest.mark.parametrize("name", sorted(PINNED_SAMPLE_KEYS))
    def test_sample_key_literal(self, name):
        config, key = PINNED_SAMPLE_KEYS[name]
        job = SampleJob(config, "ocean", 3, warmup=80, measure=160)
        assert job.key == key
        assert job_from_wire(job_to_wire(job)).key == key

    def test_options_stay_out_of_the_key(self):
        config, key = PINNED_SAMPLE_KEYS["manycore-8"]
        options = SimOptions(kernel="naive", trace="full", max_cycles=777, seed=9)
        job = SampleJob(config, "ocean", 3, 80, 160, options)
        assert job.key == key
        assert "options" not in job.payload()

    def test_mem_job_key_literals(self):
        assert {job.cell: job.key for job in mem_jobs(0)} == PINNED_MEM_KEYS


class TestInjectionJobs:
    def test_round_trip_preserves_key(self):
        jobs = plan_campaign("ocean", 6, seed=1, commit_target=200, max_cycles=4000)
        for job in jobs:
            decoded = job_from_wire(job_to_wire(job))
            assert decoded.key == job.key
            assert decoded.spec == job.spec
            assert decoded.config == job.config

    def test_schema_mismatch_rejected(self):
        job = plan_campaign("ocean", 1, commit_target=200, max_cycles=4000)[0]
        wire = job_to_wire(job)
        wire["job"]["schema"] = 9999
        with pytest.raises(WireError, match="schema"):
            job_from_wire(wire)


class TestMalformedWire:
    def test_unknown_kind(self):
        with pytest.raises(WireError, match="unknown job kind"):
            job_from_wire({"kind": "mystery", "job": {}})

    def test_missing_payload(self):
        with pytest.raises(WireError, match="payload"):
            job_from_wire({"kind": "sample"})

    def test_type_confusion_rejected(self):
        wire = job_to_wire(_sample_job(CONFIG))
        wire["job"]["config"]["n_logical"] = "two"
        with pytest.raises(WireError):
            job_from_wire(wire)

    def test_missing_required_field_rejected(self):
        with pytest.raises(WireError, match="missing required"):
            decode_dataclass(Outcome, {"classification": "masked"})


class TestResults:
    SAMPLE = Sample(
        cycles=160,
        user_instructions=300,
        recoveries=1,
        tlb_misses=2,
        sync_requests=3,
        serializing=4,
    )
    OUTCOME = Outcome(
        classification="masked",
        victim="vocal",
        target="dest_value",
        bit=3,
        inject_index=10,
        fired=True,
        absorbed=True,
        detected=False,
        cause=None,
        latency=None,
        aliased=False,
        flushed=False,
        unchecked=False,
        commits=500,
        cycles=2100,
        recoveries=0,
        signature_matched=True,
    )

    def test_sample_round_trip(self):
        wire = result_to_wire("sample", self.SAMPLE)
        assert result_from_wire("sample", wire) == self.SAMPLE

    def test_outcome_round_trip(self):
        wire = result_to_wire("injection", self.OUTCOME)
        assert result_from_wire("injection", wire) == self.OUTCOME

    def test_outcome_field_mismatch_rejected(self):
        wire = result_to_wire("injection", self.OUTCOME)
        del wire["latency"]
        with pytest.raises(WireError, match="field mismatch"):
            result_from_wire("injection", wire)

    def test_bad_classification_rejected(self):
        wire = result_to_wire("injection", self.OUTCOME)
        wire["classification"] = "melted"
        with pytest.raises(WireError, match="classification"):
            result_from_wire("injection", wire)

    def test_golden_round_trip(self):
        golden = GoldenReference(signature="ab" * 32, commits=500, cycles=2100)
        assert golden_from_wire(golden_to_wire(golden)) == golden
        assert dataclasses.asdict(golden) == golden_to_wire(golden)

    def test_golden_field_mismatch_rejected(self):
        with pytest.raises(WireError, match="golden"):
            golden_from_wire({"signature": "x"})
