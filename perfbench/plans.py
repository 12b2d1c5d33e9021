"""What each workload simulates, derived only from ``--seed``.

The seed picks one of :data:`SEED_POOL` simulation seeds; every job a
workload runs uses it as its workload seed, so the programs differ from
seed to seed while the job shapes, windows and footprints stay fixed
(set-up cost scales with the pointer-chase footprint, so a seed must not
change it).  ``goldens.json`` holds a digest of every job's result for
every pool seed, recorded by ``make_goldens.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.campaign.plan import InjectionJob, plan_campaign
from repro.exec.jobs import SCHEMA_VERSION, SampleJob, config_payload
from repro.harness.fig5 import plan_fig5
from repro.harness.fig7 import plan_sc_comparison
from repro.harness.runs import QUICK
from repro.sim.config import MANYCORE_8, MANYCORE_16, CoherenceStyle, SystemConfig
from repro.workloads.micro import FalseSharing, PointerChase

from perfbench import ROOT

#: Simulation seeds with recorded goldens; ``--seed n`` uses ``n % SEED_POOL``.
SEED_POOL = 16

GOLDENS_PATH = ROOT / "perfbench" / "goldens.json"


def sim_seed(seed: int) -> int:
    return seed % SEED_POOL


def digest(result: Any) -> str:
    """Digest of every field of a ``Sample`` or campaign ``Outcome``."""
    canonical = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_goldens() -> dict[str, str]:
    with open(GOLDENS_PATH) as handle:
        return json.load(handle)["digests"]


# -- paper-fig5-quick -------------------------------------------------------

#: Cells the traced run covers: one commercial and one recovering
#: scientific workload, each in all three redundancy modes.
PAPER_TRACE_SLICE = ("DB2 OLTP", "em3d")


def paper_jobs(seed: int) -> list[SampleJob]:
    """Figure 5's quick-scale plan: 11 workloads x 3 modes."""
    return [
        SampleJob(config, workload.name, sim_seed(seed), QUICK.warmup, QUICK.measure)
        for config, workload in plan_fig5(QUICK)
    ]


# -- mem-manycore -----------------------------------------------------------

_MICROS = {"pointer-chase": PointerChase, "false-sharing": FalseSharing}


@dataclass(frozen=True)
class MemJob:
    """One many-pair micro sample, keyed like :class:`SampleJob`.

    The micros take constructor parameters that ``SampleJob`` cannot name
    (it resolves workloads by name at their default size), so the key
    hashes the parameters too.
    """

    cell: str
    config: SystemConfig
    workload_name: str
    params: tuple[tuple[str, int], ...]
    seed: int
    warmup: int
    measure: int

    def workload(self):
        return _MICROS[self.workload_name](**dict(self.params))

    def payload(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "config": config_payload(self.config),
            "workload": self.workload_name,
            "params": dict(self.params),
            "seed": self.seed,
            "warmup": self.warmup,
            "measure": self.measure,
        }

    @property
    def key(self) -> str:
        canonical = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def describe(self) -> str:
        return f"{self.cell}/seed{self.seed}"


#: Pointer-chase footprint: 65536 nodes x 8 bytes per core, far above the
#: 4 KB L1 and 128 KB L2.
CHASE_NODES = 65536

SNOOPY_8 = MANYCORE_8.replace(
    bus=dataclasses.replace(MANYCORE_8.bus, coherence=CoherenceStyle.SNOOPY)
)


def mem_jobs(seed: int) -> list[MemJob]:
    s = sim_seed(seed)
    chase = (("nodes", CHASE_NODES),)
    return [
        MemJob("chase-16-directory", MANYCORE_16, "pointer-chase", chase, s, 2000, 40000),
        MemJob("chase-8-snoopy", SNOOPY_8, "pointer-chase", chase, s, 2000, 40000),
        MemJob("false-sharing-8-directory", MANYCORE_8, "false-sharing", (), s, 2000, 20000),
    ]


# -- serve-mixed ------------------------------------------------------------

#: Connection B's campaign: a commercial workload, where full-protection
#: campaigns classify many faults as ``sdc`` (see NOTES.md).
CAMPAIGN_WORKLOAD = "DB2 OLTP"
CAMPAIGN_INJECTIONS = 200


def serve_scale(seed: int):
    return dataclasses.replace(QUICK, seeds=(sim_seed(seed),))


def serve_sample_plan(seed: int) -> list:
    """Connection A's plan: the SC-vs-TSO comparison, 18 quick samples."""
    return plan_sc_comparison(serve_scale(seed))


def serve_sample_jobs(seed: int) -> list[SampleJob]:
    scale = serve_scale(seed)
    return [
        SampleJob(config, workload.name, scale.seeds[0], scale.warmup, scale.measure)
        for config, workload in serve_sample_plan(seed)
    ]


def serve_campaign_jobs(seed: int) -> list[InjectionJob]:
    """Connection B's campaign, as ``run_campaign`` plans it."""
    return plan_campaign(CAMPAIGN_WORKLOAD, CAMPAIGN_INJECTIONS, seed=sim_seed(seed))
