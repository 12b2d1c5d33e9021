"""Record ``goldens.json``: the digest of every result the benchmark checks.

    python3 perfbench/make_goldens.py [--workers 2]

Run it only at a commit whose simulator output is the reference.  Every
job of every workload, for every seed of the pool, runs here through the
plain in-process entry points (no service, no tracing, no cache).  A
benchmark run whose digest differs has found a behaviour change; that is
a bug to report, never a reason to record the goldens again.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import prepare  # noqa: E402


def seed_digests(seed: int) -> dict[str, str]:
    prepare()
    from repro.campaign.outcome import golden_reference, run_injection
    from repro.exec.jobs import run_job
    from repro.sim.sampling import run_sample

    from perfbench import plans

    out: dict[str, str] = {}
    for job in plans.paper_jobs(seed) + plans.serve_sample_jobs(seed):
        out[job.key] = plans.digest(run_job(job))
    gc.disable()
    for job in plans.mem_jobs(seed):
        sample = run_sample(job.config, job.workload(), job.warmup, job.measure, job.seed)
        out[job.key] = plans.digest(sample)
    gc.enable()
    campaign = plans.serve_campaign_jobs(seed)
    golden = golden_reference(campaign[0].config, campaign[0].spec)
    for job in campaign:
        out[job.key] = plans.digest(run_injection(job.config, job.spec, golden))
    print(f"seed {seed}: {len(out)} digests", file=sys.stderr, flush=True)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    prepare()
    from perfbench import plans

    context = multiprocessing.get_context("spawn")
    with context.Pool(args.workers) as pool:
        per_seed = pool.map(seed_digests, range(plans.SEED_POOL))
    digests: dict[str, str] = {}
    for part in per_seed:
        digests.update(part)
    with open(plans.GOLDENS_PATH, "w") as handle:
        json.dump({"seed_pool": plans.SEED_POOL, "digests": digests}, handle,
                  indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {plans.GOLDENS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
