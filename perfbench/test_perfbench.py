"""Self-tests of the benchmark: ``python -m pytest perfbench -q`` from the root.

Tiny runs of every workload, traced and untraced, must print every
catalogue metric with its unit and verify; a perturbed golden digest and
a job that fails inside the daemon must both count as failed operations.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from perfbench import ROOT, prepare

prepare()

from perfbench import inprocess, plans, serve_mixed  # noqa: E402
from perfbench.report import END_TO_END, PER_LAYER, Tally, trimmed_mean  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_trimmed_mean_drops_the_extremes():
    assert trimmed_mean([]) == 0.0
    assert trimmed_mean([2.0, 4.0]) == 3.0
    # A tenth of the values at each end is dropped: the hiccup and the fluke.
    assert trimmed_mean([100.0] + [1.0] * 4 + [3.0] * 4 + [0.0]) == 2.0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0, completed.stderr
    catalogue = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in line["metrics"].items()} == dict(catalogue)
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_perturbed_digest_counts_as_failure():
    job = inprocess.PaperFig5Quick(0).trace_jobs()[0]
    goldens = dict(plans.load_goldens())
    goldens[job.key] = "0" * 16
    tally = Tally()
    inprocess.run_untraced("paper-fig5-quick", 0, 0, goldens, tally, jobs=[job])
    # The simulated result and its warm-cache copy both mismatch.
    assert tally.failed == 2 and tally.attempted == 2


def test_failed_job_in_process_counts(monkeypatch):
    def broken(self, job):
        raise RuntimeError("injected")

    monkeypatch.setattr(inprocess.PaperFig5Quick, "run", broken)
    job = inprocess.PaperFig5Quick(0).trace_jobs()[0]
    tally = Tally()
    inprocess.run_untraced("paper-fig5-quick", 0, 0, plans.load_goldens(), tally, jobs=[job])
    assert tally.failed >= 1


class _NoSuchWorkload:
    name = "no-such-workload"


class _FailingLoad(serve_mixed.Load):
    """Connection A's plan carries one job no worker can run."""

    def sample_plan(self):
        plan = super().sample_plan()
        return plan + [(plan[0][0], _NoSuchWorkload())]


def test_failed_job_in_daemon_counts():
    tally = Tally()
    base = serve_mixed.Load.tiny(0)
    load = _FailingLoad(base.seed, base.injections, base.samples)
    serve_mixed.run_round(load, plans.load_goldens(), tally)
    failures = "\n".join(tally.messages)
    assert "job.failed" in failures and "connection_a" in failures
