"""The in-process workloads: ``paper-fig5-quick`` and ``mem-manycore``.

Both run their jobs serially in this process through the public entry
points: the paper plan through :func:`repro.exec.jobs.run_job`, the
many-pair micros through :func:`repro.sim.sampling.run_sample` (their
sized workloads have no name ``run_job`` could resolve).

Set-up is split from simulation from the outside: ``run_sample`` builds
its system through the module global ``repro.sim.sampling.CMPSystem`` and
generates programs through the workload's ``programs`` and
``itlb_schedules``, so :class:`Probe` replaces those three lookups with
timed ones.  That costs a few calls per job, not per cycle, so the
untraced run keeps it on.
"""

from __future__ import annotations

import gc
import os
import shutil
import sys
import time
from dataclasses import dataclass, field

from repro.exec.cache import ResultCache
from repro.exec.jobs import resolve_workload, run_job
from repro.sim import sampling

from perfbench import OUT, plans
from perfbench.report import (
    BACKENDS,
    CTRL_OPS,
    GATES,
    PER_LAYER,
    Tally,
    high_water_mb,
    percentile,
    ratio,
    trimmed_mean,
)
from perfbench.spans import Recorder, instrument_system

#: Fewest timed bursts of warm-cache re-reads per run.
RESUBMITS = 30
#: Full re-reads per timed burst, after one untimed re-read that brings
#: back the CPU caches the last job evicted: a cold re-read costs two to
#: three warm ones, by how hard other tenants of the host load memory.
REREAD_BURST = 4

#: Process-wide memos of generated programs (with their pre-decode) and of
#: ITLB schedule tables.  A fresh process starts with them empty, so every
#: pass starts them empty too: each pass then pays generation the way a
#: user's sweep does, and passes are alike whichever runs first.
GENERATION_MEMOS = (
    ("repro.sim.sampling", "_generation_memo"),
    ("repro.workloads.base", "_SCHED_TABLES"),
)


def forget_generation() -> None:
    """Empty the generation memos (those this version of ``repro`` has)."""
    for module, attr in GENERATION_MEMOS:
        memo = getattr(sys.modules.get(module), attr, None)
        if isinstance(memo, dict):
            memo.clear()


class Probe:
    """Times generation and construction inside each job, from outside."""

    def __init__(self) -> None:
        self.generate_s = 0.0
        self.construct_s = 0.0
        self.system = None
        #: When set, systems are instrumented and set-up becomes spans.
        self.recorder: Recorder | None = None
        self._real = sampling.CMPSystem

    def __enter__(self) -> "Probe":
        sampling.CMPSystem = self._build
        return self

    def __exit__(self, *exc) -> None:
        sampling.CMPSystem = self._real

    def _build(self, *args, **kwargs):
        build = self._real
        if self.recorder is not None:
            build = self.recorder.wrap(build, "sim.construct")
        start = time.perf_counter()
        system = build(*args, **kwargs)
        self.construct_s += time.perf_counter() - start
        if self.recorder is not None:
            instrument_system(self.recorder, system)
        self.system = system
        return system

    def watch(self, workload) -> None:
        """Time ``workload``'s program and ITLB-schedule generation."""
        for attr in ("programs", "itlb_schedules"):
            real = getattr(workload, attr)

            def timed(*args, _real=real, **kwargs):
                generate = _real
                if self.recorder is not None:
                    generate = self.recorder.wrap(_real, "workloads.generate")
                start = time.perf_counter()
                try:
                    return generate(*args, **kwargs)
                finally:
                    self.generate_s += time.perf_counter() - start

            setattr(workload, attr, timed)


@dataclass
class Cell:
    """Every measurement of one job in this run."""

    job: object
    #: The job as a sweep pays it, including any generation it triggered.
    walls: list[float] = field(default_factory=list)
    generates: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)  # generation + construction
    sims: list[float] = field(default_factory=list)
    cycles: int = 0
    user_instructions: int = 0
    result: object = None


class Workload:
    """One in-process workload: its jobs and how to run one of them."""

    name = ""
    #: Span around each job in the traced run (None: no exec layer).
    job_span: str | None = None

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def jobs(self) -> list:
        raise NotImplementedError

    def trace_jobs(self) -> list:
        return self.jobs()

    def watch(self, probe: Probe) -> None:
        raise NotImplementedError

    def run(self, job):
        raise NotImplementedError


class PaperFig5Quick(Workload):
    name = "paper-fig5-quick"
    job_span = "exec.run_job"

    def jobs(self):
        return plans.paper_jobs(self.seed)

    def trace_jobs(self):
        return [job for job in self.jobs() if job.workload_name in plans.PAPER_TRACE_SLICE]

    def watch(self, probe):
        for name in {job.workload_name for job in self.jobs()}:
            probe.watch(resolve_workload(name))

    def run(self, job):
        return run_job(job)


class MemManycore(Workload):
    name = "mem-manycore"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._workloads = {job.key: job.workload() for job in self.jobs()}

    def jobs(self):
        return plans.mem_jobs(self.seed)

    def watch(self, probe):
        for workload in self._workloads.values():
            probe.watch(workload)

    def run(self, job):
        # Collector paused as exec.jobs.run_job does for every sample.
        gc.disable()
        try:
            return sampling.run_sample(
                job.config, self._workloads[job.key], job.warmup, job.measure, job.seed
            )
        finally:
            gc.enable()


WORKLOADS = {cls.name: cls for cls in (PaperFig5Quick, MemManycore)}


def _release(probe: Probe) -> None:
    """Free the last job's system (reference cycles) before timing more.

    Peak memory is then one job's whatever the number of passes, and no
    timed region pays for collecting a previous job's heap.
    """
    probe.system = None
    gc.collect()


def _measure(workload: Workload, probe: Probe, cell: Cell, tally: Tally, goldens) -> None:
    """Run ``cell``'s job once, splitting its time, and check its digest."""
    _release(probe)
    run = workload.run
    if probe.recorder is not None and workload.job_span:
        run = probe.recorder.wrap(run, workload.job_span)
    generated, constructed = probe.generate_s, probe.construct_s
    start = time.perf_counter()
    try:
        result = run(cell.job)
    except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
        tally.fail(f"{cell.job.describe()}: {type(exc).__name__}: {exc}")
        return
    wall = time.perf_counter() - start
    generate = probe.generate_s - generated
    construct = probe.construct_s - constructed
    cell.walls.append(wall)
    cell.generates.append(generate)
    cell.setups.append(generate + construct)
    cell.sims.append(wall - generate - construct)
    cell.cycles = probe.system.now
    cell.user_instructions = probe.system.user_instructions()
    cell.result = result
    tally.check(cell.job.describe(), cell.job.key, result, goldens)


class WarmCache:
    """This run's results in a fresh ``ResultCache``, re-read in full on demand.

    ``resubmit_wall_s`` is the time of one full re-read, what a second
    ``repro reproduce`` of the same plan pays on a warm cache: each timed
    burst's mean, combined over the bursts by a trimmed mean.
    """

    def __init__(self, recorder: Recorder | None = None) -> None:
        self.root = OUT / f"cache-{os.getpid()}-{time.monotonic_ns()}"
        self.cache = ResultCache(self.root)
        if recorder is not None:
            recorder.wrap_attr(self.cache, "get", "exec.cache.get")
            recorder.wrap_attr(self.cache, "put", "exec.cache.put")
        self.cells: list[Cell] = []
        self.walls: list[float] = []

    def put(self, cell: Cell) -> None:
        if cell.result is not None:
            self.cache.put(cell.job, cell.result)
            self.cells.append(cell)

    def reread(self) -> list:
        """Time one burst of full re-reads; returns what the last one served."""
        for cell in self.cells:
            self.cache.get(cell.job)
        start = time.perf_counter()
        for _ in range(REREAD_BURST):
            served = [self.cache.get(cell.job) for cell in self.cells]
        self.walls.append((time.perf_counter() - start) / REREAD_BURST)
        return served

    def finish(self, tally: Tally, goldens) -> None:
        """Top the re-reads up to ``RESUBMITS``, check the last one, clean up."""
        try:
            if not self.cells:
                return
            while len(self.walls) < RESUBMITS - 1:
                self.reread()
            served = self.reread()
            for cell, value in zip(self.cells, served):
                if value is None:
                    tally.fail(f"{cell.job.describe()}: warm cache missed")
                else:
                    tally.check(f"{cell.job.describe()} (cached)", cell.job.key, value, goldens)
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


def run_untraced(name: str, seed: int, seconds: float, goldens, tally: Tally,
                 jobs: list | None = None) -> dict[str, float]:
    """End-to-end metrics: passes over the plan until ``seconds`` pass.

    Every time is combined over passes per job (a trimmed mean), so each
    pass must cost what the first does: each starts with the generation
    memos empty.
    """
    workload = WORKLOADS[name](seed)
    cells = [Cell(job) for job in (jobs if jobs is not None else workload.jobs())]
    warm = WarmCache()
    with Probe() as probe:
        workload.watch(probe)
        start = time.perf_counter()
        index = 0
        while index < len(cells) or time.perf_counter() - start < seconds:
            if index % len(cells) == 0:
                forget_generation()
            cell = cells[index % len(cells)]
            _measure(workload, probe, cell, tally, goldens)
            # The first pass fills the warm cache; later jobs each re-read it
            # in a burst, so the re-reads spread over the run like the jobs.
            if index < len(cells):
                warm.put(cell)
            else:
                _release(probe)
                warm.reread()
            index += 1
    warm.finish(tally, goldens)
    measured = [cell for cell in cells if cell.walls]
    sim = sum(trimmed_mean(cell.sims) for cell in measured)
    turnaround = [trimmed_mean(cell.walls) for cell in measured]
    sweep = sum(turnaround)
    return {
        "sim_cycles_per_s": ratio(sum(cell.cycles for cell in measured), sim),
        "sim_user_instr_per_s": ratio(sum(cell.user_instructions for cell in measured), sim),
        "sweep_wall_s": sweep,
        "resubmit_wall_s": trimmed_mean(warm.walls),
        "jobs_per_s": ratio(len(measured), sweep),
        "job_turnaround_s.p50": percentile(turnaround, 50),
        "job_turnaround_s.p95": percentile(turnaround, 95),
        "setup_s": sum(trimmed_mean(cell.setups) for cell in measured),
        "peak_rss_mb": high_water_mb(),
    }


def run_traced(name: str, seed: int, goldens, tally: Tally, trace_path,
               jobs: list | None = None) -> dict[str, float]:
    """Per-layer metrics over the workload's trace slice.

    Each job runs traced, then untraced; ``trace.overhead`` compares the
    two (construction included, generation excluded: the second run reuses
    the programs the first generated).
    """
    workload = WORKLOADS[name](seed)
    cells = [Cell(job) for job in (jobs if jobs is not None else workload.trace_jobs())]
    recorder = Recorder()
    plain = [Cell(cell.job) for cell in cells]
    kernel = []  # (steps, now, recoveries, sync requests) per traced system
    with Probe() as probe:
        workload.watch(probe)
        for run_id, (cell, twin) in enumerate(zip(cells, plain)):
            recorder.run_id = run_id
            probe.recorder = recorder
            _measure(workload, probe, cell, tally, goldens)
            system = probe.system
            if system is not None:
                kernel.append((
                    system.steps,
                    system.now,
                    sum(pair.recoveries for pair in system.pairs),
                    sum(pair.sync_requests for pair in system.pairs),
                ))
            probe.recorder = None
            _measure(workload, probe, twin, tally, goldens)
    warm = WarmCache(recorder)
    for cell in cells:
        warm.put(cell)
    warm.finish(tally, goldens)
    recorder.write(trace_path, workload=name, seed=seed)
    return layer_metrics(
        recorder,
        kernel,
        overhead=ratio(_without_generation(cells), _without_generation(plain)),
    )


def _without_generation(cells: list[Cell]) -> float:
    return sum(sum(cell.walls) - sum(cell.generates) for cell in cells)


def layer_metrics(recorder: Recorder, kernel: list, overhead: float) -> dict[str, float]:
    """The per-layer catalogue from in-process spans; service layers read 0."""
    s = recorder.seconds
    n = recorder.count
    run_s = s("sim.run", inclusive=True)
    out = {name: 0.0 for name, _unit in PER_LAYER}
    out.update({
        "sim.run_s": run_s,
        "sim.kernel.loop_s": s("sim.run"),
        "sim.kernel.stepped_frac": ratio(sum(k[0] for k in kernel), sum(k[1] for k in kernel)),
        "sim.kernel.horizon_s": s("sim.kernel.horizon"),
        "sim.kernel.horizon_calls": n("sim.kernel.horizon"),
        "sim.kernel.horizon_share": ratio(s("sim.kernel.horizon"), run_s),
        "sim.construct_s": s("sim.construct"),
        "workloads.generate_s": s("workloads.generate"),
        "workloads.generate_share": ratio(
            s("workloads.generate"), s("workloads.generate") + s("sim.construct") + run_s
        ),
        "pipeline.core_step_s": s("pipeline.core_step"),
        "pipeline.core_step_calls": n("pipeline.core_step"),
        "core.pair.step_s": s("core.pair.step"),
        "core.pair.step_calls": n("core.pair.step"),
        "core.pair.recoveries": sum(k[2] for k in kernel),
        "core.pair.sync_requests": sum(k[3] for k in kernel),
        "exec.run_job_s": s("exec.run_job", inclusive=True),
        "exec.run_job_calls": n("exec.run_job"),
        "exec.cache.get_s": s("exec.cache.get"),
        "exec.cache.get_calls": n("exec.cache.get"),
        "exec.cache.put_s": s("exec.cache.put"),
        "exec.cache.put_calls": n("exec.cache.put"),
        "trace.overhead": overhead,
    })
    gate_s = 0.0
    for op in ("offer", "release"):
        for gate in GATES:
            out[f"core.gate.{op}_s.{gate}"] = s(f"core.gate.{op}.{gate}")
            out[f"core.gate.{op}_calls.{gate}"] = n(f"core.gate.{op}.{gate}")
            gate_s += out[f"core.gate.{op}_s.{gate}"]
    out["core.gate.share"] = ratio(gate_s, run_s)
    memory_s = 0.0
    for op in ("load", "store", "rmw"):
        out[f"memory.port.{op}_s"] = s(f"memory.port.{op}")
        out[f"memory.port.{op}_calls"] = n(f"memory.port.{op}")
        memory_s += out[f"memory.port.{op}_s"]
    for op in CTRL_OPS:
        for backend in BACKENDS:
            out[f"memory.ctrl.{op}_s.{backend}"] = s(f"memory.ctrl.{op}.{backend}")
            out[f"memory.ctrl.{op}_calls.{backend}"] = n(f"memory.ctrl.{op}.{backend}")
            memory_s += out[f"memory.ctrl.{op}_s.{backend}"]
    out["memory.share"] = ratio(memory_s, run_s)
    return out
