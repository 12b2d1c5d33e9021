"""Performance benchmarking: the `repro bench` report.

Times every paper artifact's sample sweep at a chosen scale, and runs a
registry of comparison scenarios and micros alongside: naive vs. event
kernel, telemetry off vs. armed, a many-pair
directory run, per-policy protection throughput, and the retire-gate and
cache-backend micros.  Every measurement is one :class:`Row` —
``scenario, name, metric, value, unit, gate`` — and the row's gate kind
says what :func:`check_regression` enforces on it, so a new measurement
adds rows, not code.  The report is written as ``BENCH_<date>.json`` so
the repository tracks its performance trajectory PR over PR, and an old
report can serve as a regression baseline.

Benchmark runs always bypass the persistent result cache — a timing of a
cache hit would say nothing about the simulator.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from datetime import date
from functools import partial

from repro.sim.config import Mode

#: Bump when the JSON layout changes incompatibly.
BENCH_SCHEMA = 2

#: A committed baseline (see ``benchmarks/bench_baseline.json``) fails
#: the check when any ``floor`` row drops below 1/REGRESSION_FACTOR of
#: its recorded value.  Loose on purpose: CI machines vary widely, and
#: the check should catch accidental algorithmic regressions (an O(n)
#: retire loop, a lost horizon), not scheduler noise.
REGRESSION_FACTOR = 3.0

#: Telemetry's zero-cost-when-off contract has a hot side too: an
#: *armed* run may not slow the simulator by more than this factor
#: (min-of-repeats damps scheduler noise; see run_telemetry_comparison).
TELEMETRY_OVERHEAD_FACTOR = 1.10

#: Gate kinds a :class:`Row` can carry (``None`` means report only):
#:
#: * ``floor`` — fails below the baseline's value / REGRESSION_FACTOR;
#:   a row missing from the baseline is ignored.
#: * ``identity`` — must be true (bit-identity and no-allocation contracts).
#: * ``min:B`` / ``max:B`` — an absolute bound ``B``, no baseline needed.
#: * ``ordering`` — within one scenario and metric, no row may exceed the
#:   ordering row listed before it (runners list them highest first).
FLOOR = "floor"
IDENTITY = "identity"
ORDERING = "ordering"


@dataclass
class Row:
    """One measurement: ``value`` of ``metric`` for ``name`` in ``scenario``."""

    scenario: str
    name: str
    metric: str
    value: float | int | bool
    unit: str
    gate: str | None = None

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.scenario, self.name, self.metric)


#: Render section titles, by scenario.
TITLES = {
    "phase": "paper phases (full sample sweep, cache bypassed)",
    "kernel": "kernel comparison (naive vs. event, per-sample wall time)",
    "telemetry": "telemetry comparison (off vs. armed, min-of-repeats wall time)",
    "directory": "directory scenario (many-pair Reunion on home-node directories)",
    "protection": "protection scenario (policy throughput, compute-bound pair)",
    "retire-gate": "retire-gate micro (bare offer/pop loop, gate machinery only)",
    "cache": "cache-backend micro (result-store put/get, throwaway root)",
}

#: Value format by unit; anything else renders as a rounded count.
_FORMATS = {"s": "{:.3f}", "x": "{:.2f}x", "instr/cycle": "{:.3f}"}

#: Units ``compare_reports`` diffs: the rates and ratios.
_TREND_UNITS = ("cycles/s", "ops/s", "x")


def _format(value, unit: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "NO"
    return _FORMATS.get(unit, "{:,.0f}").format(value)


def _group(rows, key) -> dict[str, list[Row]]:
    groups: dict[str, list[Row]] = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    return groups


@dataclass
class BenchReport:
    """One `repro bench` run, serializable to ``BENCH_<date>.json``."""

    date: str
    scale: str
    jobs: int
    rows: list[Row] = field(default_factory=list)
    #: Wall seconds by bench entry (see repro.obs.profile.Profiler).
    profile: dict[str, float] = field(default_factory=dict)
    schema: int = BENCH_SCHEMA

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchReport":
        return cls(
            date=payload["date"],
            scale=payload["scale"],
            jobs=payload["jobs"],
            rows=[Row(**row) for row in payload["rows"]],
            profile=payload["profile"],
            schema=payload["schema"],
        )

    @classmethod
    def load(cls, path: str) -> "BenchReport":
        with open(path) as handle:
            payload = json.load(handle)
        schema = payload.get("schema")
        if schema != BENCH_SCHEMA:
            raise ValueError(
                f"{path}: bench report schema {schema!r}; this version reads "
                f"schema {BENCH_SCHEMA} only"
            )
        return cls.from_dict(payload)

    def write(self, out_dir: str = ".") -> str:
        path = os.path.join(out_dir, f"BENCH_{self.date}.json")
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def render(self) -> str:
        """One table per scenario: a line per name, a column per metric."""
        lines = [f"repro bench — scale={self.scale} jobs={self.jobs} ({self.date})"]
        for scenario, rows in _group(self.rows, lambda row: row.scenario).items():
            metrics = list(dict.fromkeys(row.metric for row in rows))
            by_name = _group(rows, lambda row: row.name)
            width = max(len(name) for name in by_name) + 2
            cols = [max(len(metric) + 2, 10) for metric in metrics]
            lines += [
                "",
                f"{TITLES[scenario]}:",
                f"{'name':<{width}}"
                + "".join(f"{metric:>{col}}" for metric, col in zip(metrics, cols)),
                "-" * (width + sum(cols)),
            ]
            for name, cells in by_name.items():
                text = {row.metric: _format(row.value, row.unit) for row in cells}
                lines.append(
                    f"{name:<{width}}"
                    + "".join(
                        f"{text.get(metric, '-'):>{col}}"
                        for metric, col in zip(metrics, cols)
                    )
                )
        if self.profile:
            lines += ["", "profile (wall seconds by bench entry):"]
            width = max(len(name) for name in self.profile)
            for name in sorted(self.profile):
                lines.append(f"  {name:<{width}}  {self.profile[name]:>9.3f}")
        return "\n".join(lines)


def _inputs(workload, config, seed):
    """The programs and ITLB schedules ``CMPSystem`` needs for ``config``."""
    return (
        workload.programs(config.n_logical, seed),
        workload.itlb_schedules(config.n_logical, seed),
    )


def _timed_run(config, inputs, options, cycles: int, repeats: int = 1):
    """Time ``run(cycles)`` on ``repeats`` fresh systems.

    Construction (program install, wiring) stays outside the timed
    section.  Returns the minimum wall time, the last system and its
    Stats snapshot.
    """
    from repro.sim.cmp import CMPSystem

    wall = math.inf
    for _ in range(repeats):
        system = CMPSystem(config, *inputs, options=options)
        start = time.perf_counter()
        system.run(cycles)
        wall = min(wall, time.perf_counter() - start)
    return wall, system, dict(system.collect_stats().snapshot())


def run_phase(name: str, scale, jobs: int) -> list[Row]:
    """Time one paper artifact's full sample sweep, cache bypassed."""
    from repro import harness

    plans = {
        "fig5": harness.plan_fig5,
        "fig6a": lambda s: harness.plan_fig6(Mode.STRICT, s),
        "fig6b": lambda s: harness.plan_fig6(Mode.REUNION, s),
        "table3": harness.plan_table3,
        "fig7a": harness.plan_fig7a,
        "fig7b": harness.plan_fig7b,
        "sc": harness.plan_sc_comparison,
    }
    requests = plans[name](scale)
    samples = len(requests) * len(scale.seeds)
    # A fresh uncached runner per phase: time the simulator, not the
    # cache, and don't let phases share the baseline samples.
    runner = harness.Runner(scale, cache=None)
    start = time.perf_counter()
    runner.prefetch(requests, jobs=jobs)
    wall = time.perf_counter() - start
    cycles = samples * (scale.warmup + scale.measure)
    row = partial(Row, "phase", name)
    return [
        row("wall_s", wall, "s"),
        row("cycles", cycles, "cycles"),
        row("samples", samples, "count"),
        row("cycles_per_s", cycles / wall if wall else 0.0, "cycles/s", FLOOR),
    ]


def run_kernel_comparison(scale, quick: bool = False) -> list[Row]:
    """Time identical simulations under both kernels; verify bit-identity.

    Runs on memory-latency-dominated workloads, where cycle skipping has
    maximal headroom: a pointer chase whose footprint is sized far past
    the default L1/L2 so the dependent-load chain misses all the way to
    memory, and (unless ``quick``) `em3d`, the paper suite's
    irregular-graph memory-latency workload.  The ``identical`` rows
    double as a correctness check: they diff the full Stats snapshots.
    """
    from repro.sim.options import SimOptions
    from repro.workloads.micro import PointerChase
    from repro.workloads.scientific import Em3d

    workloads = [("mem-chase", PointerChase(nodes=16384))]
    if not quick:
        workloads.append(("em3d", Em3d()))
    rows: list[Row] = []
    seed = scale.seeds[0]
    cycles = scale.warmup + scale.measure
    for name, workload in workloads:
        for mode in (Mode.NONREDUNDANT, Mode.REUNION):
            # One logical processor: a many-core system's cores
            # desynchronize, pulling the minimum horizon toward "now"
            # and measuring contention instead of memory latency.
            config = scale.config.replace(n_logical=1).with_redundancy(mode=mode)
            inputs = _inputs(workload, config, seed)
            naive_wall, _, naive_stats = _timed_run(
                config, inputs, SimOptions(kernel="naive"), cycles
            )
            event_wall, _, event_stats = _timed_run(
                config, inputs, SimOptions(kernel="event"), cycles
            )
            row = partial(Row, "kernel", f"{name}/{mode.value}")
            rows += [
                row("naive_wall_s", naive_wall, "s"),
                row("event_wall_s", event_wall, "s"),
                row("speedup", naive_wall / event_wall if event_wall else 0.0, "x"),
                row("cycles", cycles, "cycles"),
                row("identical", naive_stats == event_stats, "bool", IDENTITY),
            ]
    return rows


def run_telemetry_comparison(
    scale, cycles: int = 60_000, repeats: int = 3
) -> list[Row]:
    """Time a Reunion pair with telemetry off and armed at ``events``.

    The armed run must be bit-identical (Stats diff — the telemetry
    observe-never-mutate contract) and nearly free: ``overhead`` is
    armed/off wall time, capped at :data:`TELEMETRY_OVERHEAD_FACTOR`.
    Wall times are the minimum over ``repeats`` fresh systems per side,
    which is the standard defence against scheduler noise on shared CI
    runners.  The memory-bound chase exercises the chatty emitters
    (phantom reads, fingerprint compares);
    a 16-instruction fingerprint interval keeps the event rate at the
    realistic design point rather than the interval=1 stress corner.
    """
    from repro.sim.options import SimOptions
    from repro.workloads.micro import PointerChase

    config = (
        scale.config.replace(n_logical=1)
        .with_redundancy(mode=Mode.REUNION, fingerprint_interval=16)
    )
    inputs = _inputs(PointerChase(nodes=16384), config, scale.seeds[0])
    off_wall, _, off_stats = _timed_run(config, inputs, SimOptions(), cycles, repeats)
    armed_wall, armed, armed_stats = _timed_run(
        config, inputs, SimOptions(trace="events"), cycles, repeats
    )
    row = partial(Row, "telemetry", "mem-chase/reunion")
    return [
        row("off_wall_s", off_wall, "s"),
        row("armed_wall_s", armed_wall, "s"),
        row(
            "overhead",
            armed_wall / off_wall if off_wall else 0.0,
            "x",
            f"max:{TELEMETRY_OVERHEAD_FACTOR}",
        ),
        row("cycles", cycles, "cycles"),
        # Total records emitted by the armed run.
        row("events", armed.obs.log.emitted, "count"),
        row("identical", off_stats == armed_stats, "bool", IDENTITY),
    ]


def run_directory_scenario(
    scale, pairs_list=(4,), cycles: int = 20_000
) -> list[Row]:
    """Run memory-bound Reunion pairs on the directory backend, end to end.

    One :func:`~repro.sim.config.manycore_config` system per entry in
    ``pairs_list`` (4 pairs = 8 cores, 8 pairs = 16 cores), each pair
    chasing its own pointer graph so every mute miss exercises phantom
    requests and every divergence the recovery protocol, across the
    banked directories and the weighted arbiter at realistic
    (non-degenerate) interconnect numbers.  The Reunion-visible outcomes
    (recoveries, synchronizing requests, phantom reads) are recorded
    alongside throughput so the report shows the backend actually
    carrying redundant execution, not just booting.
    """
    from repro.sim.config import manycore_config
    from repro.sim.options import SimOptions
    from repro.workloads.micro import PointerChase

    workload = PointerChase(nodes=4096)
    rows: list[Row] = []
    for pairs in pairs_list:
        config = manycore_config(pairs)
        inputs = _inputs(workload, config, scale.seeds[0])
        wall, system, stats = _timed_run(
            config, inputs, SimOptions(kernel="event"), cycles
        )
        row = partial(Row, "directory", f"mem-chase/{pairs}-pair-dir")
        rows += [
            row("pairs", pairs, "count"),
            row("wall_s", wall, "s"),
            row("cycles", cycles, "cycles"),
            row("cycles_per_s", cycles / wall if wall else 0.0, "cycles/s"),
            row("recoveries", sum(pair.recoveries for pair in system.pairs), "count"),
            row("sync_requests", int(stats.get("dir.sync_requests", 0)), "count"),
            row(
                "phantom_reads",
                sum(v for k, v in stats.items() if k.startswith("dir.phantom_")),
                "count",
            ),
        ]
    return rows


#: Policies the bench scenario sweeps, fastest expected first.  The
#: structural sim-IPC ordering its ``ordering`` rows enforce follows from
#: what each mode pays per interval: nothing (unprotected), half the
#: exchanges (sampled), every exchange (full), every exchange plus a
#: narrowed checker (little-mute).
PROTECTION_BENCH_POLICIES = (
    "unprotected",
    "interval-sampled:0.5",
    "full",
    "little-mute:2",
)


def run_protection_scenario(scale, cycles: int = 12_000) -> list[Row]:
    """Run one compute-bound Reunion pair per protection policy.

    The per-pair policy API trades coverage for throughput; this
    scenario pins the throughput half of that trade on the compute-bound
    kernel, where the check stage is the bottleneck and the policies
    separate most.  Fixed simulated-cycle windows make ``retired`` and
    ``sim_ipc`` (vocal user instructions per simulated cycle)
    deterministic, so the ``sim_ipc`` ordering is asserted exactly;
    ``cycles_per_s`` times the host, floored against the baseline.
    """
    from repro.sim.config import parse_policy
    from repro.sim.options import SimOptions
    from repro.workloads.micro import ComputeKernel

    base = scale.config.replace(n_logical=1).with_redundancy(mode=Mode.REUNION)
    inputs = _inputs(ComputeKernel(), base, scale.seeds[0])
    rows: list[Row] = []
    for spec in PROTECTION_BENCH_POLICIES:
        config = base.with_protection(parse_policy(spec))
        wall, system, _ = _timed_run(
            config, inputs, SimOptions(kernel="event"), cycles
        )
        vocal = system.vocal_cores[0]
        row = partial(Row, "protection", spec)
        rows += [
            row("wall_s", wall, "s"),
            row("cycles", cycles, "cycles"),
            row("cycles_per_s", cycles / wall if wall else 0.0, "cycles/s", FLOOR),
            row("retired", vocal.user_retired, "instr"),
            row(
                "sim_ipc",
                vocal.user_retired / cycles if cycles else 0.0,
                "instr/cycle",
                ORDERING,
            ),
            row("unchecked_intervals", vocal.gate.intervals_unchecked, "count"),
        ]
    return rows


def run_retire_gate_micro(cycles: int = 30_000, width: int = 4) -> list[Row]:
    """Time the retire-gate offer/pop path in isolation.

    The retire loop pops the gate every cycle it has work, so
    ``pop_retirable_f`` overhead is pure per-retired-instruction tax.
    This micro drives the immediate gate (non-redundant retirement) and
    the strict check gate (fingerprint close + self-compare + latency
    queue — the full check-stage data path without needing a partner
    core) over a real core's ring columns with a recycled pool of
    completed slots.  ``ops_per_s`` is floored against the baseline;
    ``scratch_reused`` pins the scratch-buffer contract: the pop must
    hand back the *same* list object every call, never a fresh
    allocation.
    """
    from collections import deque

    from repro.core.strict import StrictCheckGate
    from repro.isa.decode import flags_of
    from repro.memory import CoreMemPort, MainMemory, SharedL2Controller
    from repro.pipeline.gates import ImmediateGate
    from repro.pipeline.ooo_core import OoOCore
    from repro.pipeline.rob import DynState
    from repro.sim.config import DEFAULT_CONFIG, RedundancyConfig
    from repro.sim.stats import Stats
    from repro.workloads.micro import ComputeKernel

    program = ComputeKernel().programs(1, seed=0)[0]
    # Steady-state ALU writers only: serializing/HALT entries would close
    # intervals early and measure interval churn instead of the pop path.
    insts = [inst for inst in program.instructions if inst.is_alu]

    gates = [
        ("immediate", ImmediateGate()),
        (
            "strict-check",
            StrictCheckGate(
                RedundancyConfig(mode=Mode.STRICT, comparison_latency=10)
            ),
        ),
    ]
    rows: list[Row] = []
    for name, gate in gates:
        config = DEFAULT_CONFIG
        stats = Stats()
        memory = MainMemory(config.memory.latency, config.l2.line_bytes)
        controller = SharedL2Controller(config.l2, memory, stats)
        port = CoreMemPort(0, config.l1, config.tlb, controller, stats)
        core = OoOCore(0, config, program, port, gate=gate)
        smask = core._f_smask
        for slot in range(core._f_cap):
            # A recycled slot keeps its seq: the gates only test that a
            # popped ref is still live, never that seqs increase.
            core.f_seq[slot] = slot
            inst = insts[slot % len(insts)]
            core.f_inst[slot] = inst
            core.f_flags[slot] = flags_of(inst, core.sc_mode)
            core.f_state[slot] = DynState.COMPLETED
            if inst.writes_reg:
                core.f_res[slot] = (slot * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        free = deque(range(core._f_cap))
        offer = gate.offer_f  # hoisted, as the core's retire loop does
        popped = 0
        scratch_reused = True
        first: list | None = None
        start = time.perf_counter()
        for now in range(cycles):
            for _ in range(width):
                if not free:
                    break
                offer(core, free.popleft() & smask, now)
            out = gate.pop_retirable_f(core, now, width)
            if first is None:
                first = out
            elif out is not first:
                scratch_reused = False
            popped += len(out)
            free.extend(out)  # packed refs; the offer masks them to slots
        wall = time.perf_counter() - start
        row = partial(Row, "retire-gate", name)
        rows += [
            row("ops", popped, "instr"),
            row("wall_s", wall, "s"),
            row("ops_per_s", popped / wall if wall else 0.0, "ops/s", FLOOR),
            row("scratch_reused", scratch_reused, "bool", IDENTITY),
        ]
    return rows


def run_cache_backend_micro(records: int = 400) -> list[Row]:
    """Time put/get throughput of both cache storage backends.

    Both backends (sharded JSON, sqlite-WAL) store identical records
    under identical keys; this micro writes ``records`` distinct sample
    records through each on a throwaway root, then reads them all back
    as hits, so the numbers isolate storage cost: JSON pays a file
    create + atomic rename per put, sqlite a WAL append — and the get
    sides pay a file open/parse versus an indexed row lookup.  Both
    rates are floored against the baseline, so a backend can't quietly
    become pathological (a lost WAL pragma, a fsync-per-record
    regression).
    """
    import tempfile

    from repro.exec.backends import BACKEND_KINDS
    from repro.exec.cache import ResultCache
    from repro.exec.jobs import SampleJob
    from repro.sim.config import DEFAULT_CONFIG
    from repro.sim.sampling import Sample

    jobs = [
        SampleJob(
            config=DEFAULT_CONFIG,
            workload_name="bench-cache",
            seed=seed,
            warmup=100,
            measure=200,
        )
        for seed in range(records)
    ]
    sample = Sample(
        cycles=200,
        user_instructions=640,
        recoveries=0,
        tlb_misses=12,
        sync_requests=3,
        serializing=1,
    )
    rows: list[Row] = []
    for kind in BACKEND_KINDS:
        with tempfile.TemporaryDirectory(prefix=f"bench-cache-{kind}-") as root:
            cache = ResultCache(root, backend=kind)
            start = time.perf_counter()
            for job in jobs:
                cache.put(job, sample)
            put_wall = time.perf_counter() - start
            start = time.perf_counter()
            for job in jobs:
                value = cache.get(job)
                assert value == sample  # a miss here would be a broken backend
            get_wall = time.perf_counter() - start
            close = getattr(cache.backend, "close", None)
            if close is not None:
                close()
        row = partial(Row, "cache", kind)
        rows += [
            row("ops", records, "count"),
            row("put_wall_s", put_wall, "s"),
            row("get_wall_s", get_wall, "s"),
            row("puts_per_s", records / put_wall if put_wall else 0.0, "ops/s", FLOOR),
            row("gets_per_s", records / get_wall if get_wall else 0.0, "ops/s", FLOOR),
        ]
    return rows


#: The paper artifacts, each timed as a full sample sweep.
PHASES = ("fig5", "fig6a", "fig6b", "table3", "fig7a", "fig7b", "sc")


def _phase_entry(name: str):
    return lambda scale, jobs, quick: run_phase(name, scale, jobs)


#: Every bench entry ``--only`` can pick: name -> runner(scale, jobs,
#: quick) -> rows.  ``quick`` shrinks each entry's window (and the kernel
#: comparison to its first workload) so a smoke run
#: finishes in seconds while still exercising every gate.
SCENARIOS = {
    **{name: _phase_entry(name) for name in PHASES},
    "kernel": lambda scale, jobs, quick: run_kernel_comparison(scale, quick=quick),
    "telemetry": lambda scale, jobs, quick: run_telemetry_comparison(
        scale, cycles=20_000 if quick else 60_000
    ),
    "directory": lambda scale, jobs, quick: run_directory_scenario(
        scale,
        pairs_list=(4,) if quick else (4, 8),
        cycles=6_000 if quick else 20_000,
    ),
    "protection": lambda scale, jobs, quick: run_protection_scenario(
        scale, cycles=4_000 if quick else 12_000
    ),
    "retire-gate": lambda scale, jobs, quick: run_retire_gate_micro(
        cycles=6_000 if quick else 30_000
    ),
    "cache": lambda scale, jobs, quick: run_cache_backend_micro(
        records=100 if quick else 400
    ),
}


def run_bench(
    scale_name: str = "quick",
    jobs: int = 1,
    only: list[str] | None = None,
    quick: bool = False,
) -> BenchReport:
    """Run the selected :data:`SCENARIOS` entries; return the filled report.

    ``only`` names the entries to run; by default every entry runs.
    ``quick`` is the smoke-run mode for CI and local sanity checks:
    sharply reduced warmup/measure windows, and by default only the
    fig5 phase plus every non-phase entry.
    """
    import dataclasses

    from repro.harness import scale_by_name
    from repro.obs.profile import Profiler

    scale = scale_by_name(scale_name)
    if quick:
        scale = dataclasses.replace(scale, warmup=300, measure=800)
    if only:
        selected = only
    elif quick:
        selected = ["fig5"] + [name for name in SCENARIOS if name not in PHASES]
    else:
        selected = list(SCENARIOS)
    unknown = [name for name in selected if name not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown bench scenarios {unknown}; pick from {list(SCENARIOS)}"
        )

    profiler = Profiler()
    report = BenchReport(date=date.today().isoformat(), scale=scale.name, jobs=jobs)
    for name in selected:
        with profiler.section(name):
            report.rows += SCENARIOS[name](scale, jobs, quick)
    report.profile = profiler.snapshot()
    return report


def check_regression(
    current: BenchReport,
    baseline: BenchReport,
    factor: float = REGRESSION_FACTOR,
) -> list[str]:
    """Enforce every gated row of ``current``; see the gate kinds above.

    Returns a list of human-readable problems (empty = pass).  Only
    ``floor`` rows consult the baseline, and a row the baseline lacks is
    ignored — the baseline is a floor for what both runs measured, not a
    schema lock.
    """
    problems: list[str] = []
    base_values = {row.key: row.value for row in baseline.rows}
    previous: dict[tuple[str, str], Row] = {}
    for row in current.rows:
        kind, _, bound = (row.gate or "").partition(":")
        label = f"{row.scenario}/{row.name}: {row.metric}"
        if kind == FLOOR:
            base = base_values.get(row.key)
            if base is not None and row.value < base / factor:
                problems.append(
                    f"{label} {row.value:,.0f} {row.unit} is >{factor:g}x "
                    f"below baseline {base:,.0f}"
                )
        elif kind == IDENTITY:
            if not row.value:
                problems.append(f"{label} is false (contract broken)")
        elif kind == "min":
            if row.value < float(bound):
                problems.append(f"{label} {row.value:.3f} is below the {bound} floor")
        elif kind == "max":
            if row.value > float(bound):
                problems.append(f"{label} {row.value:.3f} exceeds the {bound} budget")
        elif kind == ORDERING:
            prior = previous.get((row.scenario, row.metric))
            if prior is not None and prior.value < row.value:
                problems.append(
                    f"{row.scenario}: {prior.name} {row.metric} {prior.value:.3f} "
                    f"fell below {row.name} {row.value:.3f} (ordering inverted)"
                )
            previous[(row.scenario, row.metric)] = row
        elif kind:
            raise ValueError(f"{label}: unknown gate {row.gate!r}")
    return problems


def compare_reports(old: BenchReport, new: BenchReport) -> str:
    """Render a trajectory table diffing two bench reports row by row.

    ``repro bench --compare OLD.json NEW.json`` — the bench history lives
    in committed ``BENCH_<date>.json`` files, and this turns two of them
    into an explicit delta instead of an eyeball diff: every rate
    (cycles/s, ops/s) and ratio (speedup, overhead) both reports hold,
    with ``new / old`` — above 1.0 is faster for a rate.  Rows present in
    only one report are skipped.
    """
    lines = [
        f"bench trajectory: {old.date} (scale={old.scale}, jobs={old.jobs})"
        f" -> {new.date} (scale={new.scale}, jobs={new.jobs})",
    ]
    if old.scale != new.scale or old.jobs != new.jobs:
        lines.append(
            "WARNING: reports were taken at different scale/jobs settings;"
            " ratios are not apples to apples"
        )
    old_values = {row.key: row.value for row in old.rows}
    matched = [
        (row, old_values[row.key])
        for row in new.rows
        if row.unit in _TREND_UNITS and row.key in old_values
    ]
    if matched:
        lines += [
            "",
            f"{'row':<36}{'metric':<14}{'old':>13}{'new':>13}{'ratio':>9}",
            "-" * 85,
        ]
        for row, before in matched:
            ratio = row.value / before if before else 0.0
            lines.append(
                f"{row.scenario + '/' + row.name:<36}{row.metric:<14}"
                f"{_format(before, row.unit):>13}{_format(row.value, row.unit):>13}"
                f"{ratio:>8.2f}x"
            )
    return "\n".join(lines)
