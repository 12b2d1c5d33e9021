"""The ``serve-mixed`` workload: a ``repro serve`` daemon under mixed traffic.

One round spawns a daemon (2 workers, a fresh cache root) and drives it
from this process, the load generator, over two client connections in a
closed loop, through the same entry points ``repro submit`` and
``repro campaign --resume`` use:

* connection A prefetches a quick-scale paper plan of long sample jobs
  (``Runner.prefetch``, the SC-vs-TSO plan's 18 samples);
* connection B runs a 200-injection ``DB2 OLTP`` campaign
  (``run_campaign``) and then prefetches A's plan too, so the daemon has
  duplicates to deduplicate.

That is the cold pass.  Then both connections resubmit the same work on
their warm client caches, one after the other, again and again until the
run's time is up (at least three times): the warm passes.  A third
connection streams ``GET /events``; its receipt times give job turnaround,
queue wait and service time, and its ``job.started`` events prove that
every job ran exactly once and that no warm pass ran any.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign import run as campaign_run
from repro.exec.cache import ResultCache
from repro.exec.jobs import SampleJob
from repro.harness.runs import Runner
from repro.serve.client import ServeClient, ServiceUnavailable

from perfbench import OUT, ROOT, SRC, plans
from perfbench.report import (
    OUTCOMES,
    PER_LAYER,
    Tally,
    percentile,
    ratio,
    trimmed_mean,
)
from perfbench.spans import Recorder

#: Fewest warm passes per round.
WARM_PASSES = 3
#: Daemon spawns per run used only to time set-up (the working one is a third).
PROBE_SPAWNS = 2
WORKERS = 2
#: Seconds to wait for a daemon to accept, or to drain and exit.
SPAWN_TIMEOUT = 30.0
STOP_TIMEOUT = 30.0


@dataclass
class Load:
    """What the two connections submit in one round."""

    seed: int
    injections: int = plans.CAMPAIGN_INJECTIONS
    samples: int | None = None  # a prefix of the sample plan; None = all

    @classmethod
    def tiny(cls, seed: int) -> "Load":
        return cls(seed, injections=8, samples=2)

    @property
    def scale(self):
        return plans.serve_scale(self.seed)

    def sample_plan(self) -> list:
        return plans.serve_sample_plan(self.seed)[: self.samples]


class Daemon:
    """One ``repro serve`` process in its own cache root under ``OUT``.

    It runs through ``serve_launcher.py``, which reports the peak memory of
    the daemon and its workers when it exits and, given ``worker_log``,
    records a span per job there.
    """

    def __init__(self, root: Path, worker_log: Path | None = None) -> None:
        self.root = root
        socket_path = root / "serve.sock"
        # Relative paths keep the socket name under the AF_UNIX length limit.
        self.address = os.path.relpath(socket_path)
        self._rss_path = root / "rss.json"
        self.command = [
            sys.executable, str(Path(__file__).with_name("serve_launcher.py")),
            "--rss-out", str(self._rss_path),
            "--socket", os.path.relpath(socket_path, ROOT),
            "--workers", str(WORKERS),
            "--cache-root", str(root / "daemon"),
        ]
        if worker_log is not None:
            self.command += ["--span-log", str(worker_log)]
        self.process: subprocess.Popen | None = None

    def start(self) -> float:
        """Spawn and wait until the daemon answers; returns seconds taken."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.root.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        with open(self.root / "daemon.log", "ab") as log:
            # Its own session, so a stuck daemon and its workers die together.
            self.process = subprocess.Popen(
                self.command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=log, start_new_session=True,
            )
        client = ServeClient(self.address, timeout=5.0)
        while True:
            try:
                if client.health().get("status") == "ok":
                    return time.perf_counter() - start
            except (ServiceUnavailable, RuntimeError):
                pass
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.process.returncode}")
            if time.perf_counter() - start > SPAWN_TIMEOUT:
                raise RuntimeError("daemon did not accept connections")
            time.sleep(0.002)

    def stop(self) -> None:
        """Drain the daemon and wait for it (and its workers) to exit."""
        if self.process is None or self.process.poll() is not None:
            return
        try:
            ServeClient(self.address, timeout=5.0).shutdown()
            self.process.wait(timeout=STOP_TIMEOUT)
        except (ServiceUnavailable, RuntimeError, subprocess.TimeoutExpired):
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.process.pid, signal.SIGKILL)
            self.process.wait()

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon or any of its workers (0 if it did not drain)."""
        try:
            with open(self._rss_path) as handle:
                return max(json.load(handle).values())
        except (OSError, ValueError):
            return 0.0


class EventFeed(threading.Thread):
    """``GET /events`` on its own connection, each event with its receipt time."""

    def __init__(self, address: str) -> None:
        super().__init__(daemon=True)
        self.events: list[tuple[float, dict]] = []
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(STOP_TIMEOUT)
        self._sock.connect(address)
        self._sock.sendall(b"GET /events HTTP/1.1\r\nHost: repro-serve\r\n\r\n")
        # The daemon subscribes the connection before it sends the header,
        # so once the header is here no event can be missed.
        self._buffer = b""
        while b"\r\n\r\n" not in self._buffer:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ServiceUnavailable("event feed closed before its header")
            self._buffer += chunk
        self._buffer = self._buffer.partition(b"\r\n\r\n")[2]
        # Passes can be quiet for long; the daemon closes the feed on exit.
        self._sock.settimeout(None)

    def run(self) -> None:
        try:
            while True:
                while b"\n" in self._buffer:
                    line, _, self._buffer = self._buffer.partition(b"\n")
                    if line.strip():
                        self.events.append((time.perf_counter(), json.loads(line)))
                chunk = self._sock.recv(65536)
                if not chunk:
                    return
                self._buffer += chunk
        except OSError:
            return
        finally:
            self._sock.close()


class SubmitLog:
    """Times every ``ServeClient.submit`` this process makes (one per sweep)."""

    def __init__(self, recorder: Recorder | None) -> None:
        self.records: list[tuple[str, float, float, dict]] = []  # client, start, end, response
        self._recorder = recorder
        self._real = ServeClient.submit

    def __enter__(self) -> "SubmitLog":
        real = self._real
        if self._recorder is not None:
            real = self._recorder.wrap(real, "serve.submit")
        records = self.records

        def submit(client, wires, client_id, fresh=False, priority=0):
            start = time.perf_counter()
            response = real(client, wires, client_id, fresh=fresh, priority=priority)
            records.append((client_id, start, time.perf_counter(), response))
            return response

        ServeClient.submit = submit
        return self

    def __exit__(self, *exc) -> None:
        ServeClient.submit = self._real


@dataclass
class Pass:
    """What one pass returned on both connections."""

    wall: float = 0.0
    samples: dict = field(default_factory=dict)  # key -> Sample
    outcomes: dict = field(default_factory=dict)  # key -> Outcome
    campaign: list = field(default_factory=list)  # outcomes in plan order


def _prefetch(load: Load, cache_root: Path) -> dict:
    scale = load.scale
    runner = Runner(scale, cache=ResultCache(cache_root))
    plan = load.sample_plan()
    runner.prefetch(plan)
    seed = scale.seeds[0]
    out = {}
    for config, workload in plan:
        job = SampleJob(config, workload.name, seed, scale.warmup, scale.measure)
        out[job.key] = runner.sample(config, workload, seed)
    return out


def _run_pass(load: Load, root: Path, tally: Tally, concurrent: bool) -> Pass:
    """Both connections, each submitting in a closed loop.

    The cold pass runs them concurrently, so the daemon serves both at
    once and has duplicates to deduplicate.  A warm pass has no job to
    wait on, so two threads would only contend for the interpreter lock:
    it runs them one after the other.
    """
    result = Pass()
    errors: list[str] = []

    def connection_a() -> None:
        result.samples.update(_prefetch(load, root / "client-a"))

    def connection_b() -> None:
        campaign = campaign_run.run_campaign(
            plans.CAMPAIGN_WORKLOAD, load.injections, seed=plans.sim_seed(load.seed),
            resume=True, cache_root=str(root / "client-b"),
        )
        result.campaign = campaign.outcomes
        result.outcomes.update({job.key: o for job, o in zip(campaign.jobs, campaign.outcomes)})
        result.samples.update(_prefetch(load, root / "client-b"))

    def guarded(connection) -> None:
        try:
            connection()
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            errors.append(f"{connection.__name__}: {type(exc).__name__}: {exc}")

    start = time.perf_counter()
    if concurrent:
        threads = [threading.Thread(target=guarded, args=(c,))
                   for c in (connection_a, connection_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    else:
        guarded(connection_a)
        guarded(connection_b)
    result.wall = time.perf_counter() - start
    for message in errors:
        tally.fail(message)
    return result


@dataclass
class Round:
    """Everything one round measured."""

    setup: float = 0.0
    cold: Pass = field(default_factory=Pass)
    warm: list[Pass] = field(default_factory=list)
    events: list[tuple[float, dict]] = field(default_factory=list)
    submits: list[tuple[str, float, float, dict]] = field(default_factory=list)
    warm_start: float = 0.0
    peak_rss_mb: float = 0.0

    @property
    def wall(self) -> float:
        return self.cold.wall + sum(p.wall for p in self.warm)


def run_round(load: Load, goldens, tally: Tally, recorder: Recorder | None = None,
              worker_log: Path | None = None, warm_until: float = 0.0) -> Round:
    """Spawn a daemon, run the cold pass and the warm passes, check it all.

    Warm passes go on until ``warm_until`` (a ``perf_counter`` time), and
    number at least :data:`WARM_PASSES`.
    """
    root = OUT / f"serve-{os.getpid()}-{time.monotonic_ns()}"
    daemon = Daemon(root, worker_log)
    out = Round()
    feed = None
    try:
        out.setup = daemon.start()
        feed = EventFeed(daemon.address)
        feed.start()
        os.environ["REPRO_SERVE"] = daemon.address
        with SubmitLog(recorder) as submits:
            out.cold = _run_pass(load, root, tally, concurrent=True)
            out.warm_start = time.perf_counter()
            while len(out.warm) < WARM_PASSES or time.perf_counter() < warm_until:
                out.warm.append(_run_pass(load, root, tally, concurrent=False))
        out.submits = submits.records
    except (RuntimeError, OSError) as exc:  # the daemon would not start or answer
        tally.fail(f"round: {type(exc).__name__}: {exc}")
    finally:
        os.environ.pop("REPRO_SERVE", None)
        daemon.stop()
        out.peak_rss_mb = daemon.peak_rss_mb()
        if feed is not None:
            feed.join(timeout=STOP_TIMEOUT)
            out.events = feed.events
        shutil.rmtree(root, ignore_errors=True)
    _check_round(out, goldens, tally)
    return out


def _check_round(out: Round, goldens, tally: Tally) -> None:
    """Digests of every result, exactly-once execution, an idle warm pass."""
    for label, one in [("cold", out.cold)] + [("warm", p) for p in out.warm]:
        for key, sample in one.samples.items():
            tally.check(f"{label} sample", key, sample, goldens)
        for key, outcome in one.outcomes.items():
            tally.check(f"{label} outcome", key, outcome, goldens)
    # The cold pass starts every job and the warm passes must start none,
    # so any key started other than exactly once is a failure.
    expected = set(out.cold.samples) | set(out.cold.outcomes)
    started = Counter()
    for _when, event in out.events:
        name = event.get("event")
        if name == "job.started":
            started[event["key"]] += 1
        elif name in ("job.failed", "job.retry"):
            tally.fail(f"{name} {event.get('key', '')[:16]}: {event.get('error')}")
    for key in expected | set(started):
        if started[key] != 1:
            tally.fail(f"job {key[:16]} started {started[key]} times, not once")
        else:
            tally.ok()


def _times(out: Round) -> dict[str, dict[str, float]]:
    """Receipt time of each job event on the feed, by event and key."""
    seen: dict[str, dict[str, float]] = defaultdict(dict)
    for when, event in out.events:
        name = event.get("event", "")
        if name.startswith("job.") and "key" in event:
            seen[name].setdefault(event["key"], when)
    return seen


def _turnarounds(out: Round) -> list[float]:
    """Per injection job: campaign submission to its ``job.finished``."""
    finished = _times(out)["job.finished"]
    starts = [start for client, start, _end, _ in out.submits if client == "campaign"]
    if not starts:
        return []
    return [finished[key] - starts[0] for key in out.cold.outcomes if key in finished]


def _simulated(out: Round, load: Load) -> tuple[int, int]:
    """Cycles and user instructions the cold pass simulated, per unique job."""
    scale = load.scale
    cycles = instructions = 0
    for sample in out.cold.samples.values():
        cycles += scale.warmup + scale.measure
        instructions += sample.user_instructions
    for outcome in out.cold.outcomes.values():
        cycles += outcome.cycles
        instructions += outcome.commits
    return cycles, instructions


def run_untraced(load: Load, seconds: float, goldens, tally: Tally) -> dict[str, float]:
    """End-to-end metrics of one round whose warm passes fill ``seconds``.

    A cold pass takes most of a run, so there is one per run; the warm
    passes, each a fraction of a second, repeat to the end of the run and
    ``resubmit_wall_s`` is their trimmed mean.
    """
    start = time.perf_counter()
    setups = []
    for _ in range(PROBE_SPAWNS):
        probe = Daemon(OUT / f"probe-{os.getpid()}-{time.monotonic_ns()}")
        try:
            setups.append(probe.start())
        except (RuntimeError, OSError) as exc:
            tally.fail(f"daemon spawn: {type(exc).__name__}: {exc}")
        finally:
            probe.stop()
            shutil.rmtree(probe.root, ignore_errors=True)
    out = run_round(load, goldens, tally, warm_until=start + seconds)
    if out.setup:
        setups.append(out.setup)
    cycles, instructions = _simulated(out, load)
    cold = out.cold.wall
    turnaround = _turnarounds(out)
    print(f"perfbench: {len(out.warm)} warm passes, {len(turnaround)} turnaround samples",
          file=sys.stderr)
    outcomes = Counter(o.classification for o in out.cold.campaign)
    print("perfbench: campaign outcomes " + ", ".join(
        f"{bucket} {outcomes.get(bucket, 0)}" for bucket in OUTCOMES), file=sys.stderr)
    return {
        "sim_cycles_per_s": ratio(cycles, cold),
        "sim_user_instr_per_s": ratio(instructions, cold),
        "sweep_wall_s": cold,
        "resubmit_wall_s": trimmed_mean(p.wall for p in out.warm),
        "jobs_per_s": ratio(len(out.cold.samples) + len(out.cold.outcomes), cold),
        "job_turnaround_s.p50": percentile(turnaround, 50),
        "job_turnaround_s.p95": percentile(turnaround, 95),
        "setup_s": trimmed_mean(setups),
        "peak_rss_mb": out.peak_rss_mb,
    }


def run_traced(load: Load, goldens, tally: Tally, trace_path: Path) -> dict[str, float]:
    """Per-layer metrics: one untraced round, then one traced round.

    The traced round records client-side spans here (``serve.submit``,
    ``exec.cache.get``/``put``, ``campaign.golden``) and job spans in the
    daemon's workers (``exec.run_job``, via ``serve_launcher.py``).  The
    simulator's own layers are traced in-process by the other workloads
    and read 0 here.
    """
    plain = run_round(load, goldens, tally)
    recorder = Recorder(threads=True)
    worker_log = OUT / f"workers-{os.getpid()}-{time.monotonic_ns()}.jsonl"
    real_get, real_put = ResultCache.get, ResultCache.put
    real_golden = campaign_run.golden_reference
    ResultCache.get = recorder.wrap(real_get, "exec.cache.get")
    ResultCache.put = recorder.wrap(real_put, "exec.cache.put")
    campaign_run.golden_reference = recorder.wrap(real_golden, "campaign.golden")
    try:
        traced = run_round(load, goldens, tally, recorder, worker_log)
    finally:
        ResultCache.get, ResultCache.put = real_get, real_put
        campaign_run.golden_reference = real_golden
    job_spans = []
    if worker_log.exists():
        with open(worker_log) as handle:
            job_spans = [json.loads(line) for line in handle if line.strip()]
        worker_log.unlink()
    recorder.write(trace_path, workload="serve-mixed", seed=load.seed)
    with open(trace_path.with_name(trace_path.name + ".workers.jsonl"), "w") as handle:
        for span in job_spans:
            handle.write(json.dumps(span) + "\n")

    times = _times(traced)
    queued, started, finished = times["job.queued"], times["job.started"], times["job.finished"]
    waits = [started[k] - queued[k] for k in started if k in queued]
    service = [finished[k] - started[k] for k in finished if k in started]
    cold_submits = [r for _c, t, _end, r in traced.submits if t < traced.warm_start]
    entries = sum(r.get("total", 0) for r in cold_submits)
    buckets = Counter(o.classification for o in traced.cold.campaign)
    out = {name: 0.0 for name, _unit in PER_LAYER}
    out.update({
        "exec.run_job_s": sum(end - begin for _name, begin, end in job_spans),
        "exec.run_job_calls": len(job_spans),
        "exec.cache.get_s": recorder.seconds("exec.cache.get"),
        "exec.cache.get_calls": recorder.count("exec.cache.get"),
        "exec.cache.put_s": recorder.seconds("exec.cache.put"),
        "exec.cache.put_calls": recorder.count("exec.cache.put"),
        "serve.submit_s": recorder.seconds("serve.submit"),
        "serve.submit_calls": recorder.count("serve.submit"),
        "serve.queue_wait_s.p50": percentile(waits, 50),
        "serve.queue_wait_s.p95": percentile(waits, 95),
        "serve.service_s.p50": percentile(service, 50),
        "serve.service_s.p95": percentile(service, 95),
        "serve.dedup_ratio": 1.0 - ratio(len(started), entries),
        "serve.cache_hit_ratio": ratio(sum(r.get("hits", 0) for r in cold_submits), entries),
        "campaign.golden_s": recorder.seconds("campaign.golden"),
        "trace.overhead": ratio(traced.wall, plain.wall),
    })
    for bucket in OUTCOMES:
        out[f"campaign.outcome.{bucket}"] = buckets.get(bucket, 0)
    return out
