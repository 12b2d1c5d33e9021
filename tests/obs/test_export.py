"""Unit tests for the JSONL and Chrome trace_event exporters."""

import io
import json

from repro.obs.events import Telemetry
from repro.obs.export import chrome_trace, event_lines, summarize, write_jsonl


class FakeSystem:
    def __init__(self, instructions: int = 0) -> None:
        self.instructions = instructions

    def user_instructions(self) -> int:
        return self.instructions


def _armed() -> Telemetry:
    """A telemetry object with one of everything the exporters handle."""
    telemetry = Telemetry(level="events")
    telemetry.emit("sync.request", 0, "pair0", pc=4, addr=0x900, op="ATOMIC")
    telemetry.emit("fingerprint.compare", 90, "pair0", index=5, matched=True)
    telemetry.emit("fingerprint.mismatch", 100, "pair0", index=6, cause="count")
    telemetry.emit("recovery.start", 120, "pair0", phase=1, cause="mismatch")
    telemetry.emit("phantom.read", 130, "l2", core=1, strength="global")
    telemetry.emit("recovery.resume", 170, "pair0", phase=1)
    telemetry.metrics.sample(FakeSystem(256), 128)
    return telemetry


class TestJsonl:
    def test_lines_cover_events_metrics_and_summary(self):
        telemetry = _armed()
        lines = event_lines(telemetry)
        # 6 events + 1 metrics row + 1 summary trailer.
        assert len(lines) == 8
        kinds = [line["kind"] for line in lines]
        assert kinds[0] == "sync.request"
        assert "metrics.sample" in kinds
        assert kinds[-1] == "summary"

    def test_summary_trailer_accounts_for_the_run(self):
        telemetry = _armed()
        trailer = event_lines(telemetry)[-1]
        assert trailer["events_emitted"] == 6
        assert trailer["events_dropped"] == 0
        assert trailer["metrics_rows"] == 1
        assert trailer["recovery_latency_histogram"] == {"32-63": 1}

    def test_write_jsonl_emits_parseable_lines(self):
        telemetry = _armed()
        handle = io.StringIO()
        count = write_jsonl(telemetry, handle)
        lines = handle.getvalue().splitlines()
        assert count == len(lines) == 8
        for line in lines:
            json.loads(line)


class TestChromeTrace:
    def test_duration_pairing(self):
        trace = chrome_trace(_armed())["traceEvents"]
        slices = {e["name"]: e for e in trace if e["ph"] == "X"}
        # recovery.start@120 .. recovery.resume@170 folds into a
        # duration slice; nothing else pairs up.
        assert set(slices) == {"recovery"}
        assert slices["recovery"]["ts"] == 120
        assert slices["recovery"]["dur"] == 50
        # Open + close payloads merge into the slice args.
        assert slices["recovery"]["args"]["cause"] == "mismatch"

    def test_unpaired_open_and_close_become_instants(self):
        telemetry = Telemetry(level="events")
        telemetry.emit("recovery.resume", 10, "pair0")  # close without start
        telemetry.emit("recovery.start", 20, "pair0")  # start without close
        instants = {
            e["name"] for e in chrome_trace(telemetry)["traceEvents"] if e["ph"] == "i"
        }
        assert instants == {"recovery.resume", "recovery.start"}

    def test_thread_metadata_per_source(self):
        trace = chrome_trace(_armed(), process_name="unit")["traceEvents"]
        meta = {
            e["args"]["name"]: e["tid"] for e in trace if e["name"] == "thread_name"
        }
        assert set(meta) == {"pair0", "l2"}
        process = next(e for e in trace if e["name"] == "process_name")
        assert process["args"]["name"] == "unit"

    def test_metrics_rows_become_counters(self):
        trace = chrome_trace(_armed())["traceEvents"]
        counters = [e for e in trace if e["ph"] == "C"]
        assert len(counters) == 1
        assert counters[0]["ts"] == 128
        assert counters[0]["args"]["ipc"] == 2.0

    def test_whole_trace_is_json_serializable(self):
        json.dumps(chrome_trace(_armed()))


class TestSummarize:
    def test_digest_names_kinds_and_latency(self):
        text = summarize(_armed())
        assert "level=events" in text
        assert "fingerprint.compare" in text
        assert "recovery latency" in text


class TestDirectoryEvents:
    """Satellite of the directory backend: its traffic events reach the
    log at ``full`` level and survive the Chrome-trace export."""

    def _directory_run(self):
        import dataclasses

        from repro.isa import assemble
        from repro.sim.cmp import CMPSystem
        from repro.sim.config import CacheStyle, CoherenceStyle, Mode
        from repro.sim.options import SimOptions
        from tests.core.helpers import SMALL
        from tests.core.test_pair_integration import TestInputIncoherence as Race

        config = SMALL.replace(
            n_logical=2,
            cache_style=CacheStyle.SNOOPY,
            bus=dataclasses.replace(SMALL.bus, coherence=CoherenceStyle.DIRECTORY),
        ).with_redundancy(mode=Mode.REUNION, comparison_latency=10)
        system = CMPSystem(
            config,
            [assemble(Race.READER), assemble(Race.WRITER)],
            options=SimOptions(trace="full"),
        )
        system.run_until_idle(max_cycles=200_000)
        assert not system.failed
        return system.obs

    def test_full_level_logs_directory_kinds(self):
        from repro.obs.events import K_DIR_GETM, K_DIR_GETS, K_DIR_GRANT, K_DIR_INVAL

        counts = self._directory_run().log.counts()
        for kind in (K_DIR_GETS, K_DIR_GETM, K_DIR_GRANT, K_DIR_INVAL):
            assert counts[kind] > 0, f"no {kind} records at full level"
        # Every request arbitrates, so grants bound the request kinds.
        assert counts[K_DIR_GRANT] >= counts[K_DIR_GETS] + counts[K_DIR_GETM]

    def test_directory_events_reach_the_chrome_trace(self):
        telemetry = self._directory_run()
        trace = chrome_trace(telemetry, process_name="dir-test")["traceEvents"]
        instants = {e["name"] for e in trace if e["ph"] == "i"}
        assert "dir.grant" in instants
        assert "dir.gets" in instants
        grant = next(
            e for e in trace if e["ph"] == "i" and e["name"] == "dir.grant"
        )
        assert {"bank", "cls", "line_addr"} <= set(grant["args"])

    def test_events_level_stays_quiet(self):
        """dir.* kinds are full-level diagnostics; the default events
        level must not pay for them."""
        import dataclasses

        from repro.isa import assemble
        from repro.sim.cmp import CMPSystem
        from repro.sim.config import CacheStyle, CoherenceStyle, Mode
        from repro.sim.options import SimOptions
        from tests.core.helpers import SMALL

        config = SMALL.replace(
            n_logical=1,
            cache_style=CacheStyle.SNOOPY,
            bus=dataclasses.replace(SMALL.bus, coherence=CoherenceStyle.DIRECTORY),
        ).with_redundancy(mode=Mode.REUNION)
        system = CMPSystem(
            config,
            [assemble("movi r1, 0x400\nload r2, [r1]\nhalt")],
            options=SimOptions(trace="events"),
        )
        system.run_until_idle(max_cycles=100_000)
        counts = system.obs.log.counts()
        assert not any(kind.startswith("dir.") for kind in counts)
