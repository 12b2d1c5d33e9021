"""Telemetry exporters: JSONL event logs and Chrome ``trace_event`` JSON.

Two renderings of one armed :class:`~repro.obs.events.Telemetry`:

* :func:`write_jsonl` — one JSON object per line: every buffered event
  (oldest first), then the metrics rows (``"kind": "metrics.sample"``),
  then one trailer summarizing the run.  ``grep``- and ``jq``-friendly;
  the format the differential tests diff.
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` JSON object format (load in ``chrome://tracing`` or
  Perfetto).  One simulated cycle is rendered as one microsecond.
  Instant events carry the taxonomy kinds; recovery episodes
  (``recovery.start`` → ``recovery.resume``) become duration ("X")
  slices; metrics rows become counter ("C") tracks (IPC, fingerprint
  bandwidth, sync rate).

Both formats are pure functions of the telemetry object — exporting
never touches the simulator.
"""

from __future__ import annotations

import json
from typing import IO, Any

from repro.obs.events import (
    Event,
    K_RECOVERY_RESUME,
    K_RECOVERY_START,
    Telemetry,
)

#: Kind pairs folded into Chrome duration slices: open kind -> (close
#: kind, slice name).  Pairing is per-source and strictly sequential.
_DURATION_PAIRS = {
    K_RECOVERY_START: (K_RECOVERY_RESUME, "recovery"),
}


def event_lines(telemetry: Telemetry) -> list[dict[str, Any]]:
    """Every JSONL record, in emission order, as dicts."""
    lines: list[dict[str, Any]] = [event.to_dict() for event in telemetry.log]
    for row in telemetry.metrics.rows:
        record = {"kind": "metrics.sample", "source": "metrics"}
        record.update(row.to_dict())
        lines.append(record)
    lines.append(
        {
            "kind": "summary",
            "source": "obs",
            "level": telemetry.level,
            "events_emitted": telemetry.log.emitted,
            "events_dropped": telemetry.log.dropped,
            "events_buffered": len(telemetry.log),
            "metrics_rows": len(telemetry.metrics.rows),
            "recovery_latency_histogram": telemetry.metrics.latency_histogram(),
        }
    )
    return lines


def write_jsonl(telemetry: Telemetry, handle: IO[str]) -> int:
    """Write the JSONL rendering; returns the number of lines."""
    lines = event_lines(telemetry)
    for record in lines:
        handle.write(json.dumps(record, sort_keys=True))
        handle.write("\n")
    return len(lines)


def _thread_ids(events: list[Event]) -> dict[str, int]:
    """Stable source -> tid mapping (sorted so reruns agree)."""
    return {source: tid for tid, source in enumerate(sorted({e.source for e in events}))}


def chrome_trace(telemetry: Telemetry, process_name: str = "reunion-sim") -> dict:
    """The Chrome trace_event "JSON object format" rendering."""
    events = telemetry.log.snapshot()
    tids = _thread_ids(events)
    trace: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for source, tid in tids.items():
        trace.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": source},
            }
        )

    #: (source, open kind) -> pending open event, for duration pairing.
    open_slices: dict[tuple[str, str], Event] = {}
    for event in events:
        tid = tids[event.source]
        if event.kind in _DURATION_PAIRS:
            open_slices[(event.source, event.kind)] = event
            continue
        closed = False
        for open_kind, (close_kind, slice_name) in _DURATION_PAIRS.items():
            if event.kind != close_kind:
                continue
            start = open_slices.pop((event.source, open_kind), None)
            if start is None:
                break  # unmatched close (start fell off the ring): instant
            args = dict(start.args)
            args.update(event.args)
            trace.append(
                {
                    "name": slice_name,
                    "cat": "sim",
                    "ph": "X",
                    "ts": start.cycle,
                    "dur": max(event.cycle - start.cycle, 1),
                    "pid": 0,
                    "tid": tid,
                    "args": args,
                }
            )
            closed = True
            break
        if closed:
            continue
        trace.append(
            {
                "name": event.kind,
                "cat": "sim",
                "ph": "i",
                "ts": event.cycle,
                "pid": 0,
                "tid": tid,
                "s": "t",
                "args": event.args,
            }
        )
    # Still-open slices (run ended mid-episode) render as instants.
    for (source, open_kind), start in open_slices.items():
        trace.append(
            {
                "name": open_kind,
                "cat": "sim",
                "ph": "i",
                "ts": start.cycle,
                "pid": 0,
                "tid": tids[source],
                "s": "t",
                "args": start.args,
            }
        )
    for row in telemetry.metrics.rows:
        trace.append(
            {
                "name": "metrics",
                "ph": "C",
                "ts": row.cycle,
                "pid": 0,
                "tid": 0,
                "args": {
                    "ipc": row.ipc,
                    "fp_bandwidth_bits_per_cycle": row.fp_bandwidth_bits_per_cycle,
                    "sync_per_kcycle": row.sync_per_kcycle,
                },
            }
        )
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def write_chrome_trace(
    telemetry: Telemetry, handle: IO[str], process_name: str = "reunion-sim"
) -> int:
    """Write the Chrome trace; returns the number of trace events."""
    payload = chrome_trace(telemetry, process_name)
    json.dump(payload, handle, sort_keys=True)
    handle.write("\n")
    return len(payload["traceEvents"])


def summarize(telemetry: Telemetry) -> str:
    """A terminal-friendly digest of an armed run's telemetry."""
    counts = telemetry.log.counts()
    lines = [
        f"telemetry level={telemetry.level} "
        f"events={telemetry.log.emitted} (buffered {len(telemetry.log)}, "
        f"dropped {telemetry.log.dropped}) metrics_rows={len(telemetry.metrics.rows)}"
    ]
    for kind in sorted(counts):
        lines.append(f"  {kind:<24}{counts[kind]:>8}")
    histogram = telemetry.metrics.latency_histogram()
    if histogram:
        rendered = ", ".join(
            f"{bucket}: {count}" for bucket, count in sorted(histogram.items())
        )
        lines.append(f"  recovery latency (cycles) {rendered}")
    return "\n".join(lines)
