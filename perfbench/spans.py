"""Outside-in span recorder for the traced run.

Nothing under ``src/`` knows it is being traced.  After a ``CMPSystem`` is
built, :func:`instrument_system` replaces the bound methods the event
kernel and the flat (SoA) core loop look up on every call with wrappers
that open a span.  The lookups are per call, so the wrappers see every
call: ``core.step`` and ``core.next_event`` (instance attributes already),
the retire gate's ``offer_f`` / ``pop_retirable_f``, ``pair.step`` /
``pair.next_event``, the memory port's ``load_f`` / ``store_f`` /
``rmw_read`` / ``rmw_write`` and the controller's ``vocal_read``,
``vocal_write``, ``phantom_read``, ``synchronizing_access`` and
``next_event``.

What the wrappers cannot see: ``OoOCore._dtlb_lookup`` is hoisted into the
core at construction (a bound method of the DTLB stored on the core), so
DTLB lookups are charged to ``core.step``'s self time.  Other hoisted or
inlined calls inside the fused step are likewise part of that self time.

Every span records name, start, end, parent span and run id.  Spans stay
in memory (packed arrays) and :meth:`Recorder.write` saves them once the
run is over.  A layer's self time is its span durations minus the part
covered by child spans, accumulated as spans close.
"""

from __future__ import annotations

import json
import threading
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable

#: Retire-gate classes by the label their metrics carry.
GATE_LABELS = {"ImmediateGate": "immediate", "CheckGate": "check", "StrictCheckGate": "strict"}
#: Memory backends by the label their controller metrics carry.
BACKEND_LABELS = {"SharedL2Controller": "shared", "SnoopyBus": "snoopy", "DirectoryBackend": "directory"}


class Recorder:
    """Spans in packed arrays plus per-name self time and call counts."""

    def __init__(self, threads: bool = False) -> None:
        #: Spans may open on several threads: each wrapped call then holds
        #: a lock, so one thread's spans never interleave with another's.
        self.threads = threads
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.calls: list[int] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_run = array("i")
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._lock = threading.RLock()
        #: Identifier shared by the spans of one job (one sample).
        self.run_id = 0

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return nid

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._name_id(name)
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, runs = self.span_parent, self.span_run
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        recorder = self

        def span(*args, **kwargs):
            start = perf_counter()
            index = len(ends)
            names.append(nid)
            starts.append(start)
            ends.append(start)
            parents.append(stack[-1][0] if stack else -1)
            runs.append(recorder.run_id)
            frame = [index, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                ends[index] = end
                duration = end - start
                self_s[nid] += duration - frame[1]
                total_s[nid] += duration
                calls[nid] += 1
                if stack:
                    stack[-1][1] += duration

        if not self.threads:
            return span
        lock = self._lock

        def locked(*args, **kwargs):
            with lock:
                return span(*args, **kwargs)

        return locked

    def wrap_attr(self, obj, attr: str, name: str) -> None:
        """Replace ``obj.attr`` by a recording wrapper.

        Objects whose class declares ``__slots__`` (the immediate retire
        gate) take no instance attributes; those are moved to a subclass
        that overrides only ``attr``, which keeps their layout and every
        ``isinstance`` answer.
        """
        try:
            setattr(obj, attr, self.wrap(getattr(obj, attr), name))
        except AttributeError:
            cls = type(obj)
            wrapped = self.wrap(getattr(cls, attr), name)
            obj.__class__ = type(cls.__name__, (cls,), {"__slots__": (), attr: wrapped})

    def seconds(self, name: str, inclusive: bool = False) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        return (self.total_s if inclusive else self.self_s)[nid]

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def write(self, path: Path, **meta) -> None:
        """Save every span: ``path`` (JSON header) and ``path.bin`` (arrays).

        ``meta`` (workload, seed) goes into the header as given.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("span_name", "span_start", "span_end", "span_parent", "span_run")
        with open(path.with_name(path.name + ".bin"), "wb") as handle:
            for column in columns:
                getattr(self, column).tofile(handle)
        header = {
            **meta,
            "names": self.names,
            "spans": len(self.span_end),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
        }
        path.write_text(json.dumps(header) + "\n")


def instrument_system(recorder: Recorder, system) -> None:
    """Wrap every per-call lookup of a freshly built ``CMPSystem``."""
    wrap = recorder.wrap_attr
    wrap(system, "run", "sim.run")
    for core in system.cores:
        wrap(core, "step", "pipeline.core_step")
        wrap(core, "next_event", "sim.kernel.horizon")
        label = GATE_LABELS[type(core.gate).__name__]
        wrap(core.gate, "offer_f", f"core.gate.offer.{label}")
        wrap(core.gate, "pop_retirable_f", f"core.gate.release.{label}")
        port = core.port
        wrap(port, "load_f", "memory.port.load")
        wrap(port, "store_f", "memory.port.store")
        wrap(port, "rmw_read", "memory.port.rmw")
        wrap(port, "rmw_write", "memory.port.rmw")
    for pair in system.pairs:
        wrap(pair, "step", "core.pair.step")
        wrap(pair, "next_event", "sim.kernel.horizon")
    controller = system.controller
    backend = BACKEND_LABELS[type(controller).__name__]
    for attr, op in (
        ("vocal_read", "vocal_read"),
        ("phantom_read", "phantom_read"),
        ("vocal_write", "vocal_write"),
        ("synchronizing_access", "sync_access"),
    ):
        wrap(controller, attr, f"memory.ctrl.{op}.{backend}")
    wrap(controller, "next_event", "sim.kernel.horizon")
