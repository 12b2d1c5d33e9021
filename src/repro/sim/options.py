"""SimOptions: the one place simulation-run knobs are resolved.

:class:`SimOptions` is one frozen object with a single environment
resolver, :meth:`SimOptions.from_env`, so CLI commands, the experiment
harness and tests all agree on what a "default" run is.

Field semantics:

* ``kernel`` selects *how* the simulation is computed, never *what* it
  computes — it carries a bit-identity contract (see
  docs/ARCHITECTURE.md, "Simulation kernel") enforced by differential
  tests and every ``repro bench`` run.
* ``trace`` arms the :mod:`repro.obs` telemetry subsystem.  Telemetry
  observes and never mutates, so it is likewise contracted to leave
  results bit-identical (enforced by ``tests/sim/test_telemetry.py`` and
  the bench telemetry comparison).
* ``max_cycles`` bounds ``run_until_idle``; ``seed`` is the workload
  seed CLI commands thread through to program generation.

Every field is therefore result-neutral for a job (``seed`` participates
in results, but :class:`~repro.exec.jobs.SampleJob` carries it as its
own field), so no option contributes to job content-hash keys.  A field
that *does* change results belongs in the hashed
:class:`~repro.sim.config.SystemConfig` instead.  The memory-backend
selector is the example: ``REPRO_COHERENCE`` (shared / snoopy /
directory) changes results, so :func:`repro.sim.config.apply_env_coherence`
rewrites the config itself and it never appears here.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Mapping

#: Telemetry levels, weakest to strongest.  Each level includes the
#: previous one:
#:
#: * ``off``     — telemetry object not even constructed; zero cost.
#: * ``metrics`` — per-interval time series only (no event records).
#: * ``events``  — ring-buffered records of the rare, load-bearing
#:   events (fingerprint comparisons, recoveries, synchronizing and
#:   phantom requests, fault injections).
#: * ``full``    — adds the high-frequency diagnostics (per-interval
#:   fingerprint closes, cache evictions / dropped mute writebacks).
TRACE_LEVELS = ("off", "metrics", "events", "full")

_KERNELS = ("event", "naive")


@dataclass(frozen=True)
class SimOptions:
    """Everything about a simulation run that is not the system config.

    :class:`~repro.sim.config.SystemConfig` describes the simulated
    *machine*; ``SimOptions`` describes the *simulation* of it — which
    kernel computes it, how much telemetry to record, how long to run.
    Frozen and hashable, so it can ride along in job descriptors and
    across process boundaries.
    """

    kernel: str = "event"
    trace: str = "off"
    trace_capacity: int = 65_536  # event ring-buffer size (records)
    max_cycles: int = 1_000_000  # run_until_idle bound
    seed: int = 0  # workload seed (CLI convenience)

    def __post_init__(self) -> None:
        if self.kernel not in _KERNELS:
            raise ValueError(
                f"unknown simulation kernel {self.kernel!r}; use 'event' or 'naive'"
            )
        if self.trace not in TRACE_LEVELS:
            raise ValueError(
                f"unknown trace level {self.trace!r}; use one of {TRACE_LEVELS}"
            )
        if self.trace_capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")

    @property
    def telemetry_armed(self) -> bool:
        return self.trace != "off"

    def replace(self, **kwargs: Any) -> "SimOptions":
        return dataclasses.replace(self, **kwargs)

    @classmethod
    def from_env(
        cls, env: Mapping[str, str] | None = None, **overrides: Any
    ) -> "SimOptions":
        """Resolve options from the environment, explicit values winning.

        The *only* place ``REPRO_KERNEL`` / ``REPRO_TRACE`` /
        ``REPRO_TRACE_CAPACITY`` are consulted.  ``overrides`` mirror
        the dataclass fields; ``None`` values mean "not specified" and
        fall through to the environment (and from there to the field
        default), so argparse results can be passed straight in.
        """
        if env is None:
            env = os.environ
        # Empty strings mean "unset" (a CI matrix leg that doesn't pin a
        # knob exports the variable as "") — same convention as
        # REPRO_COHERENCE in repro.sim.config.
        values: dict[str, Any] = {
            "kernel": env.get("REPRO_KERNEL") or cls.kernel,
            "trace": env.get("REPRO_TRACE") or cls.trace,
        }
        capacity = env.get("REPRO_TRACE_CAPACITY", "").strip()
        if capacity:
            values["trace_capacity"] = int(capacity)
        values.update(
            {name: value for name, value in overrides.items() if value is not None}
        )
        return cls(**values)
