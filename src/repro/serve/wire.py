"""Wire codec: jobs and results as the JSON the cache already speaks.

A job's canonical payload (:meth:`~repro.exec.jobs.SampleJob.payload`)
is a complete, deterministic description of the simulation — that is
why hashing it yields the cache key.  The wire format leans on that:
a submitted job travels as ``{"kind": ..., "job": <payload>}`` and the
daemon reconstructs the typed job object from the payload alone, so
client and daemon agree on the key *by construction* (the round-trip
test pins ``job_from_wire(job_to_wire(j)).key == j.key``).

Reconstruction is a generic typed decoder over the config dataclasses:
:func:`~repro.exec.jobs.config_payload` renders dataclasses as sorted
field dicts and enums as their values; :func:`decode_dataclass` inverts
that using the dataclass type hints (nested dataclasses, enums,
``tuple[X, ...]``, ``Optional``).

Results travel as the same encodings the cache stores (``Sample`` /
``Outcome`` field dicts), so a daemon-served sweep renders
byte-identically to an in-process one.
"""

from __future__ import annotations

import dataclasses
import enum
import types
import typing
from typing import Any, Union

from repro.campaign.outcome import TAXONOMY, GoldenReference, Outcome
from repro.campaign.plan import CAMPAIGN_SCHEMA_VERSION, InjectionJob, InjectionSpec
from repro.exec.cache import decode_sample, encode_sample
from repro.exec.jobs import SCHEMA_VERSION, SampleJob
from repro.sim.config import SystemConfig
from repro.sim.sampling import Sample

#: Job kinds the service executes.
JOB_KINDS = ("sample", "injection")


class WireError(ValueError):
    """A wire payload does not decode to a valid job or result."""


def decode_value(annotation: Any, value: Any) -> Any:
    """Decode one payload value against a type annotation."""
    origin = typing.get_origin(annotation)
    if origin is Union or origin is types.UnionType:  # X | None and Optional[X]
        args = typing.get_args(annotation)
        if value is None and type(None) in args:
            return None
        last_error: Exception | None = None
        for arg in args:
            if arg is type(None):
                continue
            try:
                return decode_value(arg, value)
            except (TypeError, ValueError, KeyError) as exc:
                last_error = exc
        raise WireError(f"no Union arm of {annotation} accepts {value!r}") from last_error
    if origin is tuple:
        args = typing.get_args(annotation)
        if not isinstance(value, (list, tuple)):
            raise WireError(f"expected a sequence for {annotation}, got {value!r}")
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(decode_value(args[0], item) for item in value)
        if len(args) != len(value):
            raise WireError(f"expected {len(args)} items for {annotation}")
        return tuple(decode_value(arg, item) for arg, item in zip(args, value))
    if dataclasses.is_dataclass(annotation) and isinstance(annotation, type):
        return decode_dataclass(annotation, value)
    if isinstance(annotation, type) and issubclass(annotation, enum.Enum):
        return annotation(value)
    if annotation is float and isinstance(value, int):
        # JSON renders 1.0 as 1; the dataclass wants the float back.
        return float(value)
    if annotation is bool:
        if not isinstance(value, bool):
            raise WireError(f"expected a bool, got {value!r}")
        return value
    if annotation in (int, str) and not isinstance(value, annotation):
        raise WireError(f"expected {annotation.__name__}, got {value!r}")
    return value


def decode_dataclass(cls: type, payload: Any) -> Any:
    """Invert :func:`~repro.exec.jobs.config_payload` for ``cls``.

    Missing fields fall back to their declared defaults.
    """
    if not isinstance(payload, dict):
        raise WireError(f"expected a field dict for {cls.__name__}, got {payload!r}")
    hints = typing.get_type_hints(cls)
    kwargs: dict[str, Any] = {}
    for field in dataclasses.fields(cls):
        if field.name in payload:
            kwargs[field.name] = decode_value(hints[field.name], payload[field.name])
        elif (
            field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING
        ):
            raise WireError(f"{cls.__name__} payload missing required {field.name!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise WireError(f"cannot build {cls.__name__} from payload: {exc}") from exc


# -- jobs -------------------------------------------------------------------


def job_to_wire(job: SampleJob | InjectionJob) -> dict:
    """Render a job for submission (its canonical payload plus a kind tag)."""
    if isinstance(job, SampleJob):
        return {"kind": "sample", "job": job.payload()}
    if isinstance(job, InjectionJob):
        return {"kind": "injection", "job": job.payload()}
    raise WireError(f"cannot serialize job of type {type(job).__name__}")


def job_from_wire(wire: dict) -> SampleJob | InjectionJob:
    """Reconstruct the typed job from its wire rendering.

    The reconstructed job recomputes the same content-hash key the
    submitter had, because the payload *is* what the key hashes.
    """
    kind = wire.get("kind")
    payload = wire.get("job")
    if not isinstance(payload, dict):
        raise WireError("wire job missing its payload")
    if kind == "sample":
        if payload.get("schema") != SCHEMA_VERSION:
            raise WireError(
                f"sample schema {payload.get('schema')!r} != {SCHEMA_VERSION}"
            )
        return SampleJob(
            config=decode_dataclass(SystemConfig, payload["config"]),
            workload_name=payload["workload"],
            seed=payload["seed"],
            warmup=payload["warmup"],
            measure=payload["measure"],
        )
    if kind == "injection":
        if payload.get("schema") != CAMPAIGN_SCHEMA_VERSION:
            raise WireError(
                f"campaign schema {payload.get('schema')!r} != "
                f"{CAMPAIGN_SCHEMA_VERSION}"
            )
        return InjectionJob(
            config=decode_dataclass(SystemConfig, payload["config"]),
            spec=decode_dataclass(InjectionSpec, payload["spec"]),
        )
    raise WireError(f"unknown job kind {kind!r}; use one of {JOB_KINDS}")


# -- results ----------------------------------------------------------------


def result_to_wire(kind: str, value: Sample | Outcome) -> dict:
    """Encode one result exactly the way the cache stores it."""
    if kind == "sample":
        return encode_sample(value)
    if kind == "injection":
        return dataclasses.asdict(value)
    raise WireError(f"unknown result kind {kind!r}")


def result_from_wire(kind: str, payload: dict) -> Sample | Outcome:
    if kind == "sample":
        return decode_sample(payload)
    if kind == "injection":
        fields = {f.name for f in dataclasses.fields(Outcome)}
        if set(payload) != fields:
            raise WireError("outcome payload field mismatch")
        outcome = Outcome(**payload)
        if outcome.classification not in TAXONOMY:
            raise WireError(f"bad classification {outcome.classification!r}")
        return outcome
    raise WireError(f"unknown result kind {kind!r}")


# -- golden references ------------------------------------------------------


def golden_to_wire(golden: GoldenReference) -> dict:
    return dataclasses.asdict(golden)


def golden_from_wire(payload: dict) -> GoldenReference:
    fields = {f.name for f in dataclasses.fields(GoldenReference)}
    if not isinstance(payload, dict) or set(payload) != fields:
        raise WireError("golden payload field mismatch")
    return GoldenReference(**payload)
