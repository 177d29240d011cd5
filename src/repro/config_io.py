"""Machine-configuration serialization (reproducibility plumbing).

Experiments should be re-runnable from a recorded configuration.  These
helpers turn a :class:`~repro.params.MachineConfig` into a plain dict /
JSON document and back, with full round-trip fidelity::

    doc = config_to_dict(machine.config)
    json.dump(doc, open("machine.json", "w"))
    ...
    config = config_from_dict(json.load(open("machine.json")))
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, fields
from typing import Any

from .errors import ConfigError, FaultPlanError
from .params import MachineConfig, TopologyConfig

SCHEMA = "repro.machine-config/1"
_UNSERIALIZED = ("trace_events", "event_buffer_capacity")
"""Observability settings: they cannot change a simulated number, so they
stay out of the document and its digest."""
_FIELDS = tuple(f for f in fields(MachineConfig) if f.name not in _UNSERIALIZED)
_SECTIONS = {f.name: type(f.default_factory()) for f in _FIELDS
             if f.default_factory is not MISSING}
"""The nested sections (``core``, ``l1d``, ..., ``topology``) and their
dataclasses."""
_OPTIONAL = ("backend", "topology")
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}
"""The JSON values a field of each annotated type accepts.  ``true`` and
``false`` are not numbers here, although Python's ``bool`` is an ``int``."""


def config_to_dict(config: MachineConfig) -> dict[str, Any]:
    """Serialize a machine configuration to plain data.

    Every field of :class:`~repro.params.MachineConfig` and of its sections
    is in the document except the observability settings
    (``trace_events``, ``event_buffer_capacity``): they cannot change
    simulation results, so two configs differing only in tracing
    serialize (and hash, see :func:`config_digest`) identically.

    ``topology`` appears in the document only when it differs from the
    default flat machine, so flat machines keep the documents (and
    digests) they had before multi-cluster topologies existed.
    """
    doc: dict[str, Any] = {"schema": SCHEMA}
    for f in _FIELDS:
        value = getattr(config, f.name)
        if f.name == "topology" and value == TopologyConfig():
            continue
        if f.name in _SECTIONS:
            value = {g.name: getattr(value, g.name) for g in fields(value)}
        doc[f.name] = value
    return doc


def _unknown_key(doc: dict[str, Any], known, where: str) -> None:
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown config field {key!r}{where}")


def _check_types(cls, values: dict[str, Any], where: str) -> None:
    for f in fields(cls):
        if f.name in values and f.type in _JSON_TYPES:
            value = values[f.name]
            if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[f.type]):
                raise ConfigError(
                    f"config field {f.name!r}{where} must be {f.type}, not {value!r}")


def config_from_dict(doc: dict[str, Any]) -> MachineConfig:
    """Rebuild a machine configuration; validates on construction.

    A key that is not a field of the configuration (or ``schema``) is an
    error naming it, so a document from another version cannot load with a
    field silently dropped.  So is a value whose JSON type does not match
    its field's annotation.  Top-level fields other than ``backend`` and
    ``topology`` are required; a missing section field takes its default.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"config document must be a JSON object, not {type(doc).__name__}")
    schema = doc.get("schema")
    if schema != SCHEMA:
        raise ConfigError(f"unsupported config schema {schema!r}")
    _unknown_key(doc, {"schema", *(f.name for f in _FIELDS)}, "")
    _check_types(MachineConfig, doc, "")
    kwargs: dict[str, Any] = {}
    for f in _FIELDS:
        if f.name not in doc:
            if f.name in _OPTIONAL:
                continue
            raise ConfigError(f"config document missing field {f.name!r}")
        value = doc[f.name]
        section = _SECTIONS.get(f.name)
        if section is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {f.name!r} must be an object")
            where = f" in section {f.name!r}"
            _unknown_key(value, {g.name for g in fields(section)}, where)
            _check_types(section, value, where)
            try:
                value = section(**value)
            except TypeError as exc:
                raise ConfigError(f"malformed {f.name} section: {exc}") from None
            except ConfigError as exc:
                raise ConfigError(f"{exc}{where}") from None
        kwargs[f.name] = value
    try:
        return MachineConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"malformed config document: {exc}") from None


def config_to_json(config: MachineConfig, indent: int = 2) -> str:
    return json.dumps(config_to_dict(config), indent=indent, sort_keys=True)


def canonical_json(doc: Any) -> str:
    """Deterministic minimal JSON encoding (sorted keys, no whitespace) —
    the form hashed by :func:`config_digest` and the sweep runner's
    result-cache keys."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=float)


def config_digest(config: MachineConfig) -> str:
    """Content hash of a machine configuration.

    Stable across processes and Python versions (it hashes the canonical
    JSON serialization, not ``repr``); used by
    :mod:`repro.bench.runner` as the ``config`` component of a simulation
    point's cache key.
    """
    return hashlib.sha256(canonical_json(config_to_dict(config)).encode()).hexdigest()


def _parse_json(text: str, error: type[ConfigError]) -> Any:
    """Decode a JSON document; a syntax error becomes ``error`` with its
    line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"not a JSON document: {exc}") from None


def config_from_json(text: str) -> MachineConfig:
    return config_from_dict(_parse_json(text, ConfigError))


def save_config(config: MachineConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(config_to_json(config))


def load_config(path: str) -> MachineConfig:
    with open(path, encoding="utf-8") as handle:
        return config_from_json(handle.read())


# -- fault plans (repro.faults) ------------------------------------------------------


def fault_plan_to_json(plan, indent: int = 2) -> str:
    return json.dumps(plan.to_dict(), indent=indent, sort_keys=True)


def fault_plan_from_json(text: str):
    from .faults.plan import FaultPlan

    return FaultPlan.from_dict(_parse_json(text, FaultPlanError))


def save_fault_plan(plan, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(fault_plan_to_json(plan))


def load_fault_plan(path: str):
    with open(path, encoding="utf-8") as handle:
        return fault_plan_from_json(handle.read())
