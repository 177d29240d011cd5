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
from typing import Any

from .errors import ConfigError
from .params import (
    CacheLevelConfig,
    ComputeCacheConfig,
    CoreConfig,
    MachineConfig,
    MemoryConfig,
    RingConfig,
    TopologyConfig,
)

_LEVEL_FIELDS = ("name", "size", "ways", "banks", "bps_per_bank",
                 "hit_latency", "block_size")
_CORE_FIELDS = ("frequency_ghz", "load_queue_entries", "store_queue_entries",
                "vector_lsq_entries", "simd_width", "epi_scalar", "epi_simd",
                "epi_cc", "static_power_core_mw")
_RING_FIELDS = ("hop_latency", "link_width_bits", "stops",
                "energy_per_hop_per_flit")
_MEMORY_FIELDS = ("latency", "energy_per_block", "bandwidth_blocks_per_cycle")
_CC_FIELDS = ("inplace_latency", "nearplace_latency", "max_activated_wordlines",
              "max_operand_bytes", "cmp_search_max_bytes", "search_key_bytes",
              "pin_retry_limit", "area_overhead_fraction", "commands_per_cycle")
_TOPOLOGY_FIELDS = ("clusters", "inter_hop_latency", "inter_link_width_bits",
                    "inter_energy_per_hop_per_flit", "slice_interleave")


def _dump(obj: Any, fields: tuple[str, ...]) -> dict[str, Any]:
    return {f: getattr(obj, f) for f in fields}


def config_to_dict(config: MachineConfig) -> dict[str, Any]:
    """Serialize a machine configuration to plain data.

    ``backend`` (the functional execution backend) is part of the
    document; observability settings (``trace_events``,
    ``event_buffer_capacity``) are deliberately *not* — they cannot change
    simulation results, so two configs differing only in tracing
    serialize (and hash, see :func:`config_digest`) identically.

    ``topology`` appears in the document only when it differs from the
    default flat machine, so every document (and digest) produced before
    multi-cluster topologies existed remains byte-identical — and the
    sweep runner's on-disk cache entries for flat configs stay valid.
    """
    doc = {
        "schema": "repro.machine-config/1",
        "backend": config.backend,
        "cores": config.cores,
        "l3_slices": config.l3_slices,
        "memory_size": config.memory_size,
        "static_power_uncore_mw": config.static_power_uncore_mw,
        "core": _dump(config.core, _CORE_FIELDS),
        "l1d": _dump(config.l1d, _LEVEL_FIELDS),
        "l1i": _dump(config.l1i, _LEVEL_FIELDS),
        "l2": _dump(config.l2, _LEVEL_FIELDS),
        "l3_slice": _dump(config.l3_slice, _LEVEL_FIELDS),
        "ring": _dump(config.ring, _RING_FIELDS),
        "memory": _dump(config.memory, _MEMORY_FIELDS),
        "cc": _dump(config.cc, _CC_FIELDS),
    }
    if config.topology != TopologyConfig():
        doc["topology"] = _dump(config.topology, _TOPOLOGY_FIELDS)
    return doc


def config_from_dict(doc: dict[str, Any]) -> MachineConfig:
    """Rebuild a machine configuration; validates on construction."""
    schema = doc.get("schema")
    if schema != "repro.machine-config/1":
        raise ConfigError(f"unsupported config schema {schema!r}")
    extra: dict[str, Any] = {}
    if "backend" in doc:
        extra["backend"] = doc["backend"]
    if "topology" in doc:
        try:
            extra["topology"] = TopologyConfig(**doc["topology"])
        except TypeError as exc:
            raise ConfigError(f"malformed topology section: {exc}") from None
    try:
        return MachineConfig(
            **extra,
            cores=doc["cores"],
            l3_slices=doc["l3_slices"],
            memory_size=doc["memory_size"],
            static_power_uncore_mw=doc["static_power_uncore_mw"],
            core=CoreConfig(**doc["core"]),
            l1d=CacheLevelConfig(**doc["l1d"]),
            l1i=CacheLevelConfig(**doc["l1i"]),
            l2=CacheLevelConfig(**doc["l2"]),
            l3_slice=CacheLevelConfig(**doc["l3_slice"]),
            ring=RingConfig(**doc["ring"]),
            memory=MemoryConfig(**doc["memory"]),
            cc=ComputeCacheConfig(**doc["cc"]),
        )
    except KeyError as exc:
        raise ConfigError(f"config document missing field {exc}") from None
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


def config_from_json(text: str) -> MachineConfig:
    return config_from_dict(json.loads(text))


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

    return FaultPlan.from_dict(json.loads(text))


def save_fault_plan(plan, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(fault_plan_to_json(plan))


def load_fault_plan(path: str):
    with open(path, encoding="utf-8") as handle:
        return fault_plan_from_json(handle.read())
