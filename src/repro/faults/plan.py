"""Fault plans: the declarative schedule of a fault-injection campaign.

A :class:`FaultPlan` is to the resilience subsystem what
:class:`~repro.params.MachineConfig` is to the machine: a frozen,
JSON-round-trippable description from which every run is reproducible.
The plan carries one master ``seed`` and a set of :class:`FaultSpec`
entries, one per fault kind; the injector derives an independent,
deterministic random stream per kind (``f"{seed}:{kind}"``), so adding
or removing one spec never perturbs the schedule of the others.

Fault kinds
-----------

==========================  ====================================================
``sram.bitflip``            Transient single-bit upset in a resident L3 block
                            (a particle strike in the physical sub-array).
                            SECDED must correct it on the next scrub pass.
``sram.double-bitflip``     Two bits of one clean, unshared block.  SECDED
                            detects but cannot correct; recovery invalidates
                            the block and refetches it from memory.
``controller.pin-steal``    A forwarded coherence request steals a pinned
                            operand line (Section IV-F); the controller must
                            release, retry, and after ``pin_retry_limit``
                            attempts degrade to the RISC fallback.
``controller.fetch-timeout``An operand fetch times out; drains into the same
                            retry/fallback path as a lost pin.
``directory.duplicate``     A forwarded invalidate/downgrade is delivered
                            twice; the protocol must be idempotent.
``directory.delay``         A forwarded request is delayed by
                            ``params["delay_cycles"]`` extra cycles.
``runner.timeout``          A sweep-runner worker future times out, forcing
                            the retry-then-serial fallback.
``runner.crash``            The worker pool breaks, forcing the serial
                            fallback for all remaining points.
==========================  ====================================================

File I/O lives in :mod:`repro.config_io` (``save_fault_plan`` /
``load_fault_plan``), next to the machine-config serializers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import FaultPlanError

FAULT_KINDS = (
    "sram.bitflip",
    "sram.double-bitflip",
    "controller.pin-steal",
    "controller.fetch-timeout",
    "directory.duplicate",
    "directory.delay",
    "runner.timeout",
    "runner.crash",
)

PLAN_SCHEMA = "repro.fault-plan/1"
PLAN_KEYS = frozenset({"schema", "seed", "faults"})
ENTRY_KEYS = frozenset({"kind", "probability", "max_injections", "params"})
"""The fields of a plan document and of each of its fault entries."""


def _is_count(value: object) -> bool:
    """A JSON integer >= 0 (``true`` is not an integer)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


@dataclass(frozen=True)
class FaultSpec:
    """Schedule for one fault kind.

    ``probability`` is evaluated once per injection opportunity (per
    resident block for SRAM strikes, per hook consultation for
    controller/directory faults, per submitted point for runner chaos);
    ``max_injections`` caps the total (0 = unlimited).  ``params`` holds
    kind-specific knobs (e.g. ``delay_cycles`` for ``directory.delay``).
    """

    kind: str
    probability: float = 1.0
    max_injections: int = 0
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        p = self.probability
        if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
            raise FaultPlanError(
                f"{self.kind}: fault probability must be a number in [0, 1], got {p!r}"
            )
        if not _is_count(self.max_injections):
            raise FaultPlanError(
                f"{self.kind}: max_injections must be an integer >= 0, "
                f"got {self.max_injections!r}"
            )
        if not isinstance(self.params, dict):
            raise FaultPlanError(
                f"{self.kind}: params must be an object, got {self.params!r}")
        delay = self.params.get("delay_cycles", 0)
        if self.kind == "directory.delay" and not _is_count(delay):
            raise FaultPlanError(
                f"{self.kind}: params.delay_cycles must be an integer >= 0, got {delay!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, reproducible fault campaign description."""

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise FaultPlanError(f"fault-plan seed must be an integer, got {self.seed!r}")
        kinds = [s.kind for s in self.specs]
        dupes = {k for k in kinds if kinds.count(k) > 1}
        if dupes:
            raise FaultPlanError(f"duplicate fault specs for {sorted(dupes)}")
        object.__setattr__(self, "specs", tuple(self.specs))

    def kinds(self) -> frozenset[str]:
        return frozenset(s.kind for s in self.specs)

    # -- serialization (see repro.config_io for file helpers) -----------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": PLAN_SCHEMA,
            "seed": self.seed,
            "faults": [
                {
                    "kind": s.kind,
                    "probability": s.probability,
                    "max_injections": s.max_injections,
                    "params": dict(s.params),
                }
                for s in self.specs
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "FaultPlan":
        if not isinstance(doc, dict):
            raise FaultPlanError(
                f"fault-plan document must be a JSON object, not {type(doc).__name__}")
        schema = doc.get("schema")
        if schema != PLAN_SCHEMA:
            raise FaultPlanError(f"unsupported fault-plan schema {schema!r}")
        unknown = sorted(set(doc) - PLAN_KEYS, key=str)
        if unknown:
            raise FaultPlanError(f"unknown fault-plan field {unknown[0]!r}")
        try:
            entries = doc["faults"]
            if not isinstance(entries, list):
                raise FaultPlanError(f"fault-plan faults must be a list, got {entries!r}")
            specs = []
            for entry in entries:
                if not isinstance(entry, dict):
                    raise FaultPlanError(f"fault entry must be an object, got {entry!r}")
                unknown = sorted(set(entry) - ENTRY_KEYS, key=str)
                if unknown:
                    raise FaultPlanError(f"unknown fault-entry field {unknown[0]!r}")
                specs.append(FaultSpec(
                    kind=entry["kind"],
                    probability=entry.get("probability", 1.0),
                    max_injections=entry.get("max_injections", 0),
                    params=entry.get("params", {}),
                ))
            return cls(seed=doc["seed"], specs=tuple(specs))
        except KeyError as exc:
            raise FaultPlanError(f"fault-plan document missing field {exc}") from None
        except TypeError as exc:
            raise FaultPlanError(f"malformed fault-plan document: {exc}") from None


def default_plan(seed: int = 0) -> FaultPlan:
    """The standard campaign: every fault kind, bounded injection counts.

    Probabilities are tuned so a campaign over the built-in workload
    exercises every degradation path the paper describes (ECC scrub
    correction, refetch on detected-uncorrectable, pin-retry, RISC
    fallback, directory idempotence, runner serial fallback) in a few
    seconds of simulation.
    """
    return FaultPlan(seed=seed, specs=(
        FaultSpec("sram.bitflip", probability=0.25, max_injections=16),
        FaultSpec("sram.double-bitflip", probability=0.15, max_injections=3),
        FaultSpec("controller.pin-steal", probability=0.45, max_injections=8),
        FaultSpec("controller.fetch-timeout", probability=0.3, max_injections=5),
        FaultSpec("directory.duplicate", probability=0.6, max_injections=6),
        FaultSpec("directory.delay", probability=0.6, max_injections=6,
                  params={"delay_cycles": 24}),
        FaultSpec("runner.timeout", probability=0.6, max_injections=2),
        FaultSpec("runner.crash", probability=0.5, max_injections=1),
    ))
