"""The fault injector: deterministic delivery of a :class:`FaultPlan`.

One :class:`FaultInjector` attaches to one machine.  It installs the
fault hooks the simulator exposes (``contention_hook`` and
``fetch_fault_hook`` on every controller, ``coherence_fault_hook`` on the
hierarchy) and drives the SRAM particle strikes plus the ECC recovery
scrub between operations (:meth:`pulse`).

Determinism: each fault kind draws from its own
``random.Random(f"{seed}:{kind}")`` stream, and every injection
opportunity (a hook consultation, a resident block visited by a pulse)
occurs at a simulation-determined point that is identical across the
``packed`` and ``bitexact`` backends.  The same plan therefore produces
the same fault schedule — and the same resilience report — on both
backends and across reruns.

Every injection emits a ``fault.inject`` event and every recovery a
``fault.recover`` event through the machine's tracer, so the injector
needs a machine built with ``trace_events=True``.  The ``fault.recover``
events are the one record of recoveries, whoever recovered (the scrub
here, the controller's retries, the directory): :func:`recoveries`
counts them.
"""

from __future__ import annotations

import random
from collections import Counter

from ..core.scrub import ScrubService
from ..errors import ConfigError, ECCError
from .plan import FaultPlan

_BITS_PER_BLOCK = 64 * 8


def recoveries(tracer) -> Counter:
    """Recovery actions of a traced run by ``outcome`` (``corrected``,
    ``refetched``, ``retried``, ...), counted from its ``fault.recover``
    events; an outcome that never happened counts 0."""
    if tracer.dropped:
        raise ConfigError(f"the tracer dropped {tracer.dropped} events; "
                          "recoveries cannot be counted")
    return Counter(e.outcome for e in tracer.by_kind("fault.recover"))


class FaultInjector:
    """Deliver a plan's faults into a live machine, deterministically."""

    def __init__(self, machine, plan: FaultPlan) -> None:
        if machine.tracer is None:
            raise ConfigError("fault injection records every injection and "
                              "recovery as an event: build the machine with "
                              "trace_events=True")
        self.machine = machine
        self.plan = plan
        self.tracer = machine.tracer
        self.injected: dict[str, int] = {}
        self._spec = {spec.kind: spec for spec in plan.specs}
        self._rng = {
            spec.kind: random.Random(f"{plan.seed}:{spec.kind}")
            for spec in plan.specs
        }
        self._scrubs = [ScrubService(l3) for l3 in machine.hierarchy.l3]

    # -- bookkeeping ---------------------------------------------------------------

    def _want(self, kind: str) -> bool:
        """One injection-opportunity draw for ``kind``."""
        spec = self._spec.get(kind)
        if spec is None:
            return False
        if spec.max_injections and \
                self.injected.get(kind, 0) >= spec.max_injections:
            return False
        return self._rng[kind].random() < spec.probability

    def _record_inject(self, kind: str, **fields) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        self.tracer.emit("fault.inject", reason=kind, **fields)

    # -- hook installation ---------------------------------------------------------

    def install(self) -> None:
        """Attach the controller and coherence hooks the plan needs."""
        kinds = self.plan.kinds()
        if "controller.pin-steal" in kinds:
            for ctrl in self.machine.controllers:
                ctrl.contention_hook = self._pin_steal
        if "controller.fetch-timeout" in kinds:
            for ctrl in self.machine.controllers:
                ctrl.fetch_fault_hook = self._fetch_timeout
        if kinds & {"directory.duplicate", "directory.delay"}:
            self.machine.hierarchy.coherence_fault_hook = self._coherence_fault

    # -- controller hooks ----------------------------------------------------------

    def _pin_steal(self, addr: int) -> bool:
        if self._want("controller.pin-steal"):
            self._record_inject("controller.pin-steal", addr=addr)
            return True
        return False

    def _fetch_timeout(self, addr: int) -> bool:
        if self._want("controller.fetch-timeout"):
            self._record_inject("controller.fetch-timeout", addr=addr)
            return True
        return False

    # -- coherence hook ------------------------------------------------------------

    def _coherence_fault(self, addr: int, holder: int):
        if self._want("directory.duplicate"):
            self._record_inject("directory.duplicate", addr=addr, core=holder)
            return ("duplicate", 0)
        if self._want("directory.delay"):
            spec = self._spec["directory.delay"]
            delay = int(spec.params.get("delay_cycles", 24))
            self._record_inject("directory.delay", addr=addr, core=holder,
                                span=float(delay))
            return ("delay", delay)
        return None

    # -- SRAM strikes and recovery scrub -------------------------------------------

    def _strike_candidates(self, slice_id: int, clean_only: bool) -> list[int]:
        """Resident L3 blocks eligible for a strike, in deterministic
        set-major, way-minor order.  ``clean_only`` restricts to clean,
        unshared blocks — the ones an uncorrectable upset can recover from
        by refetch."""
        h = self.machine.hierarchy
        l3 = h.l3[slice_id]
        out = []
        for addr in l3.resident_addresses():
            if l3.is_pinned(addr):
                continue
            if clean_only:
                if l3.state_of(addr).dirty:
                    continue
                entry = h.directory[slice_id].peek(addr)
                if entry is not None and entry.sharers:
                    continue
            out.append(addr)
        return out

    def pulse(self) -> None:
        """One between-operations injection window.

        Refreshes the ECC side-band, lands the plan's particle strikes,
        then runs the recovery scrub: single-bit upsets are SECDED-
        corrected in place; uncorrectable (double-bit) upsets in clean
        blocks are invalidated and refetch from memory on next use.  An
        uncorrectable upset in a *dirty* block would be unrecoverable —
        the plan never schedules one, and the scrub would surface it as
        :class:`~repro.errors.ECCError`.
        """
        for svc in self._scrubs:
            svc.protect_resident()
        for slice_id in range(len(self._scrubs)):
            self._strike_slice(slice_id)
        self.scrub_and_recover()

    def _strike_slice(self, slice_id: int) -> None:
        svc = self._scrubs[slice_id]
        struck: set[int] = set()  # one upset per block per pulse: a third
        # flip in an already-hit ECC word could alias to a valid syndrome
        if "sram.bitflip" in self._spec:
            rng = self._rng["sram.bitflip"]
            for addr in self._strike_candidates(slice_id, clean_only=False):
                if not self._want("sram.bitflip"):
                    continue
                bit = rng.randrange(_BITS_PER_BLOCK)
                svc.inject_strike(addr, bit)
                struck.add(addr)
                self._record_inject("sram.bitflip", addr=addr, unit=bit,
                                    level="L3")
        if "sram.double-bitflip" in self._spec:
            rng = self._rng["sram.double-bitflip"]
            for addr in self._strike_candidates(slice_id, clean_only=True):
                if addr in struck or not self._want("sram.double-bitflip"):
                    continue
                # Both flips must land in the same 64-bit word: SECDED is
                # per-word, so bits in different words would just be two
                # correctable single-bit errors.
                bit = rng.randrange(_BITS_PER_BLOCK)
                word = bit - bit % 64
                other = word + (bit % 64 + 1 + rng.randrange(63)) % 64
                svc.inject_strike(addr, bit)
                svc.inject_strike(addr, other)
                self._record_inject("sram.double-bitflip", addr=addr,
                                    unit=bit, level="L3")

    def scrub_and_recover(self) -> None:
        """Scrub every L3 slice; refetch or surface what it cannot correct.

        Each slice's :meth:`~repro.core.scrub.ScrubService.scrub_pass`
        writes back the SECDED single-bit corrections and lists the
        uncorrectable blocks.  A clean one is dropped to refetch from
        memory on next use; a dirty one has lost its data, which surfaces
        as an :class:`~repro.errors.ECCError` once every slice has been
        swept (never silent).
        """
        h = self.machine.hierarchy
        lost: list[str] = []
        for slice_id, svc in enumerate(self._scrubs):
            report = svc.scrub_pass()
            for addr in report.corrected_addrs:
                self.tracer.emit("fault.recover", outcome="corrected",
                                 reason="sram.bitflip", addr=addr, level="L3")
            for addr in report.uncorrectable:
                if svc.level.state_of(addr).dirty:
                    outcome = "surfaced"
                    lost.append(f"uncorrectable ECC error in dirty block "
                                f"{addr:#x} (slice {slice_id})")
                else:
                    outcome = "refetched"
                    svc.level.invalidate(addr)
                    h.directory[slice_id].drop(addr)
                self.tracer.emit("fault.recover", outcome=outcome,
                                 reason="sram.double-bitflip", addr=addr,
                                 level="L3")
        if lost:
            raise ECCError("; ".join(lost))
