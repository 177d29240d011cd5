"""Cycle-attribution: roll event streams into per-phase / per-instruction profiles.

The aggregator consumes the ring buffer of :class:`~repro.events.Event`
records a traced run produced and answers the paper's attribution
questions (Figures 7-9, Table V): where did the cycles go - issue slots,
exposed load stalls, CC operand fetch, in-place vs near-place compute -
and why did block operations miss in-place execution (locality miss, pin
loss, forced near-place).

Attribution invariant
---------------------

``core.phase`` events tile the machine timeline: their spans sum to the
run's total machine cycles.  :meth:`TraceProfile.validate` checks this
(and is asserted in the test-suite); a truncated ring buffer (dropped
events) refuses to validate rather than reporting a silently-short total.

On the controller side, the ``cc.attr`` spans of one instruction piece sum
to that piece's latency, so the CC table is internally consistent too.
CC latency *overlaps* the core timeline (RMO, Section IV-G): only its
non-hidden part appears in the machine phases, as ``cc-drain``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from .tracer import Event

MACHINE_PHASES = ("issue", "load-stall", "mlp-stall", "cc-drain")
CC_PHASES = ("decode", "operand-fetch", "transpose", "compute-inplace",
             "compute-nearplace", "notify")


@dataclass
class CCInstructionRow:
    """Attribution of one page-local CC instruction piece."""

    core: int
    instr_id: int
    opcode: str
    level: str
    cycles: float
    phases: dict[str, float] = field(default_factory=dict)
    block_ops: dict[str, int] = field(default_factory=dict)


@dataclass
class TraceProfile:
    """Everything the profiler derives from one traced run."""

    total_cycles: float
    machine_phases: dict[str, float]
    cc_phases: dict[str, float]
    cc_instructions: list[CCInstructionRow]
    block_op_outcomes: dict[str, int]
    fallback_reasons: dict[str, int]
    level_block_ops: dict[str, dict[str, int]]
    level_compute_cycles: dict[str, float]
    cache_counts: dict[str, dict[str, int]]
    directory_counts: dict[str, int]
    pin_retries: int
    pin_losses: int
    key_replications: int
    dropped_events: int
    topo_hops: dict[str, dict[str, float]] = field(default_factory=dict)
    """Inter-cluster traffic per route label (``"c0->c1"``): message and
    hop counts split by data/control.  Empty on flat (1-cluster) machines."""

    @property
    def attributed_cycles(self) -> float:
        return sum(self.machine_phases.values())

    def validate(self, total_cycles: float | None = None,
                 rel_tol: float = 1e-9, abs_tol: float = 1e-6) -> bool:
        """True iff the machine phases sum to the machine cycles.

        A stream that lost events to ring-buffer wraparound cannot account
        for the full timeline and never validates.
        """
        if self.dropped_events:
            return False
        target = self.total_cycles if total_cycles is None else total_cycles
        return math.isclose(self.attributed_cycles, target,
                            rel_tol=rel_tol, abs_tol=abs_tol)


def _bump(table: dict, key, amount=1) -> None:
    table[key] = table.get(key, 0) + amount


def build_profile(events: Iterable[Event],
                  total_cycles: float | None = None,
                  dropped_events: int = 0) -> TraceProfile:
    """Aggregate an event stream into a :class:`TraceProfile`.

    ``total_cycles`` is the run's reported machine cycles (e.g.
    ``TraceResult.cycles``); when omitted, the sum of the machine phases is
    used (which trivially validates).
    """
    events = list(events)
    machine_phases: dict[str, float] = {}
    cc_phases: dict[str, float] = {}
    rows: dict[tuple[int, int], CCInstructionRow] = {}
    outcomes: dict[str, int] = {}
    reasons: dict[str, int] = {}
    level_ops: dict[str, dict[str, int]] = {}
    level_cycles: dict[str, float] = {}
    cache_counts: dict[str, dict[str, int]] = {}
    dir_counts: dict[str, int] = {}
    topo_hops: dict[str, dict[str, float]] = {}
    pin_retries = pin_losses = key_replications = 0

    # Pass 1: per-instruction rows (the controller emits the completion
    # record after the attribution events it summarizes).
    for ev in events:
        if ev.kind == "cc.instruction":
            rows[(ev.core, ev.instr_id)] = CCInstructionRow(
                core=ev.core, instr_id=ev.instr_id, opcode=ev.opcode,
                level=ev.level, cycles=ev.span,
            )

    for ev in events:
        kind = ev.kind
        if kind == "core.phase":
            _bump(machine_phases, ev.phase, ev.span)
        elif kind == "cc.attr":
            _bump(cc_phases, ev.phase, ev.span)
            if ev.phase in ("compute-inplace", "compute-nearplace"):
                # Same definition as CCControllerStats.level_compute_cycles
                # (compute makespan per level) so the profiler and
                # collect_stats can never disagree.
                _bump(level_cycles, ev.level, ev.span)
            row = rows.get((ev.core, ev.instr_id))
            if row is not None:
                _bump(row.phases, ev.phase, ev.span)
        elif kind == "cc.block_op":
            _bump(outcomes, ev.outcome)
            if ev.reason is not None:
                _bump(reasons, ev.reason)
            _bump(level_ops.setdefault(ev.level, {}), ev.outcome)
            row = rows.get((ev.core, ev.instr_id))
            if row is not None:
                _bump(row.block_ops, ev.outcome)
        elif kind == "cc.pin_retry":
            pin_retries += 1
        elif kind == "cc.pin_loss":
            pin_losses += 1
        elif kind == "cc.key_replicate":
            key_replications += 1
        elif kind.startswith("cache."):
            table = cache_counts.setdefault(ev.level, {})
            if kind == "cache.lookup":
                _bump(table, "lookups")
                if ev.outcome == "hit":
                    _bump(table, "hits")
            else:
                _bump(table, kind.split(".", 1)[1] + "s")
        elif kind.startswith("htree."):
            table = cache_counts.setdefault(ev.level, {})
            _bump(table, kind.replace(".", "_") + "s")
        elif kind == "topo.hop":
            table = topo_hops.setdefault(ev.reason, {})
            _bump(table, f"{ev.outcome}_messages")
            _bump(table, f"{ev.outcome}_hops", ev.span)
        elif kind.startswith("dir."):
            _bump(dir_counts, kind.split(".", 1)[1])

    ordered_rows = sorted(rows.values(), key=lambda r: (r.core, r.instr_id))

    total = sum(machine_phases.values()) if total_cycles is None else total_cycles
    return TraceProfile(
        total_cycles=total,
        machine_phases=machine_phases,
        cc_phases=cc_phases,
        cc_instructions=ordered_rows,
        block_op_outcomes=outcomes,
        fallback_reasons=reasons,
        level_block_ops=level_ops,
        level_compute_cycles=level_cycles,
        cache_counts=cache_counts,
        directory_counts=dir_counts,
        pin_retries=pin_retries,
        pin_losses=pin_losses,
        key_replications=key_replications,
        dropped_events=dropped_events,
        topo_hops=topo_hops,
    )


def profile_machine(machine, total_cycles: float | None = None) -> TraceProfile:
    """Profile from a machine's attached tracer (raises if tracing is off)."""
    tracer = machine.tracer
    if tracer is None:
        raise ValueError(
            "machine has no event tracer; construct it with trace_events=True"
        )
    return build_profile(tracer.snapshot(), total_cycles=total_cycles,
                         dropped_events=tracer.dropped)


def profile_trace(text: str, machine=None, core: int = 0):
    """Replay a trace with tracing enabled; returns (TraceProfile, TraceResult, machine).

    ``machine`` must have an attached tracer when given; otherwise a
    default machine with tracing enabled is built.
    """
    from ..machine import ComputeCacheMachine
    from ..trace import run_trace

    m = machine or ComputeCacheMachine(trace_events=True)
    if m.tracer is None:
        raise ValueError(
            "machine has no event tracer; construct it with trace_events=True"
        )
    result = run_trace(text, m, core=core)
    profile = profile_machine(m, total_cycles=result.cycles)
    return profile, result, m


# -- rendering ---------------------------------------------------------------------


def _phase_table(title: str, phases: dict[str, float], order: tuple[str, ...],
                 total_label: str, total: float) -> list[str]:
    lines = [title]
    width = max([len(p) for p in order] + [len(total_label)]) + 2
    shown = 0.0
    for phase in order:
        cycles = phases.get(phase, 0.0)
        shown += cycles
        share = cycles / total if total else 0.0
        lines.append(f"  {phase:<{width}} {cycles:14,.1f}  {share:7.1%}")
    for phase, cycles in phases.items():  # anything unexpected still shows
        if phase not in order:
            shown += cycles
            lines.append(f"  {phase:<{width}} {cycles:14,.1f}")
    lines.append(f"  {total_label:<{width}} {shown:14,.1f}")
    return lines


def format_profile(profile: TraceProfile) -> str:
    """Human-readable attribution report."""
    out: list[str] = []
    out += _phase_table(
        "=== Machine cycle attribution (phases tile the timeline) ===",
        profile.machine_phases, MACHINE_PHASES,
        "total", profile.total_cycles,
    )
    status = "OK" if profile.validate() else "MISMATCH"
    out.append(f"  machine cycles reported: {profile.total_cycles:,.1f}  "
               f"[attribution {status}]")
    if profile.dropped_events:
        out.append(f"  WARNING: {profile.dropped_events:,} events dropped "
                   f"(ring buffer full) - totals are partial")

    cc_total = sum(profile.cc_phases.values())
    if cc_total:
        out.append("")
        out += _phase_table(
            "=== CC controller attribution (overlaps the core timeline) ===",
            profile.cc_phases, CC_PHASES, "total cc cycles", cc_total,
        )

    if profile.block_op_outcomes:
        out.append("")
        out.append("=== CC block operations ===")
        for outcome in ("in-place", "near-place", "risc-fallback"):
            count = profile.block_op_outcomes.get(outcome, 0)
            out.append(f"  {outcome:<16} {count:10,}")
        if profile.fallback_reasons:
            reasons = ", ".join(
                f"{reason}: {count:,}"
                for reason, count in sorted(profile.fallback_reasons.items())
            )
            out.append(f"  fallback reasons: {reasons}")
        out.append(f"  pin retries: {profile.pin_retries:,}  "
                   f"pin losses: {profile.pin_losses:,}  "
                   f"key replications: {profile.key_replications:,}")
        for level in sorted(profile.level_block_ops):
            ops = profile.level_block_ops[level]
            cycles = profile.level_compute_cycles.get(level, 0.0)
            per_outcome = ", ".join(
                f"{o}: {n:,}" for o, n in sorted(ops.items())
            )
            out.append(f"  {level}: {per_outcome}; "
                       f"{cycles:,.1f} compute cycles")

    if profile.cache_counts:
        out.append("")
        out.append("=== Cache / H-tree events ===")
        for level in sorted(profile.cache_counts):
            c = profile.cache_counts[level]
            lookups = c.get("lookups", 0)
            hits = c.get("hits", 0)
            hit_part = f" ({hits / lookups:.1%} hit)" if lookups else ""
            out.append(
                f"  {level}: {lookups:,} lookups{hit_part}, "
                f"{c.get('reads', 0):,} reads / {c.get('writes', 0):,} writes, "
                f"{c.get('fills', 0):,} fills, "
                f"{c.get('writebacks', 0):,} writebacks; "
                f"H-tree {c.get('htree_transfers', 0):,} transfers"
            )

    if profile.directory_counts:
        parts = ", ".join(f"{k}: {v:,}"
                          for k, v in sorted(profile.directory_counts.items()))
        out.append(f"  directory: {parts}")

    if profile.topo_hops:
        out.append("")
        out.append("=== NUMA topology traffic (inter-cluster) ===")
        for route in sorted(profile.topo_hops):
            t = profile.topo_hops[route]
            out.append(
                f"  {route}: "
                f"{int(t.get('data_messages', 0)):,} data / "
                f"{int(t.get('control_messages', 0)):,} control messages, "
                f"{t.get('data_hops', 0.0) + t.get('control_hops', 0.0):,.0f} "
                f"cluster-ring flit-hop units"
            )

    if profile.cc_instructions:
        out.append("")
        out.append("=== Per-instruction CC attribution ===")
        out.append("  core  id  opcode        level  cycles      "
                    "fetch    compute  block ops")
        for row in profile.cc_instructions:
            compute = (row.phases.get("compute-inplace", 0.0)
                       + row.phases.get("compute-nearplace", 0.0))
            ops = "/".join(
                str(row.block_ops.get(o, 0))
                for o in ("in-place", "near-place", "risc-fallback")
            )
            out.append(
                f"  {row.core:>4}  {row.instr_id:>2}  {row.opcode:<12} "
                f"{row.level:<6} {row.cycles:9,.1f} {row.phases.get('operand-fetch', 0.0):9,.1f} "
                f"{compute:9,.1f}  {ops}"
            )
    return "\n".join(out)
