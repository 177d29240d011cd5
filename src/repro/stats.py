"""Machine-wide statistics aggregation and reporting.

Pulls counters from every layer - sub-arrays, tag arrays, caches, ring,
directory, memory, CC controllers - into one structured snapshot, for
debugging, for the benches' ``extra_info``, and for users profiling their
own workloads::

    from repro.stats import collect_stats, format_stats
    snap = collect_stats(machine)
    print(format_stats(snap))
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .machine import ComputeCacheMachine


@dataclass
class CacheLevelSnapshot:
    name: str
    lookups: int
    hits: int
    misses: int
    reads: int
    writes: int
    fills: int
    writebacks: int
    evictions: int
    cc_inplace_ops: int
    cc_nearplace_ops: int
    htree_transfers: int
    htree_commands: int
    subarray_reads: int
    subarray_writes: int
    subarray_compute_ops: int
    cc_compute_cycles: float = 0.0
    """Compute makespan the CC controllers attributed to this level -
    the same definition the event profiler uses
    (:class:`repro.events.TraceProfile.level_compute_cycles`), so the two
    reports can never disagree."""

    @property
    def hit_rate(self) -> float:
        """Tag hit fraction; 0.0 when the level was never looked up."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class MachineSnapshot:
    levels: dict[str, CacheLevelSnapshot]
    ring_control_messages: int
    ring_data_messages: int
    ring_energy_pj: float
    memory_reads: int
    memory_writes: int
    cc_instructions: int
    cc_inplace_ops: int
    cc_nearplace_ops: int
    cc_risc_ops: int
    cc_key_replications: int
    cc_pin_retries: int
    cc_page_splits: int
    dynamic_energy_nj: float
    energy_breakdown_nj: dict[str, float] = field(default_factory=dict)
    cc_fallback_reasons: dict[str, int] = field(default_factory=dict)
    """Block ops that missed in-place execution, keyed by why
    (``locality-miss``, ``pin-loss``, ``forced``)."""
    cc_level_compute_cycles: dict[str, float] = field(default_factory=dict)
    """CC compute makespan per cache level."""
    forced_unpins: int = 0
    """Pinned lines stolen by forwarded coherence requests (including
    injected ``controller.pin-steal`` faults, see :mod:`repro.faults`)."""
    directory_redundant_revokes: int = 0
    """Idempotent no-op revocations — duplicated forwarded requests."""


def _level_snapshot(name: str, caches) -> CacheLevelSnapshot:
    agg = dict(lookups=0, hits=0, reads=0, writes=0, fills=0, writebacks=0,
               evictions=0, inplace=0, nearplace=0, transfers=0, commands=0,
               sreads=0, swrites=0, sops=0)
    for cache in caches:
        agg["lookups"] += cache.tags.stats.lookups
        agg["hits"] += cache.tags.stats.hits
        agg["reads"] += cache.stats.reads
        agg["writes"] += cache.stats.writes
        agg["evictions"] += cache.tags.stats.evictions
        agg["fills"] += cache.stats.fills
        agg["writebacks"] += cache.stats.writebacks_out
        agg["inplace"] += cache.stats.cc_inplace_ops
        agg["nearplace"] += cache.stats.cc_nearplace_ops
        agg["transfers"] += cache.htree.data_transfers
        agg["commands"] += cache.htree.commands_issued
        for sub in cache.geometry.subarrays:
            agg["sreads"] += sub.stats.reads
            agg["swrites"] += sub.stats.writes
            agg["sops"] += sub.stats.total_compute_ops
    return CacheLevelSnapshot(
        name=name,
        lookups=agg["lookups"], hits=agg["hits"],
        misses=agg["lookups"] - agg["hits"],
        reads=agg["reads"], writes=agg["writes"],
        fills=agg["fills"], writebacks=agg["writebacks"],
        evictions=agg["evictions"],
        cc_inplace_ops=agg["inplace"], cc_nearplace_ops=agg["nearplace"],
        htree_transfers=agg["transfers"], htree_commands=agg["commands"],
        subarray_reads=agg["sreads"], subarray_writes=agg["swrites"],
        subarray_compute_ops=agg["sops"],
    )


def collect_stats(machine: ComputeCacheMachine) -> MachineSnapshot:
    """One coherent snapshot of every counter in the machine."""
    hier = machine.hierarchy
    levels = {
        "L1": _level_snapshot("L1", hier.l1),
        "L2": _level_snapshot("L2", hier.l2),
        "L3": _level_snapshot("L3", hier.l3),
    }
    cc = dict(instructions=0, inplace=0, nearplace=0, risc=0,
              keys=0, retries=0, splits=0)
    reasons: dict[str, int] = {}
    level_cycles: dict[str, float] = {}
    for controller in machine.controllers:
        s = controller.stats
        cc["instructions"] += s.instructions
        cc["inplace"] += s.block_ops_inplace
        cc["nearplace"] += s.block_ops_nearplace
        cc["risc"] += s.block_ops_risc
        cc["keys"] += s.key_replications
        cc["retries"] += s.pin_retries
        cc["splits"] += s.page_splits
        for reason, count in s.fallback_reasons.items():
            reasons[reason] = reasons.get(reason, 0) + count
        for level, cycles in s.level_compute_cycles.items():
            level_cycles[level] = level_cycles.get(level, 0.0) + cycles
    for name, level in levels.items():
        level.cc_compute_cycles = level_cycles.get(name, 0.0)
    return MachineSnapshot(
        levels=levels,
        ring_control_messages=hier.ring.stats.control_messages,
        ring_data_messages=hier.ring.stats.data_messages,
        ring_energy_pj=hier.ring.stats.energy_pj,
        memory_reads=hier.memory.block_reads,
        memory_writes=hier.memory.block_writes,
        cc_instructions=cc["instructions"],
        cc_inplace_ops=cc["inplace"],
        cc_nearplace_ops=cc["nearplace"],
        cc_risc_ops=cc["risc"],
        cc_key_replications=cc["keys"],
        cc_pin_retries=cc["retries"],
        cc_page_splits=cc["splits"],
        dynamic_energy_nj=machine.ledger.total_nj(),
        energy_breakdown_nj={
            k: v / 1000.0 for k, v in machine.ledger.breakdown().items()
        },
        cc_fallback_reasons=reasons,
        cc_level_compute_cycles=level_cycles,
        forced_unpins=len(hier.forced_unpins),
        directory_redundant_revokes=sum(
            d.redundant_revokes for d in hier.directory
        ),
    )


def format_stats(snap: MachineSnapshot) -> str:
    """Human-readable multi-section report."""
    lines = ["=== Machine statistics ==="]
    for name, level in snap.levels.items():
        hit_part = (f"{level.lookups:,} lookups ({level.hit_rate:.1%} hit), "
                    if level.lookups else "")
        lines.append(
            f"{name}: {hit_part}{level.reads:,} reads / {level.writes:,} writes, "
            f"{level.fills:,} fills, {level.writebacks:,} writebacks, "
            f"{level.cc_inplace_ops:,} in-place / "
            f"{level.cc_nearplace_ops:,} near-place CC ops"
            + (f" ({level.cc_compute_cycles:,.1f} compute cycles)"
               if level.cc_compute_cycles else "")
        )
        lines.append(
            f"    sub-arrays: {level.subarray_reads:,} reads, "
            f"{level.subarray_writes:,} writes, "
            f"{level.subarray_compute_ops:,} compute ops; "
            f"H-tree: {level.htree_transfers:,} transfers"
        )
    lines.append(
        f"ring: {snap.ring_control_messages:,} control + "
        f"{snap.ring_data_messages:,} data messages "
        f"({snap.ring_energy_pj / 1000:.1f} nJ)"
    )
    lines.append(
        f"memory: {snap.memory_reads:,} block reads, "
        f"{snap.memory_writes:,} block writes"
    )
    lines.append(
        f"CC: {snap.cc_instructions:,} instructions -> "
        f"{snap.cc_inplace_ops:,} in-place / {snap.cc_nearplace_ops:,} "
        f"near-place / {snap.cc_risc_ops:,} RISC block ops; "
        f"{snap.cc_key_replications:,} key replications, "
        f"{snap.cc_pin_retries:,} pin retries, "
        f"{snap.cc_page_splits:,} page splits"
    )
    if snap.cc_fallback_reasons:
        parts = ", ".join(f"{reason}: {count:,}"
                          for reason, count in sorted(snap.cc_fallback_reasons.items()))
        lines.append(f"    fallback reasons: {parts}")
    if snap.forced_unpins or snap.directory_redundant_revokes:
        lines.append(
            f"    resilience: {snap.forced_unpins:,} forced unpins, "
            f"{snap.directory_redundant_revokes:,} redundant revokes"
        )
    lines.append(f"dynamic energy: {snap.dynamic_energy_nj:,.1f} nJ")
    for component, nj in snap.energy_breakdown_nj.items():
        lines.append(f"    {component:14s} {nj:12,.1f} nJ")
    return "\n".join(lines)
