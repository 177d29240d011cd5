"""Cross-instruction batching of CC instructions (the stream scheduler).

The controller runs every block op through one pipeline - stage, account,
kernel, complete - and drains the queued kernels after each op or after
each instruction.  :class:`CCInstructionStream` adds the third drain
point: it analyses a window of consecutive CC instructions for
independence over their operand byte ranges and, when a run of
instructions is provably equivalent to one-at-a-time execution, defers the
kernels of all their block ops into shared per-sub-array
:meth:`~repro.sram.ComputeSubarray.op_batch` calls.  What stays here is
specific to fusion: group selection, the residency preflight, and a
zero-cost pin/locate fast path for staging.

Fusion is *observationally invisible*: per-instruction
:class:`~repro.core.controller.CCResult` values, cache/sub-array/controller
statistics, the energy ledger, and the event stream are bit-identical to
executing the same instructions one at a time through
:meth:`ComputeCacheController.execute` (``tests/test_stream_property.py``
proves it differentially).  The wins are simulator wall-clock throughput
(fewer Python-level probes and one vectorized kernel call per sub-array
instead of one per instruction) and an *overlapped* machine-cycle model:
:class:`StreamResult` reports both the serial sum of per-instruction
latencies and the RMO-overlap makespan (controller occupancy serializes,
sub-array work overlaps — the same model
:class:`~repro.cpu.core_model.CoreModel` applies, via
:class:`CCOccupancyTimeline`).

A run of instructions is fused only when every member provably hits the
controller's zero-cost staging:

* single page-local piece, fusable opcode (``and/or/xor/not/copy/buz/cmp``;
  key-replicating, ``clmul`` and arithmetic instructions run one at a
  time);
* one shared compute level and opcode/lane width (keeps per-sub-array
  accounting order, and therefore float accumulation, canonical);
* the controller's per-instruction hazard analysis reports no hazard
  (so the ``cc.dispatch`` event matches one-at-a-time execution verbatim);
* operand block sets of distinct members are fully disjoint (no data
  hazards, no pin conflicts);
* every operand block is resident at the compute level with no private
  copies above it (L3: no directory sharers; L2: nothing in L1; dests
  writable) — exactly the condition under which ``cc_prepare``'s fast
  path performs no fetch, charge, or event;
* operand locality holds for every block op (no near-place execution);
* no contention/fetch-fault hooks and no reuse policy are installed
  (fault-injection campaigns always run one instruction at a time).

Anything else runs one instruction at a time through
:meth:`ComputeCacheController.execute`, so the stream accepts arbitrary
instruction sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cache.block import MESIState
from ..cache.hierarchy import L1, L2, L3
from ..errors import CoherenceError
from .controller import MEMO_CAPACITY, CCResult, ComputeCacheController
from .inplace import operand_rows
from .isa import CCInstruction, Opcode
from .operation_table import BlockOperand

DEFAULT_WINDOW = 8
"""Instructions considered for one fused group.  Clamped to the
instruction table's capacity: every member holds a live instruction-table
entry until the group's kernels complete (hardware would stall the same
way)."""

LOCATE_MEMO_CAPACITY = 1 << 16
"""Entries kept in the per-block locate memo.  Sized for fig7-scale
streams (hundreds of instructions x 64 blocks x 3 operands) — the
entries are small tuples, and a wholesale clear on overflow only costs
re-probing."""

FUSABLE_OPCODES = frozenset({
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NOT,
    Opcode.COPY, Opcode.BUZ, Opcode.CMP,
})
"""Opcodes eligible for cross-instruction fusion.  ``search`` and
broadcast ``clmul`` replicate keys into shared per-partition key rows
(members would collide), and ``clmul`` stores its packed result through
the hierarchy mid-stream; all run one instruction at a time."""


@dataclass
class CCOccupancyTimeline:
    """The RMO overlap model for CC work (Section IV-G), shared by
    :class:`~repro.cpu.core_model.CoreModel` and the stream scheduler.

    The (single, per-core) CC controller is busy for each instruction's
    *occupancy* (decode + command-bus issue + serial near-place time);
    later instructions queue behind that, while sub-array execution
    completes in the background and overlaps freely.
    """

    busy_until: float = 0.0
    last_completion: float = 0.0

    def issue(self, now: float, occupancy_cycles: float,
              total_cycles: float) -> float:
        """Issue one CC instruction at ``now``; returns its start cycle."""
        start = max(now, self.busy_until)
        self.busy_until = start + max(occupancy_cycles, 1.0)
        self.last_completion = max(self.last_completion, start + total_cycles)
        return start

    @property
    def drain_target(self) -> float:
        """Cycle by which all issued CC work has completed."""
        return max(self.busy_until, self.last_completion)


@dataclass
class StreamResult:
    """Outcome of one :meth:`CCInstructionStream.execute` call."""

    results: list[CCResult] = field(default_factory=list)
    """Per-instruction results, bit-identical to sequential execution."""
    fused_instructions: int = 0
    fused_groups: int = 0
    kernel_calls: int = 0
    """Merged sub-array kernel invocations issued for fused groups."""
    serial_cycles: float = 0.0
    """Sum of per-instruction latencies (the pre-stream serial model)."""
    overlapped_cycles: float = 0.0
    """RMO-overlap makespan: occupancy serializes, sub-array work
    overlaps (see :class:`CCOccupancyTimeline`)."""

    @property
    def instructions(self) -> int:
        return len(self.results)

    @property
    def fused_fraction(self) -> float:
        return self.fused_instructions / len(self.results) if self.results else 0.0

    @property
    def overlap_speedup(self) -> float:
        """Serial-model cycles per overlapped-model cycle (>= 1)."""
        return (self.serial_cycles / self.overlapped_cycles
                if self.overlapped_cycles else 0.0)

    @property
    def simulated_bytes(self) -> int:
        return sum(r.instr.size for r in self.results)


@dataclass
class _Plan:
    """Memoized pure decode of one (instruction, level) pair."""

    operand_specs: list[list[tuple[int, bool]]]
    """Per block op: ``(block address, is_dest)`` for each operand."""
    caches: list  # CacheLevel per block op
    partitions: list[int]
    block_flags: dict[int, bool]
    """Every operand block address -> written-to (dest) flag."""
    blocks: frozenset[int]
    local: bool
    """All block ops satisfy operand locality (same partition/slice)."""


@dataclass
class _Member:
    instr: CCInstruction
    level: str
    plan: _Plan


class CCInstructionStream:
    """Schedules a stream of CC instructions through one controller,
    fusing independent runs into shared per-sub-array kernel calls."""

    def __init__(self, controller: ComputeCacheController,
                 window: int = DEFAULT_WINDOW) -> None:
        self.controller = controller
        self.window = max(1, min(window, controller.instruction_table.capacity))
        self._plan_memo: dict[tuple[CCInstruction, str], tuple[int, _Plan]] = {}
        self._locate_memo: dict[tuple[int, int], tuple[int, tuple]] = {}
        self._preflight_memo: dict[CCInstruction, tuple[int, bool]] = {}

    # -- public API -----------------------------------------------------------------

    def execute(self, instrs, force_level: str | None = None,
                force_nearplace: bool = False) -> StreamResult:
        """Run a sequence of CC instructions; returns per-instruction
        results plus stream-level fusion and overlap accounting."""
        instrs = list(instrs)
        out = StreamResult()
        ctrl = self.controller
        fusing = (self.window >= 2 and not force_nearplace
                  and ctrl.contention_hook is None
                  and ctrl.fetch_fault_hook is None
                  and ctrl.reuse_policy is None)
        i = 0
        while i < len(instrs):
            group = self._collect_group(instrs, i, force_level) if fusing else None
            if group is not None and len(group) >= 2:
                out.results.extend(self._execute_fused(group, out))
                out.fused_instructions += len(group)
                out.fused_groups += 1
                i += len(group)
            else:
                out.results.append(ctrl.execute(
                    instrs[i], force_level=force_level,
                    force_nearplace=force_nearplace))
                i += 1
        out.serial_cycles = sum(r.cycles for r in out.results)
        timeline = CCOccupancyTimeline()
        for res in out.results:
            timeline.issue(0.0, res.occupancy_cycles, res.cycles)
        out.overlapped_cycles = timeline.drain_target
        return out

    # -- group selection ---------------------------------------------------------------

    def _collect_group(self, instrs, start: int,
                       force_level: str | None) -> list[_Member] | None:
        first = self._fusable_member(instrs[start], force_level)
        if first is None:
            return None
        members = [first]
        blocks = set(first.plan.blocks)
        for j in range(start + 1, min(start + self.window, len(instrs))):
            cand = self._fusable_member(instrs[j], force_level)
            if cand is None:
                break
            if (cand.level != first.level
                    or cand.instr.opcode is not first.instr.opcode
                    or cand.instr.lane_bits != first.instr.lane_bits):
                break
            # Full block-set disjointness: rules out every cross-member
            # data hazard and pin conflict at once.
            if not blocks.isdisjoint(cand.plan.blocks):
                break
            members.append(cand)
            blocks.update(cand.plan.blocks)
        return members

    def _fusable_member(self, instr: CCInstruction,
                        force_level: str | None) -> _Member | None:
        if instr.opcode not in FUSABLE_OPCODES or instr.key_is_fixed_block:
            return None
        if instr.spans_page_boundary():
            return None
        ctrl = self.controller
        level = ctrl._select_level(instr, force_level)
        if ctrl._batch_hazard(instr, level) is not None:
            return None
        plan = self._plan(instr, level)
        if not plan.local:
            return None
        if level == L3:
            # The L3 verdict depends only on residency (every fill and
            # invalidate anywhere bumps the residency epoch) and directory
            # sharers.  A sharer can only *appear* through a private fill,
            # which bumps the epoch, so a memoized True cannot go stale; a
            # stale False merely falls back to one-at-a-time execution.
            # L1/L2 verdicts also depend on MESI writability, which
            # downgrades without an epoch bump, so those are re-probed
            # every time.
            epoch = ctrl.hierarchy.residency_epoch()
            hit = self._preflight_memo.get(instr)
            if hit is not None and hit[0] == epoch:
                ok = hit[1]
            else:
                ok = self._residency_preflight(plan, level)
                if len(self._preflight_memo) >= MEMO_CAPACITY:
                    self._preflight_memo.clear()
                self._preflight_memo[instr] = (epoch, ok)
        else:
            ok = self._residency_preflight(plan, level)
        if not ok:
            return None
        return _Member(instr, level, plan)

    def _plan(self, instr: CCInstruction, level: str) -> _Plan:
        """Pure decode of an instruction at a level (block operands,
        target caches/partitions, locality) — memoized; only an explicit
        page re-placement invalidates it."""
        ctrl = self.controller
        key = (instr, level)
        epoch = ctrl.hierarchy.page_map_epoch
        hit = self._plan_memo.get(key)
        if hit is not None and hit[0] == epoch:
            return hit[1]
        hierarchy = ctrl.hierarchy
        core = ctrl.core_id
        operand_specs: list[list[tuple[int, bool]]] = []
        caches = []
        partitions: list[int] = []
        block_flags: dict[int, bool] = {}
        local = True
        for idx in range(instr.num_blocks):
            operands = ctrl._block_operands(instr, idx)
            spec = [(o.addr, o.is_dest) for o in operands]
            operand_specs.append(spec)
            for addr, is_dest in spec:
                block_flags[addr] = block_flags.get(addr, False) or is_dest
            cache = hierarchy.level_cache(level, core, operands[0].addr)
            caches.append(cache)
            parts = {cache.geometry.partition_of(addr) for addr, _ in spec}
            if len(parts) != 1:
                local = False
            elif level == L3 and len({
                    hierarchy.home_slice(addr, core) for addr, _ in spec}) != 1:
                local = False
            partitions.append(parts.pop() if len(parts) == 1 else -1)
        plan = _Plan(
            operand_specs=operand_specs, caches=caches, partitions=partitions,
            block_flags=block_flags, blocks=frozenset(block_flags), local=local,
        )
        if len(self._plan_memo) >= MEMO_CAPACITY:
            self._plan_memo.clear()
        self._plan_memo[key] = (epoch, plan)
        return plan

    def _residency_preflight(self, plan: _Plan, level: str) -> bool:
        """True when staging is provably zero-cost: every block resident at
        the compute level, dests writable, nothing above to flush — the
        exact conditions of ``cc_prepare``'s no-op fast paths.  Probes are
        uncounted, so the check itself is invisible."""
        hierarchy = self.controller.hierarchy
        core = self.controller.core_id
        if level == L3:
            for addr in plan.blocks:
                slice_id = hierarchy.home_slice(addr, core)
                if not hierarchy.l3[slice_id].contains(addr):
                    return False
                entry = hierarchy.directory[slice_id].peek(addr)
                if entry is not None and entry.sharers:
                    return False
            return True
        target = hierarchy.l1[core] if level == L1 else hierarchy.l2[core]
        l1 = hierarchy.l1[core]
        for addr, is_dest in plan.block_flags.items():
            if not target.contains(addr):
                return False
            if is_dest and not target.state_of(addr).writable:
                return False
            if level == L2 and l1.contains(addr):
                return False
        return True

    # -- fused execution ---------------------------------------------------------------

    def _located(self, cache, addr: int) -> tuple:
        """Memoized ``(set_index, way, subarray, row)`` of a resident
        block; valid while the cache's fill/invalidate epoch is unchanged
        (residency moves only through fills and invalidates)."""
        key = (id(cache), addr)
        hit = self._locate_memo.get(key)
        if hit is not None and hit[0] == cache.epoch:
            return hit[1]
        parts = cache.geometry.decode(addr)
        way = cache.tags.probe(parts.set_index, parts.tag)
        if way is None:
            raise CoherenceError(
                f"{cache.name}: fused locate of absent block {addr:#x}")
        subarray, row = cache.geometry.locate(addr, way)
        loc = (parts.set_index, way, subarray, row)
        if len(self._locate_memo) >= LOCATE_MEMO_CAPACITY:
            self._locate_memo.clear()
        self._locate_memo[key] = (cache.epoch, loc)
        return loc

    def _execute_fused(self, members: list[_Member],
                       out: StreamResult) -> list[CCResult]:
        """Run a fused group through the controller's block-op pipeline.

        Each member is staged through the zero-cost fast path below, then
        accounted and finished in instruction order exactly as one-at-a-time
        execution would; only the kernels are deferred, into one merged
        per-sub-array call after the last member.
        """
        ctrl = self.controller
        deferred: dict[tuple[int, int], tuple] = {}
        pieces = []
        for member in members:
            piece = ctrl._begin(member.instr, member.level, None)
            plan = member.plan
            for spec, cache, partition in zip(plan.operand_specs, plan.caches,
                                              plan.partitions):
                op = ctrl._new_op(piece, [BlockOperand(addr, is_dest=flag)
                                          for addr, flag in spec])
                tags = cache.tags
                locs = [self._located(cache, addr) for addr, _flag in spec]
                # Zero-cost staging: mark dests MODIFIED and pin each
                # operand (the pin MRU-promotes, exactly like the
                # controller's staging); fetches are no-ops by precondition.
                for (_addr, is_dest), (set_index, way, _sub, _row) in zip(spec, locs):
                    if is_dest:
                        tags.entry(set_index, way).state = MESIState.MODIFIED
                    tags.pin(set_index, way, op.instr_id)
                rows = operand_rows(op, [loc[3] for loc in locs],
                                    cache.geometry.key_row)
                for set_index, way, _sub, _row in locs:
                    tags.unpin(set_index, way)
                ctrl._queue(piece, op, cache, locs[0][2], partition, rows)
            ctrl._drain(piece, deferred)
            ctrl._finish(piece)
            pieces.append(piece)
        # The fused kernels: one op_batch per target sub-array, items in
        # instruction order (preserving per-sub-array accounting order).
        for subarray, items in deferred.values():
            ctrl.inplace.kernel_batch(subarray, items)
            out.kernel_calls += 1
        return [ctrl._complete(piece.instr, [ctrl._collect(piece)])
                for piece in pieces]
