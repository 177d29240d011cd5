"""The Compute Cache controller (Sections IV-D and IV-E).

One controller sits at each core's L1 and orchestrates CC instructions:

1. **Page-span check** - operands crossing a page raise a pipeline
   exception; the handler splits the instruction per page (IV-D).  An
   operand that ends beyond memory raises :class:`~repro.errors.AddressError`
   before anything runs.
2. **Decomposition** - the instruction is broken into *simple vector
   operations* whose operands span at most one cache block.  The paper's
   instruction, operation and key tables (IV-D) are fields of the piece
   being run: its id, its block ops and the key rows it wrote.  Their
   capacities are not modelled, because one piece of at most 64 block
   ops is in flight per controller.
3. **Level selection** - compute at the highest cache level where *all*
   operands are resident; if any operand is uncached, compute at L3 (IV-E).
4. **Operand fetch + pinning** - missing operands are fetched to the
   compute level; dirty copies in skipped levels are written back through
   the existing writeback machinery; operand lines are pinned (and MRU-
   promoted).  A forwarded coherence request releases the pin; after
   ``pin_retry_limit`` failed attempts the operation is executed as RISC
   operations by the core (IV-E).  Operands that are already in place
   need neither (see below).
5. **Execution** - in place when operand locality holds (the geometry
   guarantees it for page-aligned operands), else near-place at the
   controller's logic unit.  Search keys are replicated into each data
   partition's key row once per piece, so repeats are free.
6. **Completion** - the result bits of every block op are packed once, in
   block order, into the result register (or clmul's result bytes); the
   L1 controller notifies the core.

Every page-local piece of an instruction is *planned* once: the operand
template of its first block op (``CCInstruction.block_operands``), each
operand stream's compute-level cache (one L3 home slice per page), the
locality verdict (the same for every op, since operands are block-aligned
and page-local) and which operand rows the kernel reads and writes.  Every
block op then runs through one pipeline: *stage* (steps 4-5: fetch and
pin; run near-place or as RISC ops, or take its rows from where its
operands were pinned and queue it), *account* (Table V energy, stats,
events; one call per target sub-array), *kernel* (one
:meth:`~repro.core.inplace.InPlaceExecutor.kernel_batch` call for all
queued ops: one gather/compute/scatter over the level's shared packed
block, or one bit-exact ``op_batch`` per sub-array; the two together are
one :meth:`~repro.core.inplace.InPlaceExecutor.execute_batch` call),
*complete* (step 6).
The dispatch modes differ only in when the queued kernels drain: after
each op (``cc.dispatch`` outcome ``sequential``) or after the whole
instruction (``batched``).

A batched in-place piece whose operand blocks are all *ready* - resident
at the compute level with nothing to fetch, flush or recall
(:meth:`~repro.cache.hierarchy.CacheHierarchy.cc_ready_lines`, the tests
``cc_prepare`` makes before its zero-latency branch) - stages in one
pass, as the hardware has nothing to fetch: each operand line goes to
MRU in op order, destinations become MODIFIED and the ops are queued,
with the effects op-by-op staging has and no pin.  Pins, and the drain's
row check behind them, only matter for pieces that fetch; every other
piece, and every piece while a test or fault hook is installed, stages
op by op.

Timing model: operand fetches overlap up to a fetch-MLP; in-place block
commands stream over the unreplicated H-tree address bus at
``commands_per_cycle`` and execute concurrently across partitions but
serially within one (a sub-array does one operation at a time); near-place
operations serialize through the single per-controller logic unit.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from ..cache.block import MESIState
from ..cache.cache import CacheLevel
from ..cache.hierarchy import L1, L2, L3, CacheHierarchy
from ..energy.accounting import Component
from ..energy.mcpat import charge_key_broadcast, charge_key_row_write, charge_transpose
from ..errors import AddressError, PinnedLineError, ReproError
from ..params import BLOCK_SIZE, MachineConfig
from .exceptions import split_by_pages
from .inplace import InPlaceExecutor, row_slots
from .isa import CCInstruction, Opcode
from .nearplace import NearPlaceUnit, block_result
from .operation_table import BlockOperand, BlockOperation

LEVEL_ORDER = (L1, L2, L3)

MIXED_LEVEL = "mixed"
"""``CCResult.level`` of a page-split instruction whose pieces computed at
different cache levels."""

MEMO_CAPACITY = 4096
"""Entries kept in the controller's decode/level-selection memo tables
before they are dropped wholesale (a simple bound, not an LRU)."""

INSTRUCTION_OVERHEAD_CYCLES = 5
"""Controller cycles to decode/dispatch one CC instruction."""

FETCH_MLP = 8
"""Overlapped operand fetches the controller sustains (MSHR-bounded)."""


@dataclass
class CCControllerStats:
    instructions: int = 0
    block_ops_inplace: int = 0
    block_ops_nearplace: int = 0
    block_ops_risc: int = 0
    key_replications: int = 0
    pin_retries: int = 0
    risc_fallbacks: int = 0
    page_splits: int = 0
    level_memo_hits: int = 0
    hazard_memo_hits: int = 0
    fetch_cycles: float = 0.0
    compute_cycles: float = 0.0
    transpose_blocks: int = 0
    transpose_cycles: float = 0.0
    fallback_reasons: dict[str, int] = field(default_factory=dict)
    """Block ops that missed in-place execution, keyed by why
    (``locality-miss``, ``pin-loss``, ``forced``)."""
    level_compute_cycles: dict[str, float] = field(default_factory=dict)
    """Compute makespan attributed to each cache level."""


@dataclass
class CCResult:
    """Outcome of one architectural CC instruction."""

    instr: CCInstruction
    result: int
    cycles: float
    level: str
    inplace_ops: int = 0
    nearplace_ops: int = 0
    risc_ops: int = 0
    fetch_cycles: float = 0.0
    compute_cycles: float = 0.0
    occupancy_cycles: float = 0.0
    """Cycles the controller (decode + the unreplicated command bus + any
    near-place logic-unit time) is busy.  The rest of ``cycles`` is
    sub-array work that overlaps with later, independent CC instructions
    targeting other partitions."""
    result_bytes: bytes = b""
    pieces: int = 1

    @property
    def used_inplace(self) -> bool:
        return self.inplace_ops > 0 and self.nearplace_ops == 0 and self.risc_ops == 0


class _Plan(NamedTuple):
    """What every block op of a page-local piece shares, worked out once.

    Operands are block-aligned and each operand stream stays inside one
    page, so block op ``k`` has the operands of block op 0 moved by ``k``
    blocks, each stream has one compute-level cache (one L3 home slice),
    and the locality verdict is the same for every op.
    """

    operands: tuple[tuple[int, bool], ...]
    """``(address, is_dest)`` of each operand of block op 0."""
    caches: tuple[CacheLevel, ...]
    """The compute-level cache of each operand stream."""
    inplace: bool
    """Operand locality holds: the ops can run in place."""
    slots: tuple[int, int, int]
    """:func:`~repro.core.inplace.row_slots` of the ops."""
    key_slice: int | None
    """L3 home slice of the data (operand 0) stream, which a key slot
    pairs with each partition id; None at L1 and L2."""


@dataclass
class _Piece:
    """One page-local piece of a CC instruction in the block-op pipeline."""

    instr: CCInstruction
    level: str
    instr_id: int
    subop: str
    """The sub-array operation of every block op (``instr.opcode.subarray_op``)."""
    plan: _Plan
    key_data: bytes | None = None
    key_slots: set = field(default_factory=set)
    """Key rows this piece has written: partition ids, paired with the
    L3 home slice at L3 (the paper's key table)."""
    transpose_cycles: float = 0.0
    ops: list[BlockOperation] = field(default_factory=list)
    """The piece's block ops in block order (the paper's operation
    table)."""
    fetch_latencies: list[int] = field(default_factory=list)
    partition_load: dict[int, int] = field(default_factory=dict)
    queued: dict = field(default_factory=dict)
    """partition -> ``(subarray, partition, items)``: located in-place ops
    whose kernel has not run yet (all in ``plan.caches[0]``)."""
    located: list = field(default_factory=list)
    """``(op, [(addr, way), ...], partition)`` per queued op: where each
    operand was pinned, for the drain's row check."""


class ComputeCacheController:
    """Per-core CC controller attached to the L1 cache."""

    def __init__(self, hierarchy: CacheHierarchy, core_id: int = 0,
                 config: MachineConfig | None = None) -> None:
        self.hierarchy = hierarchy
        self.core_id = core_id
        self.config = config or hierarchy.config
        cc = self.config.cc
        self._instr_ids = itertools.count()
        """The id of each piece, in issue order (``instr_id`` of its events)."""
        self.inplace = InPlaceExecutor(cc.inplace_latency)
        self.nearplace = NearPlaceUnit(cc.nearplace_latency)
        self.transpose = hierarchy.transpose
        self.stats = CCControllerStats()
        self.tracer = hierarchy.tracer
        self.contention_hook: Callable[[int], bool] | None = None
        """Test hook: called with each pinned block address; returning True
        simulates a forwarded coherence request stealing the line."""
        self.fetch_fault_hook: Callable[[int], bool] | None = None
        """Fault-injection hook (:mod:`repro.faults`): called with each
        operand block address before it is pinned; returning True
        simulates an operand-fetch timeout, which drains into the same
        retry-then-RISC-fallback path as a lost pin."""
        # Decode memoization.  Repeated instructions (streaming kernels
        # re-issue the same (opcode, operand-page) shapes constantly) skip
        # the residency probes of level selection while no fill/invalidate
        # has happened since the memo was recorded, and skip the hazard
        # analysis entirely (it is a pure function of the instruction,
        # the geometry, and the sticky page->slice map).  Both probes are
        # uncounted (no stats, energy, or events), so memoization is
        # observationally invisible.
        self._level_memo: dict[CCInstruction, tuple[int, str]] = {}
        self._hazard_memo: dict[tuple[CCInstruction, str], tuple[int, str | None]] = {}

    # -- public API -----------------------------------------------------------------

    def execute(self, instr: CCInstruction, force_level: str | None = None,
                force_nearplace: bool = False) -> CCResult:
        """Run one CC instruction to completion; returns its result."""
        self._check_bounds(instr)
        pieces = split_by_pages(instr)
        if len(pieces) > 1:
            self.stats.page_splits += 1
        return self._complete(instr, [
            self._execute_piece(piece, force_level, force_nearplace) for piece in pieces
        ])

    def _check_bounds(self, instr: CCInstruction) -> None:
        """Raise :class:`AddressError` if a range the instruction touches
        (a vector operand, the key, or clmul's result bytes) ends beyond
        memory."""
        ranges = list(instr.vector_ranges())
        if instr.opcode is Opcode.CLMUL:
            ranges.append(("dest", instr.dest, instr.clmul_result_bytes))
        limit = self.config.memory_size
        for role, base, length in ranges:
            if base + length > limit:
                raise AddressError(
                    f"{instr.opcode.value}: operand {role} [{base:#x}, {base + length:#x})"
                    f" ends beyond memory of {limit:#x} bytes"
                )

    def _complete(self, instr: CCInstruction,
                  pieces: list[tuple[CCResult, list[BlockOperation]]]) -> CCResult:
        """Per-instruction completion: merge the results of the
        instruction's page-local pieces, pack the result bits of all
        their block ops in block order (the result register of cmp and
        search; clmul's result bytes, stored once, contiguously, at the
        architectural destination; reduce's sum modulo 2^64), and count
        the instruction."""
        total = CCResult(instr=instr, result=0, cycles=0.0, level="", pieces=len(pieces))
        ops = []
        for res, piece_ops in pieces:
            total.cycles += res.cycles
            # Pieces of a page-split instruction may compute at different
            # levels; report "mixed" rather than whichever piece ran last.
            if not total.level:
                total.level = res.level
            elif total.level != res.level:
                total.level = MIXED_LEVEL
            total.inplace_ops += res.inplace_ops
            total.nearplace_ops += res.nearplace_ops
            total.risc_ops += res.risc_ops
            total.fetch_cycles += res.fetch_cycles
            total.compute_cycles += res.compute_cycles
            total.occupancy_cycles += res.occupancy_cycles
            ops += piece_ops
        if instr.opcode is Opcode.REDUCE:
            total.result = sum(op.result_bits for op in ops) & ((1 << 64) - 1)
        else:
            packed = filled = 0
            for op in ops:
                packed |= op.result_bits << filled
                filled += op.result_bit_count
            if instr.opcode is Opcode.CLMUL:
                total.result_bytes = packed.to_bytes(instr.clmul_result_bytes, "little")
                self.hierarchy.write(self.core_id, instr.dest, total.result_bytes)
                self.transpose.invalidate(instr.dest, len(total.result_bytes))
            else:
                total.result = packed
        self.stats.instructions += 1
        return total

    # -- decomposition ------------------------------------------------------------------

    @staticmethod
    def _operand_blocks(instr: CCInstruction) -> list[int]:
        """Every block of the instruction's vector operands, key included."""
        return [addr for _, base, length in instr.vector_ranges()
                for addr in range(base, base + length, BLOCK_SIZE)]

    def _select_level(self, instr: CCInstruction, force_level: str | None) -> str:
        if force_level is not None:
            if force_level not in LEVEL_ORDER:
                raise ReproError(f"unknown cache level {force_level!r}")
            return force_level
        epoch = self.hierarchy.residency_epoch()
        hit = self._level_memo.get(instr)
        if hit is not None and hit[0] == epoch:
            self.stats.level_memo_hits += 1
            return hit[1]
        addrs = self._operand_blocks(instr)
        residency = self.hierarchy.probe_residency(self.core_id, addrs)
        chosen = L3
        for level in LEVEL_ORDER:
            if residency[level]:
                chosen = level
                break
        if len(self._level_memo) >= MEMO_CAPACITY:
            self._level_memo.clear()
        self._level_memo[instr] = (epoch, chosen)
        return chosen

    # -- the block-op pipeline: stage -> account -> kernel -> complete ----------------------

    def _execute_piece(self, instr: CCInstruction, force_level: str | None,
                       force_nearplace: bool) -> tuple[CCResult, list[BlockOperation]]:
        """Run one page-local piece through the block-op pipeline.

        The piece's :class:`_Plan` is worked out once; then its block ops
        are staged: all in one pass when the piece is batched and ready
        (:meth:`_ready_streams`), else each op in turn (fetched and
        pinned, then run near-place or as RISC ops, or located and
        queued).  Queued ops drain as one account
        call per target sub-array and one kernel call.  They drain once
        after the whole instruction (batched dispatch) whenever that is
        provably equivalent to draining after each op; otherwise after
        each op.  The ``cc.dispatch`` event reports which, and why.
        Returns the piece's result and its block ops, whose result bits
        :meth:`_complete` packs.
        """
        level = self._select_level(instr, force_level)
        hazard = "forced-nearplace" if force_nearplace else self._batch_hazard(instr, level)
        piece = self._begin(instr, level, hazard)
        operands = piece.plan.operands
        piece.ops = [
            BlockOperation(
                instr_id=piece.instr_id,
                subarray_op=piece.subop,
                operands=[BlockOperand(addr + off, is_dest) for addr, is_dest in operands],
                lane_bits=instr.lane_bits,
                elem_bits=instr.elem_bits,
            )
            for off in range(0, instr.num_blocks * BLOCK_SIZE, BLOCK_SIZE)
        ]
        streams = self._ready_streams(piece) if hazard is None else None
        if streams is not None:
            self._stage_ready(piece, streams)
        else:
            for op in piece.ops:
                self._stage_block_op(piece, op, force_nearplace)
                if hazard is not None:
                    self._drain(piece)
        self._drain(piece)
        return self._finish(piece), piece.ops

    def _plan(self, instr: CCInstruction, level: str) -> _Plan:
        """The facts every block op of a page-local piece shares."""
        operands = instr.block_operands()
        addrs = [addr for addr, _ in operands]
        return _Plan(
            operands=tuple(operands),
            caches=tuple(self.hierarchy.level_cache(level, self.core_id, a) for a in addrs),
            inplace=self._locality_holds(addrs, level),
            slots=row_slots(instr.opcode.subarray_op, [is_dest for _, is_dest in operands]),
            key_slice=self.hierarchy.home_slice(addrs[0], self.core_id) if level == L3 else None,
        )

    def _begin(self, instr: CCInstruction, level: str, hazard: str | None) -> _Piece:
        """Open a piece: give it the next id, plan it, convert arithmetic
        sources to bit-serial, stage a search/broadcast key, and emit
        ``cc.dispatch`` (``hazard`` is why its ops drain one at a time;
        ``None`` means batched)."""
        piece = _Piece(instr, level, next(self._instr_ids), instr.opcode.subarray_op,
                       plan=self._plan(instr, level))

        # Bit-serial layout conversion (arithmetic tier): every source
        # block not already transposed goes through the transpose unit
        # before the sub-arrays can compute on it.  Charged per
        # instruction regardless of the eventual in-place/near-place/RISC
        # outcome, so accounting is a pure function of the instruction
        # stream (backend- and dispatch-invariant).
        if instr.opcode.is_arith:
            blocks, piece.transpose_cycles = self.transpose.convert(
                [(base, length) for role, base, length in instr.vector_ranges()
                 if role != "dest"])
            if blocks:
                cache = self.hierarchy.level_cache(level, self.core_id, instr.src1)
                charge_transpose(cache.ledger, cache.name, blocks)
                self.stats.transpose_blocks += blocks
                self.stats.transpose_cycles += piece.transpose_cycles
                if self.tracer is not None:
                    self.tracer.emit(
                        "cc.transpose", core=self.core_id, level=level,
                        opcode=instr.opcode.value, instr_id=piece.instr_id,
                        blocks=blocks, span=float(piece.transpose_cycles),
                    )

        # Key staging for cc_search and broadcast cc_clmul: read the key
        # block once; replicate it into each partition's key row.
        if instr.key_is_fixed_block:
            piece.key_data, key_latency = self._stage_key(instr, level)
            if key_latency:
                piece.fetch_latencies.append(key_latency)

        if self.tracer is not None:
            self.tracer.emit(
                "cc.dispatch", core=self.core_id, level=level,
                opcode=instr.opcode.value, instr_id=piece.instr_id,
                outcome="batched" if hazard is None else "sequential", reason=hazard,
            )
        return piece

    def _stage_block_op(self, piece: _Piece, op: BlockOperation,
                        force_nearplace: bool = False) -> None:
        """Stage one block op: fetch and pin its operands (a lost pin
        retries, then falls back to RISC ops), then run it near-place if
        forced or if its operands lack locality, else take its rows from
        where its operands were pinned and queue it for the next
        :meth:`_drain`.  The operands are unpinned again before this
        returns or raises."""
        plan = piece.plan
        try:
            lines = self._acquire_operands(op, piece)
            if lines is None:
                return
            if force_nearplace or not plan.inplace:
                # Near-place handles any operand placement, including L3
                # operands homed on different NUCA slices.
                op.fallback_reason = "forced" if force_nearplace else "locality-miss"
                self.nearplace.execute(plan.caches, op, key_data=piece.key_data)
                return
            partition = self._queue(piece, op, lines)
            piece.located.append((op, [(o.addr, way) for o, (_, way)
                                       in zip(op.operands, lines)], partition))
        finally:
            self._unpin_all(op, plan.caches)

    def _ready_streams(self, piece: _Piece) -> list[list[tuple[int, int]]] | None:
        """The ``(set_index, way)`` lines of each operand stream of a
        batched piece, when the piece can stage in one pass: its ops run
        in place, no test or fault hook is installed, and every operand
        block is ready
        (:meth:`~repro.cache.hierarchy.CacheHierarchy.cc_ready_lines`).
        None otherwise."""
        plan = piece.plan
        if not plan.inplace or self.contention_hook is not None \
                or self.fetch_fault_hook is not None:
            return None
        span = piece.instr.num_blocks * BLOCK_SIZE
        streams = []
        for addr, is_dest in plan.operands:
            lines = self.hierarchy.cc_ready_lines(
                self.core_id, piece.level, range(addr, addr + span, BLOCK_SIZE), is_dest)
            if lines is None:
                return None
            streams.append(lines)
        return streams

    def _stage_ready(self, piece: _Piece, streams: list[list[tuple[int, int]]]) -> None:
        """Stage every op of a ready piece (:meth:`_ready_streams`) in one
        pass, with the effects op-by-op staging has on it: each operand
        line goes to MRU in op order (one LRU tick per operand, as its pin
        took), destinations become MODIFIED (as ``cc_prepare`` marks them)
        and each op is queued in op order.  No pin is taken: no line is
        pinned between pieces (op-by-op staging unpins an op's operands
        before it returns) and nothing fills or evicts a line while a
        ready piece stages, so the drain's row check has nothing to find
        and the ops are not listed for it."""
        cache = piece.plan.caches[0]  # in place: every stream lives here
        by_op = list(zip(*streams))
        cache.promote([line for lines in by_op for line in lines])
        for lines, (_, is_dest) in zip(streams, piece.plan.operands):
            if is_dest:
                for set_index, way in lines:
                    cache.set_line_state(set_index, way, MESIState.MODIFIED)
        for op, lines in zip(piece.ops, by_op):
            self._queue(piece, op, lines)

    def _queue(self, piece: _Piece, op: BlockOperation,
               lines: list[tuple[int, int]]) -> int:
        """Queue an in-place op for the next :meth:`_drain`, with the rows
        of its operand ``lines``, after replicating a search key into its
        partition; returns the partition.  Locality holds, so every
        operand lives in operand 0's cache."""
        plan = piece.plan
        geometry = plan.caches[0].geometry
        partition = geometry.partition_of(op.operands[0].addr)
        if piece.key_data is not None:
            self._replicate_key(op, piece, partition)
        places = [geometry.slot(set_index, way) for set_index, way in lines]
        rows = [row for _, row in places]
        rows += (geometry.key_row, None)
        a, b, dest = plan.slots
        piece.partition_load[partition] = piece.partition_load.get(partition, 0) + 1
        batch = piece.queued.get(partition)
        if batch is None:
            batch = piece.queued[partition] = (places[0][0], partition, [])
        batch[2].append((op, (rows[a], rows[b], rows[dest])))
        return partition

    def _drain(self, piece: _Piece) -> None:
        """Account and run every queued op in one
        :meth:`InPlaceExecutor.execute_batch` call: one account call per
        target sub-array, then one kernel call for them all.

        A row check comes first, as a backstop for ops staged op by op
        (``piece.located``): ``_batch_hazard`` guarantees that no staging
        fetch displaced a block an earlier op pinned, but an op whose
        operands did move (the index no longer maps a block to the way it
        was pinned in) is taken out of its batch and staged and drained
        again on its own.
        """
        queued, piece.queued = piece.queued, {}
        located, piece.located = piece.located, []
        cache = piece.plan.caches[0]
        while True:
            moved = next((item for item in located if not all(
                cache.probe(addr) == way for addr, way in item[1])), None)
            if moved is None:
                break
            located.remove(moved)
            op, partition = moved[0], moved[2]
            items = queued[partition][2]
            items[:] = [(o, r) for o, r in items if o is not op]
            piece.partition_load[partition] -= 1
            if not piece.partition_load[partition]:
                del piece.partition_load[partition]
            self._stage_block_op(piece, op)
            self._drain(piece)
        groups = [batch for batch in queued.values() if batch[2]]
        if groups:
            self.inplace.execute_batch(cache, groups)

    def _finish(self, piece: _Piece) -> CCResult:
        """Complete a drained piece: count each op's outcome, emit
        ``cc.block_op``, ``cc.attr`` and ``cc.instruction``, update stats,
        makespans and occupancy, and track the transpose layout."""
        instr, level, instr_id = piece.instr, piece.level, piece.instr_id
        tracer = self.tracer
        spans = {"in-place": float(self.inplace.op_latency(piece.subop, instr.elem_bits)),
                 "near-place": float(self.nearplace.nearplace_latency),
                 "risc-fallback": 0.0}
        counts = dict.fromkeys(spans, 0)
        nearplace_cycles = 0.0
        for op in piece.ops:
            outcome = op.outcome
            counts[outcome] += 1
            if outcome == "near-place":
                nearplace_cycles += self.nearplace.nearplace_latency
            if op.fallback_reason is not None:
                self.stats.fallback_reasons[op.fallback_reason] = (
                    self.stats.fallback_reasons.get(op.fallback_reason, 0) + 1
                )
            if tracer is not None:
                tracer.emit(
                    "cc.block_op", core=self.core_id, level=level,
                    opcode=instr.opcode.value, partition=op.partition,
                    addr=op.operands[0].addr, instr_id=instr_id,
                    span=spans[outcome], outcome=outcome, reason=op.fallback_reason,
                )
        inplace_ops, nearplace_ops, risc_ops = counts.values()
        inplace_span = spans["in-place"]

        fetch_cycles = self._fetch_makespan(piece.fetch_latencies)
        compute_cycles = self._compute_makespan(piece.partition_load,
                                                nearplace_cycles, inplace_span)
        notify = self.config.l1d.hit_latency  # L1 controller -> core completion
        cycles = (INSTRUCTION_OVERHEAD_CYCLES + fetch_cycles + piece.transpose_cycles
                  + compute_cycles + notify)
        # Controller occupancy: decode + every block command down the
        # unreplicated address bus, plus any serial near-place logic-unit
        # time.  Key replication is a single broadcast command (the H-tree
        # fans it out to all target sub-arrays at once).  Sub-array
        # execution itself overlaps with later instructions.
        commands = sum(piece.partition_load.values()) + (1 if piece.key_slots else 0) + risc_ops
        occupancy = (
            INSTRUCTION_OVERHEAD_CYCLES
            + self._issue_cycles(commands)
            + nearplace_cycles
        )

        self.stats.block_ops_inplace += inplace_ops
        self.stats.block_ops_nearplace += nearplace_ops
        self.stats.block_ops_risc += risc_ops
        self.stats.fetch_cycles += fetch_cycles
        self.stats.compute_cycles += compute_cycles
        self.stats.level_compute_cycles[level] = (
            self.stats.level_compute_cycles.get(level, 0.0) + compute_cycles
        )
        # Layout tracking: arithmetic destinations come out bit-serial
        # (free); any other destination write reverts its blocks to
        # row-major, so the next arithmetic use pays the conversion again
        # (clmul's result bytes are invalidated where _complete stores
        # them).
        if instr.opcode.is_arith:
            if instr.dest is not None:
                self.transpose.mark_bit_serial(instr.dest, instr.size)
        elif instr.opcode is Opcode.BUZ:
            self.transpose.invalidate(instr.src1, instr.size)
        elif instr.dest is not None and instr.opcode is not Opcode.CLMUL:
            self.transpose.invalidate(instr.dest, instr.size)
        if tracer is not None:
            # Per-piece cycle attribution: the emitted phase spans sum
            # exactly to this piece's latency (the profiler asserts it).
            for phase, span in (
                ("decode", float(INSTRUCTION_OVERHEAD_CYCLES)),
                ("operand-fetch", float(fetch_cycles)),
                ("transpose", float(piece.transpose_cycles)),
                ("compute-inplace", float(compute_cycles - nearplace_cycles)),
                ("compute-nearplace", float(nearplace_cycles)),
                ("notify", float(notify)),
            ):
                if span:
                    tracer.emit(
                        "cc.attr", core=self.core_id, level=level,
                        opcode=instr.opcode.value, instr_id=instr_id,
                        phase=phase, span=span,
                    )
            if risc_ops == 0:
                instr_outcome = "in-place" if nearplace_ops == 0 else "near-place"
            else:
                instr_outcome = "risc-fallback" if inplace_ops == nearplace_ops == 0 else "mixed"
            tracer.emit(
                "cc.instruction", core=self.core_id, level=level,
                opcode=instr.opcode.value, instr_id=instr_id,
                span=float(cycles), outcome=instr_outcome,
            )
        return CCResult(
            instr=instr, result=0, cycles=cycles, level=level,
            inplace_ops=inplace_ops, nearplace_ops=nearplace_ops, risc_ops=risc_ops,
            fetch_cycles=fetch_cycles, compute_cycles=compute_cycles,
            occupancy_cycles=occupancy,
        )

    # -- block-op lifecycle -------------------------------------------------------------------

    def _acquire_operands(self, op: BlockOperation,
                          piece: _Piece) -> list[tuple[int, int]] | None:
        """Fetch and pin every operand, retrying when a pin is lost.

        Returns the ``(set_index, way)`` each operand is pinned in, once
        all are pinned.  After exactly ``pin_retry_limit`` failed attempts
        the op is handed to the RISC fallback (starvation avoidance,
        Section IV-E) and None is returned.
        """
        instr, level = piece.instr, piece.level
        attempts = 0
        while True:
            attempts += 1
            lines = self._prepare_and_pin(op, piece)
            if lines is not None:
                if attempts > 1 and self.tracer is not None:
                    self.tracer.emit(
                        "fault.recover", core=self.core_id, level=level,
                        opcode=instr.opcode.value, instr_id=op.instr_id,
                        addr=op.operands[0].addr, outcome="retried",
                        reason="pin-loss", span=float(attempts - 1),
                    )
                return lines
            self.stats.pin_retries += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "cc.pin_retry", core=self.core_id, level=level,
                    opcode=instr.opcode.value, instr_id=op.instr_id,
                    addr=op.operands[0].addr,
                )
            if attempts >= self.config.cc.pin_retry_limit:
                self._unpin_all(op, piece.plan.caches)
                op.fallback_reason = "pin-loss"
                self._risc_fallback(op, instr, piece.key_data)
                if self.tracer is not None:
                    self.tracer.emit(
                        "fault.recover", core=self.core_id, level=level,
                        opcode=instr.opcode.value, instr_id=op.instr_id,
                        addr=op.operands[0].addr, outcome="degraded-risc",
                        reason="pin-loss", span=float(attempts),
                    )
                return None

    # -- dispatch hazards ----------------------------------------------------------------------

    def _batch_hazard(self, instr: CCInstruction, level: str) -> str | None:
        """Memoizing wrapper around :meth:`_batch_hazard_uncached`.

        The hazard verdict is a pure function of the instruction, the
        level's geometry, and the sticky page->slice map, so it is cached
        per ``(instr, level)`` and only invalidated by an explicit
        :meth:`~repro.cache.hierarchy.CacheHierarchy.place_page`.
        """
        key = (instr, level)
        epoch = self.hierarchy.page_map_epoch
        hit = self._hazard_memo.get(key)
        if hit is not None and hit[0] == epoch:
            self.stats.hazard_memo_hits += 1
            return hit[1]
        hazard = self._batch_hazard_uncached(instr, level)
        if len(self._hazard_memo) >= MEMO_CAPACITY:
            self._hazard_memo.clear()
        self._hazard_memo[key] = (epoch, hazard)
        return hazard

    def _batch_hazard_uncached(self, instr: CCInstruction, level: str) -> str | None:
        """Why draining an instruction's kernels once, after all its block
        ops are staged, is *not* provably equivalent to draining after
        each op (``"data-hazard"`` / ``"occupancy"``), or None when it is.

        Two conditions.  (1) No inter-op data hazard: a *shifted* overlap
        between the destination range and a source range makes a later
        block op read an earlier op's result, which one batched
        gather/compute/scatter would miss (an exactly aligned
        ``dest == src`` overlap is within-op and safe).  (2) No capacity
        (occupancy) hazard: every operand block (plus the staged key) must
        be co-resident at the compute level and at every inclusive level
        below it, so no staging fetch can evict a block an earlier op
        already located.
        """
        operands = instr.block_operands()
        sources = [addr for addr, is_dest in operands if not is_dest]
        for dest in (addr for addr, is_dest in operands if is_dest):
            for src in sources:
                if src != dest and src < dest + instr.size and dest < src + instr.size:
                    return "data-hazard"
        blocks = set(self._operand_blocks(instr))
        chain = {L1: (L1, L2, L3), L2: (L2, L3), L3: (L3,)}[level]
        for check_level in chain:
            occupancy: dict[tuple[int, int], int] = {}
            for addr in blocks:
                cache = self.hierarchy.level_cache(check_level, self.core_id, addr)
                key = (id(cache), cache.set_of(addr))
                occupancy[key] = occupancy.get(key, 0) + 1
                if occupancy[key] > cache.config.ways:
                    return "occupancy"
        return None

    def _prepare_and_pin(self, op: BlockOperation,
                         piece: _Piece) -> list[tuple[int, int]] | None:
        """Fetch and pin every operand; returns the ``(set_index, way)``
        of each pinned operand, or None if a pin was lost (retry)."""
        level, caches = piece.level, piece.plan.caches
        lines = []
        for operand, cache in zip(op.operands, caches):
            try:
                # Every destination block is fully overwritten: no fetch.
                latency = self.hierarchy.cc_prepare(
                    self.core_id, level, operand.addr, operand.is_dest,
                    skip_fetch=operand.is_dest,
                )
            except PinnedLineError:
                # The fill found every way of its set pinned (the op's own
                # operands can fill a low-associativity set): a lost pin.
                self._unpin_all(op, caches)
                return None
            if latency:
                piece.fetch_latencies.append(latency)
                if self.tracer is not None:
                    self.tracer.emit(
                        "cc.fetch", core=self.core_id, level=level,
                        addr=operand.addr, instr_id=op.instr_id,
                        span=float(latency),
                    )
            if self.fetch_fault_hook is not None and \
                    self.fetch_fault_hook(operand.addr):
                # Injected operand-fetch timeout: drop any partial pin set
                # and go back through the starvation-avoidance retry path.
                self._unpin_all(op, caches)
                return None
            try:
                lines.append(cache.pin(operand.addr, op.instr_id))
            except PinnedLineError:
                self._unpin_all(op, caches)
                return None
        if self.contention_hook is not None:
            for operand in op.operands:
                if self.contention_hook(operand.addr):
                    # A forwarded coherence request: release the lock and
                    # respond (Section IV-F), then retry the fetch.
                    self._unpin_all(op, caches)
                    return None
        return lines

    @staticmethod
    def _unpin_all(op: BlockOperation, caches: tuple[CacheLevel, ...]) -> None:
        """Unpin each operand's line in its stream's compute-level cache.
        The line's pin owner is the one record of a pin: unpinning an
        absent or unpinned line does nothing, and only the op being staged
        holds pins."""
        for operand, cache in zip(op.operands, caches):
            cache.unpin(operand.addr)

    def _locality_holds(self, addrs: list[int], level: str) -> bool:
        """Whether one block op's operands (``addrs``) can compute in
        place: one block partition, and at L3 one home slice."""
        if len(addrs) < 2:
            return True
        cache = self.hierarchy.level_cache(level, self.core_id, addrs[0])
        parts = {cache.geometry.partition_of(a) for a in addrs}
        if len(parts) != 1:
            return False
        # Multi-slice L3: operands must also be homed on the same slice.
        if level == L3:
            slices = {self.hierarchy.home_slice(a, self.core_id) for a in addrs}
            return len(slices) == 1
        return True

    # -- search key handling --------------------------------------------------------------------

    def _stage_key(self, instr: CCInstruction, level: str) -> tuple[bytes, int]:
        """Fetch the 64-byte key to the compute level and read it out once."""
        key_addr = instr.src2
        latency = self.hierarchy.cc_prepare(self.core_id, level, key_addr, is_dest=False)
        if latency and self.tracer is not None:
            self.tracer.emit("cc.fetch", core=self.core_id, level=level,
                             addr=key_addr, span=float(latency), outcome="key")
        cache = self.hierarchy.level_cache(level, self.core_id, key_addr)
        return cache.read_block(key_addr, charge=False), latency

    def _replicate_key(self, op: BlockOperation, piece: _Piece, partition: int) -> None:
        """Write the key into the data block's partition key row, once per
        partition per piece (``piece.key_slots``)."""
        plan = piece.plan
        slot = partition if plan.key_slice is None else (plan.key_slice, partition)
        if slot in piece.key_slots:
            return
        cache = plan.caches[0]
        cache.geometry.write_key(partition, piece.key_data)
        # The H-tree fans the key out to every target sub-array at once:
        # wire energy is charged with the piece's first key write, array
        # writes per partition.
        if not piece.key_slots:
            charge_key_broadcast(cache.ledger, cache.name)
        piece.key_slots.add(slot)
        charge_key_row_write(cache.ledger, cache.name)
        self.stats.key_replications += 1
        if self.tracer is not None:
            self.tracer.emit(
                "cc.key_replicate", core=self.core_id, level=piece.level,
                partition=slot, addr=op.operands[0].addr, instr_id=op.instr_id,
            )

    # -- RISC fallback (Section IV-E) -----------------------------------------------------------------

    def _risc_fallback(self, op: BlockOperation, instr: CCInstruction,
                       key_data: bytes | None) -> None:
        """Translate a block op into core loads/stores when pinning keeps
        failing (starvation avoidance)."""
        self.stats.risc_fallbacks += 1
        sources = [
            self.hierarchy.read(self.core_id, o.addr, BLOCK_SIZE)[0]
            for o in op.source_operands
        ]
        result_data = block_result(op, sources, key_data)
        dest = op.dest_operand
        if dest is not None and result_data is not None:
            self.hierarchy.write(self.core_id, dest.addr, result_data)
        # Core executes ~2 RISC ops per word plus loop overhead.
        words = BLOCK_SIZE // 8
        self.hierarchy.ledger.add(
            Component.CORE, 3 * words * self.config.core.epi_scalar
        )
        op.outcome = "risc-fallback"

    # -- timing ------------------------------------------------------------------------------

    def _fetch_makespan(self, latencies: list[int]) -> float:
        """Operand fetches overlap up to FETCH_MLP outstanding requests."""
        if not latencies:
            return 0.0
        return max(max(latencies), math.ceil(sum(latencies) / FETCH_MLP))

    def _issue_cycles(self, commands: int) -> int:
        """Cycles to stream block commands down the unreplicated H-tree
        address bus, ``commands_per_cycle`` at a time (Section IV-D)."""
        return -(-commands // self.config.cc.commands_per_cycle)

    def _compute_makespan(self, partition_load: dict[int, int],
                          nearplace_cycles: float, inplace_latency: float) -> float:
        """In-place ops stream down the address bus and run concurrently
        across partitions, serially within one; near-place ops serialize
        through the controller's logic unit.  ``inplace_latency`` is the
        per-block-op latency (step-scaled for the arithmetic tier)."""
        makespan = nearplace_cycles
        if partition_load:
            issue = self._issue_cycles(sum(partition_load.values()))
            busiest = max(partition_load.values())
            makespan += issue + busiest * inplace_latency
        return makespan
