"""Near-place Compute Caches (Section IV-J).

When operands lack locality (or the caller asks for it explicitly), the
operation runs "near" the cache: the controller's logic unit reads the
source blocks out of the sub-arrays *over the H-tree*, computes, and writes
any result back.  It computes exactly what the in-place sub-arrays
compute, with the same kernel (:func:`repro.kernels.block_op`); only where
the op runs and what it costs differ.  Compared to in-place execution it:

* pays conventional read/write energy (including the 60-80% H-tree share);
* serializes through the single per-controller logic unit (one 64-byte
  vector logic unit per cache controller in the paper's design); and
* takes 22 cycles per block operation instead of 14.

It still avoids moving data up to higher cache levels and into the core,
so it remains much better than the baseline.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..cache.cache import CacheLevel
from ..errors import ReproError
from ..kernels import block_op
from ..params import BLOCK_SIZE
from .operation_table import BlockOperation

CacheResolver = Callable[[int], CacheLevel]


class OperandRegisters:
    """The controller's operand register file (Section IV-J: "registers to
    temporarily store the operands").

    Near-place reads land in these 64-byte registers before the logic unit
    combines them.  The file is small; an operation needing more operands
    than fit re-reads from the sub-arrays (a spill, charged by the caller
    as an extra conventional read).
    """

    def __init__(self, capacity: int = 4) -> None:
        self.capacity = capacity
        self._tags: list[int] = []
        self.loads = 0
        self.hits = 0
        self.spills = 0

    def acquire(self, addr: int) -> bool:
        """Bring an operand into a register; True on a register hit
        (operand already resident, e.g. a key reused across ops)."""
        if addr in self._tags:
            self._tags.remove(addr)
            self._tags.append(addr)  # MRU
            self.hits += 1
            return True
        self.loads += 1
        if len(self._tags) >= self.capacity:
            self._tags.pop(0)
            self.spills += 1
        self._tags.append(addr)
        return False

    def invalidate(self, addr: int) -> None:
        """A write to a registered operand stales the register copy."""
        if addr in self._tags:
            self._tags.remove(addr)


def block_result(op: BlockOperation, sources: list[bytes],
                 key_data: bytes | None = None) -> bytes | None:
    """What one block op computes outside the sub-arrays: the kernel of
    the packed sub-arrays on the op's source blocks.

    ``sources`` holds the bytes of the op's source blocks in operand
    order; ``key_data`` is the staged key block, the second operand of
    ``search`` and broadcast ``clmul``.  Sets the op's result bits
    (:meth:`~repro.core.operation_table.BlockOperation.take_result`) and
    returns the bytes its destination receives, or ``None`` for ops that
    write none.  The near-place logic unit and the core's RISC fallback
    both compute through this one function.
    """
    rows = [np.frombuffer(src, dtype=np.uint8) for src in sources]
    if len(rows) < 2 and key_data is not None:
        rows.append(np.frombuffer(key_data, dtype=np.uint8))
    a = rows[0] if rows else np.zeros(BLOCK_SIZE, dtype=np.uint8)  # buz reads nothing
    out, results = block_op(op.subarray_op, a, rows[1] if len(rows) > 1 else None,
                            op.lane_bits, op.elem_bits)
    op.take_result(results[0])
    return None if out is None else out[0].tobytes()


class NearPlaceUnit:
    """The logic unit + operand registers at one cache controller."""

    def __init__(self, nearplace_latency: int = 22,
                 register_capacity: int = 4) -> None:
        self.nearplace_latency = nearplace_latency
        self.registers = OperandRegisters(register_capacity)

    def execute(self, level: CacheLevel | CacheResolver, op: BlockOperation,
                key_data: bytes | None = None) -> None:
        """Run one block operation at the controller's logic unit.

        Sources are read conventionally (charging H-tree energy), the
        result is computed in the logic unit (:func:`block_result`, which
        leaves the op's result bits on it), and destinations are written
        back conventionally.  ``level`` may be a single cache or a
        per-address resolver - near-place is exactly what handles operands
        that do not share a partition, including ones homed on *different
        L3 NUCA slices*.
        """
        cache_for: CacheResolver = (
            level if callable(level) else (lambda _addr: level)
        )
        sources = []
        for operand in op.source_operands:
            # A register hit (e.g. a reused key block) skips the sub-array
            # read and its H-tree energy entirely.
            hit = self.registers.acquire(operand.addr)
            sources.append(
                cache_for(operand.addr).read_block(operand.addr, charge=not hit)
            )
        result_data = block_result(op, sources, key_data)
        dest = op.dest_operand
        if dest is not None:
            if result_data is None:
                raise ReproError(
                    f"{op.subarray_op} produced no data for its destination")
            cache_for(dest.addr).write_block(dest.addr, result_data, dirty=True)
            self.registers.invalidate(dest.addr)
        op.outcome = "near-place"
        stats_home = op.operands[0].addr
        home = cache_for(stats_home)
        home.stats.cc_nearplace_ops += 1
        if home.tracer is not None:
            home.tracer.emit(
                "nearplace.op", level=home.name, unit=home.unit,
                opcode=op.subarray_op, addr=stats_home, instr_id=op.instr_id,
                span=float(self.nearplace_latency),
            )
