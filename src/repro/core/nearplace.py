"""Near-place Compute Caches (Section IV-J).

When operands lack locality (or the caller asks for it explicitly), the
operation runs "near" the cache: the controller's logic unit reads the
source blocks out of the sub-arrays *over the H-tree*, computes, and writes
any result back.  Compared to in-place execution this:

* pays conventional read/write energy (including the 60-80% H-tree share);
* serializes through the single per-controller logic unit (one 64-byte
  vector logic unit per cache controller in the paper's design); and
* takes 22 cycles per block operation instead of 14.

It still avoids moving data up to higher cache levels and into the core,
so it remains much better than the baseline.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..bitops import bytes_and, bytes_not, bytes_or, bytes_xor
from ..cache.cache import CacheLevel
from ..errors import ReproError
from ..kernels import arith_rows, clmul_mask, equality_mask, reduce_rows
from ..params import BLOCK_SIZE
from .operation_table import BlockOperation

CacheResolver = Callable[[int], CacheLevel]


@dataclass(frozen=True)
class NearPlaceOutcome:
    """Result of one near-place block operation."""

    result_bits: int
    result_bit_count: int
    latency: float
    result_data: bytes | None = None


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
                 key_data: bytes | None = None) -> tuple[bytes | None, int, int]:
    """What one block op computes outside the sub-arrays.

    ``sources`` holds the bytes of the op's source blocks in operand
    order; ``key_data`` is the staged key block of ``search`` and
    broadcast ``clmul``.  Returns ``(dest_data, result_bits,
    result_bit_count)``: ``dest_data`` is ``None`` for ops that write no
    destination, and ``reduce`` carries its 64-bit sum raw in
    ``result_bits`` with a bit count of 0.  The near-place logic unit and
    the core's RISC fallback both compute through this one function.
    """
    subop = op.subarray_op
    if subop == "copy":
        return sources[0], 0, 0
    if subop == "buz":
        return bytes(BLOCK_SIZE), 0, 0
    if subop == "not":
        return bytes_not(sources[0]), 0, 0
    if subop == "and":
        return bytes_and(sources[0], sources[1]), 0, 0
    if subop == "or":
        return bytes_or(sources[0], sources[1]), 0, 0
    if subop == "xor":
        return bytes_xor(sources[0], sources[1]), 0, 0
    rows = [np.frombuffer(src, dtype=np.uint8) for src in sources]
    if subop == "cmp":
        words = BLOCK_SIZE // 8
        return None, int(equality_mask(rows[0], rows[1], 8)[0]), words
    if subop == "search":
        if key_data is None:
            raise ReproError("search needs the staged key block")
        return None, int(sources[0] == key_data), 1
    if subop == "clmul":
        if op.lane_bits is None:
            raise ReproError("clmul needs a lane width")
        if len(rows) < 2:
            if key_data is None:
                raise ReproError("broadcast clmul needs the staged key block")
            rows.append(np.frombuffer(key_data, dtype=np.uint8))
        lanes = (BLOCK_SIZE * 8) // op.lane_bits
        return None, int(clmul_mask(rows[0], rows[1], op.lane_bits)[0]), lanes
    if subop in ("add", "mul", "reduce") and op.elem_bits is None:
        raise ReproError(f"{subop} needs an element width")
    if subop in ("add", "mul"):
        # Word-parallel on row-major blocks: no bit-serial step penalty,
        # but none of the in-place energy advantage either.
        return arith_rows(subop, rows[0], rows[1], op.elem_bits)[0].tobytes(), 0, 0
    if subop == "reduce":
        return None, int(reduce_rows(rows[0], op.elem_bits)[0]), 0
    raise ReproError(f"unknown block operation {subop!r}")


class NearPlaceUnit:
    """The logic unit + operand registers at one cache controller."""

    def __init__(self, nearplace_latency: int = 22,
                 register_capacity: int = 4) -> None:
        self.nearplace_latency = nearplace_latency
        self.registers = OperandRegisters(register_capacity)

    def execute(self, level: CacheLevel | CacheResolver, op: BlockOperation,
                key_data: bytes | None = None) -> NearPlaceOutcome:
        """Run one block operation at the controller's logic unit.

        Sources are read conventionally (charging H-tree energy), the
        result is computed in the logic unit, and destinations are written
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
        result_data, bits, bit_count = block_result(op, sources, key_data)
        dest = op.dest_operand
        if dest is not None:
            if result_data is None:
                raise ReproError(
                    f"{op.subarray_op} produced no data for its destination")
            cache_for(dest.addr).write_block(dest.addr, result_data, dirty=True)
            self.registers.invalidate(dest.addr)
        stats_home = op.operands[0].addr
        home = cache_for(stats_home)
        home.stats.cc_nearplace_ops += 1
        if home.tracer is not None:
            home.tracer.emit(
                "nearplace.op", level=home.name, unit=home.unit,
                opcode=op.subarray_op, addr=stats_home, instr_id=op.instr_id,
                span=float(self.nearplace_latency),
            )
        return NearPlaceOutcome(bits, bit_count, self.nearplace_latency, result_data)
