"""The CC controller's operation table (Section IV-D).

A CC instruction is broken into *simple vector operations* whose operands
span at most one cache block.  Each operation-table entry holds one such
operation's operands and its lifecycle: it is issued to the sub-array (or
the near-place unit) only once all operands are resident and pinned at the
compute level, and retires once done or handed to the core's RISC
fallback.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ReproError


class OpStatus(enum.Enum):
    WAITING = "waiting-operands"
    ISSUED = "issued"
    DONE = "done"
    FAILED = "failed"


@dataclass
class BlockOperand:
    """One cache-block operand of a simple vector operation."""

    addr: int
    is_dest: bool
    pinned: bool = False


@dataclass
class BlockOperation:
    """One simple vector operation (operands span a single cache block)."""

    instr_id: int
    op_index: int
    subarray_op: str
    operands: list[BlockOperand]
    lane_bits: int | None = None
    elem_bits: int | None = None
    """Element width of the bit-serial arithmetic ops (cc_add/mul/reduce)."""
    status: OpStatus = OpStatus.WAITING
    partition: int | None = None
    inplace: bool = True
    result_bits: int = 0
    result_bit_count: int = 0
    fallback_reason: str | None = None
    """Why the op missed in-place execution (``locality-miss``,
    ``pin-loss``, ``forced``); ``None`` when it ran in place."""

    @property
    def addresses(self) -> list[int]:
        return [o.addr for o in self.operands]

    @property
    def source_operands(self) -> list[BlockOperand]:
        return [o for o in self.operands if not o.is_dest]

    @property
    def dest_operand(self) -> BlockOperand | None:
        for o in self.operands:
            if o.is_dest:
                return o
        return None


class OperationTable:
    """Fixed-capacity table of in-flight simple vector operations."""

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self._ops: dict[tuple[int, int], BlockOperation] = {}

    def allocate(self, op: BlockOperation) -> BlockOperation:
        key = (op.instr_id, op.op_index)
        if key in self._ops:
            raise ReproError(f"duplicate operation-table entry {key}")
        if len(self._ops) >= self.capacity:
            raise ReproError(
                f"operation table full ({self.capacity} entries); controller must stall"
            )
        self._ops[key] = op
        return op

    def get(self, instr_id: int, op_index: int) -> BlockOperation:
        try:
            return self._ops[(instr_id, op_index)]
        except KeyError:
            raise ReproError(f"unknown operation ({instr_id}, {op_index})") from None

    def retire(self, instr_id: int, op_index: int) -> None:
        op = self.get(instr_id, op_index)
        if op.status not in (OpStatus.DONE, OpStatus.FAILED):
            raise ReproError(f"retiring unfinished operation ({instr_id}, {op_index})")
        del self._ops[(instr_id, op_index)]

    def __len__(self) -> int:
        return len(self._ops)
