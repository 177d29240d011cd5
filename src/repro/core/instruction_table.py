"""The L1 CC controller's instruction table (Section IV-D).

Tracks metadata for each pending CC instruction: the accumulated result
(for CC-R instructions), how many of its simple vector operations have
completed, and which operation is generated next.  The L1 controller
notifies the core when the count reaches the total.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError
from .isa import CCInstruction


@dataclass
class InstructionEntry:
    """One pending CC instruction."""

    instr: CCInstruction
    instr_id: int
    total_ops: int
    completed_ops: int = 0
    next_op_index: int = 0
    result_mask: int = 0
    result_bits_filled: int = 0

    @property
    def done(self) -> bool:
        return self.completed_ops >= self.total_ops

    def generate_next(self) -> int:
        """Index of the next simple vector operation to generate."""
        if self.next_op_index >= self.total_ops:
            raise ReproError(f"instruction {self.instr_id} has no more operations to generate")
        idx = self.next_op_index
        self.next_op_index += 1
        return idx

    def complete_op(self, result_bits: int = 0, bit_count: int = 0) -> None:
        """Record one completed block operation, merging any result bits.

        Result bits from successive block ops are packed little-endian into
        the 64-bit result register (word 0 of block 0 is bit 0).
        """
        if self.done:
            raise ReproError(f"instruction {self.instr_id} already complete")
        if bit_count:
            if self.result_bits_filled + bit_count > 64:
                raise ReproError(
                    f"instruction {self.instr_id} result overflows the 64-bit register"
                )
            self.result_mask |= result_bits << self.result_bits_filled
            self.result_bits_filled += bit_count
        self.completed_ops += 1


class InstructionTable:
    """Fixed-capacity table of pending CC instructions."""

    def __init__(self, capacity: int = 8) -> None:
        self.capacity = capacity
        self._entries: dict[int, InstructionEntry] = {}
        self._next_id = 0

    def allocate(self, instr: CCInstruction, total_ops: int) -> InstructionEntry:
        if len(self._entries) >= self.capacity:
            raise ReproError(
                f"instruction table full ({self.capacity} entries); core must stall"
            )
        entry = InstructionEntry(instr=instr, instr_id=self._next_id, total_ops=total_ops)
        self._entries[self._next_id] = entry
        self._next_id += 1
        return entry

    def get(self, instr_id: int) -> InstructionEntry:
        try:
            return self._entries[instr_id]
        except KeyError:
            raise ReproError(f"unknown CC instruction id {instr_id}") from None

    def retire(self, instr_id: int) -> InstructionEntry:
        """Remove a completed instruction; returns its final entry."""
        entry = self.get(instr_id)
        if not entry.done:
            raise ReproError(f"retiring incomplete CC instruction {instr_id}")
        del self._entries[instr_id]
        return entry

    def __len__(self) -> int:
        return len(self._entries)
