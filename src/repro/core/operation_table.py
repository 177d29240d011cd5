"""Simple vector operations, the unit of the CC controller's work (Section IV-D).

A CC instruction is broken into *simple vector operations* whose operands
span at most one cache block.  The paper keeps them in an operation
table; here each page-local piece of an instruction keeps its own list
(``_Piece.ops`` in :mod:`repro.core.controller`), since one piece of at
most 64 block ops is in flight per controller.  A block op is issued to
the sub-array (or the near-place unit) only once all operands are resident
and pinned at the compute level, or handed to the core's RISC fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import BLOCK_SIZE, WORD_SIZE


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
    subarray_op: str
    operands: list[BlockOperand]
    lane_bits: int | None = None
    elem_bits: int | None = None
    """Element width of the bit-serial arithmetic ops (cc_add/mul/reduce)."""
    partition: int | None = None
    outcome: str | None = None
    """How the op ran, as its ``cc.block_op`` event reports it:
    ``in-place``, ``near-place`` or ``risc-fallback``; ``None`` until it
    has run."""
    result_bits: int = 0
    result_bit_count: int = 0
    fallback_reason: str | None = None
    """Why the op missed in-place execution (``locality-miss``,
    ``pin-loss``, ``forced``); ``None`` when it ran in place."""

    def take_result(self, raw) -> None:
        """Set :attr:`result_bits` and :attr:`result_bit_count` from what
        the op's kernel returned for its block (one entry of a sub-array
        ``op_batch``), wherever the op ran: ``cmp``'s word mask (8 bits),
        ``search``'s key match (1 bit), ``clmul``'s packed lane parities
        (one bit per lane), and ``reduce``'s 64-bit element sum, which
        can exceed the packing contract and so rides ``result_bits`` raw
        with a bit count of 0 (the controller adds the sums up).  The
        other ops return no result bits."""
        subop = self.subarray_op
        if subop == "cmp":
            self.result_bits, self.result_bit_count = raw, BLOCK_SIZE // WORD_SIZE
        elif subop == "search":
            self.result_bits, self.result_bit_count = raw, 1
        elif subop == "clmul":
            lanes = BLOCK_SIZE * 8 // self.lane_bits
            self.result_bits, self.result_bit_count = int.from_bytes(raw, "little"), lanes
        elif subop == "reduce":
            self.result_bits, self.result_bit_count = raw, 0

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
