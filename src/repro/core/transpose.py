"""The transpose unit: row-major <-> bit-serial layout conversion.

The bit-serial arithmetic tier (Neural Cache, arXiv 1805.03718) computes
over *transposed* operands: bit *k* of every element sits on one physical
row so the bit-line logic evaluates a whole bit plane per step.  Cache
blocks normally live row-major, so a transpose unit (one per sub-array
cluster in the paper) converts operand blocks on demand.  Which blocks are
already bit-serial is a fact about the data in the arrays, not about one
core: the machine keeps one :class:`TransposeUnit`
(``CacheHierarchy.transpose``) that every core's controller shares.

Modeling contract
-----------------

The conversion is *accounting-only*: functional storage stays row-major
(``peek``/``read`` and every non-arithmetic op see unchanged bytes) and
the layout set only drives cycles and energy, exactly like the rest of the
timing model.  The rules:

* Before an arithmetic instruction executes, every operand block not yet
  bit-serial is converted: ``transpose_latency`` cycles and one
  data-array read + write of energy per block
  (:func:`repro.energy.mcpat.charge_transpose`); converted blocks are
  remembered, so back-to-back arithmetic over the same operands pays
  nothing — the Neural Cache amortization story.
* Arithmetic destinations are produced bit-serial directly (no charge)
  and join the set.
* Any conventional write into a tracked block — ``machine.write``,
  ``machine.load``, or a non-arithmetic CC op's destination on any core —
  evicts it from the set; the next arithmetic use pays the conversion
  again.

Conversions of distinct blocks are independent row operations in
different sub-arrays, so they overlap like operand fetches: the makespan
is ``transpose_latency * ceil(blocks / TRANSPOSE_MLP)``.
"""

from __future__ import annotations

from ..params import BLOCK_SIZE

TRANSPOSE_MLP = 8
"""Block conversions the transpose unit keeps in flight (it is replicated
per sub-array cluster; matches the controller's fetch MLP)."""


class TransposeUnit:
    """Tracks which blocks are in bit-serial layout and charges conversions."""

    def __init__(self, transpose_latency: int = 8) -> None:
        self.transpose_latency = transpose_latency
        self._bit_serial: set[int] = set()

    @staticmethod
    def _blocks(addr: int, size: int) -> range:
        start = addr & ~(BLOCK_SIZE - 1)
        return range(start, addr + size, BLOCK_SIZE)

    def convert(self, ranges: list[tuple[int, int]]) -> tuple[int, float]:
        """Ensure every block of ``ranges`` (addr, size pairs) is
        bit-serial; returns ``(blocks_converted, makespan_cycles)``.

        Already-converted blocks are free.  The caller charges the energy
        (it knows the compute level) and folds the makespan into the
        instruction's timing.
        """
        missing = []
        for addr, size in ranges:
            for block in self._blocks(addr, size):
                if block not in self._bit_serial:
                    missing.append(block)
                    self._bit_serial.add(block)
        if not missing:
            return 0, 0.0
        count = len(missing)
        waves = -(-count // TRANSPOSE_MLP)
        return count, float(self.transpose_latency * waves)

    def mark_bit_serial(self, addr: int, size: int) -> None:
        """Blocks produced in bit-serial form (arithmetic destinations)."""
        self._bit_serial.update(self._blocks(addr, size))

    def invalidate(self, addr: int, size: int = BLOCK_SIZE) -> None:
        """A conventional write reverts the blocks to row-major layout."""
        for block in self._blocks(addr, size):
            self._bit_serial.discard(block)
