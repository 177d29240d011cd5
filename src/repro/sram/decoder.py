"""Row decoders for compute-capable sub-arrays.

A conventional sub-array has one row decoder and can therefore activate a
single word-line per cycle.  Compute Caches add a second decoder so two
word-lines - one per operand - can be activated simultaneously
(Section IV-B: "we add an additional decoder to allow activating two
wordlines, one for each operand").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AddressError


@dataclass
class DualRowDecoder:
    """Two-port row decoder: decodes up to two row addresses per activation."""

    rows: int

    def _check(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise AddressError(f"decoder given row {row} outside 0..{self.rows - 1}")

    def decode(self, row_a: int, row_b: int | None = None) -> tuple[int, ...]:
        """Decode one or two row addresses into a word-line activation set.

        Both decoders selecting the *same* row degenerates to a single
        word-line activation (the word-line is simply driven once) - the
        case a ``cc_cmp(a, a, n)`` or ``cc_and(a, a, c, n)`` produces.
        """
        self._check(row_a)
        if row_b is None or row_b == row_a:
            return (row_a,)
        self._check(row_b)
        return (row_a, row_b)
