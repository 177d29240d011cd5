"""Raw SRAM bit-cell array with multi-row activation physics.

The array stores its rows packed, one ``uint8`` byte per 8 bit-cells (the
first cell in the byte's most significant bit), and unpacks only the rows
an activation reads.  A normal access activates a single word-line;
bit-line computing activates two (or more) word-lines at once.
With the word-line voltage lowered (``wordline_underdrive=True``, the
default, matching Jeloka et al.'s fabricated chip) the cells are biased
against writes and multi-row activation is non-destructive.  With the
underdrive disabled the model injects the classic failure mode - a cell
holding '1' on a discharged bit-line is flipped - which the fault-injection
tests use to demonstrate *why* the circuit needs the lowered voltage.

Two cell types are modeled (the paper's footnote 1): density-optimized
**6T** cells (L2/L3), whose multi-row safety depends on the word-line
underdrive, and **8T** cells with decoupled read ports (an L1 option, after
Wu et al.'s zigzag 8T design), which are read-disturb-resilient by
construction - multi-row activation cannot corrupt them even at full
word-line swing.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

import numpy as np

from ..errors import ActivationLimitError, AddressError, DataCorruptionError


class CellType(enum.Enum):
    """SRAM bit-cell flavour (paper footnote 1)."""

    SIX_T = "6T"
    EIGHT_T = "8T"

    @property
    def read_disturb_immune(self) -> bool:
        """8T cells decouple the read port from the storage node: reads
        (including multi-row compute activations) cannot flip them."""
        return self is CellType.EIGHT_T


class BitCellArray:
    """A ``rows x cols`` grid of SRAM bit-cells.

    Parameters
    ----------
    rows, cols:
        Array dimensions.  A 64-byte cache block occupies one 512-column row
        in the geometries this library builds.
    max_activated:
        Maximum word-lines that may be activated simultaneously without
        raising :class:`ActivationLimitError`.  Jeloka et al. measured no
        corruption up to 64.
    wordline_underdrive:
        When ``True`` (default) multi-row activation is non-destructive.
        When ``False`` the model emulates write-disturb corruption - unless
        the cells are 8T, which are immune regardless.
    cell_type:
        :class:`CellType.SIX_T` (default) or :class:`CellType.EIGHT_T`.
    store:
        The packed rows, a ``(rows, ceil(cols / 8))`` uint8 array the cells
        read and write in place (a compute sub-array passes its rows of
        the cache level's block); a zeroed array of its own by default.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        max_activated: int = 64,
        wordline_underdrive: bool = True,
        cell_type: CellType = CellType.SIX_T,
        store: np.ndarray | None = None,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise AddressError(f"invalid bit-cell array shape {rows}x{cols}")
        shape = (rows, (cols + 7) // 8)
        if store is None:
            store = np.zeros(shape, dtype=np.uint8)
        elif store.shape != shape:
            raise AddressError(f"row store of shape {store.shape} does not hold "
                               f"a {rows}x{cols} bit-cell array")
        self.rows = rows
        self.cols = cols
        self.max_activated = max_activated
        self.wordline_underdrive = wordline_underdrive
        self.cell_type = cell_type
        self._rows = store

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise AddressError(f"row {row} outside array of {self.rows} rows")

    def write_row(self, row: int, bits: np.ndarray) -> None:
        """Drive the bit-lines and write a full row."""
        self._check_row(row)
        if bits.size != self.cols:
            raise AddressError(f"row write of {bits.size} bits into {self.cols} columns")
        self._rows[row] = np.packbits(bits.astype(bool))

    def read_row(self, row: int) -> np.ndarray:
        """Single word-line activation with differential sensing."""
        self._check_row(row)
        return np.unpackbits(self._rows[row], count=self.cols).astype(bool)

    def activate(self, rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Activate one or more word-lines and sense both bit-lines.

        Returns ``(bl, blb)`` where ``bl[i]`` is True iff bit-line *i*
        stayed high (all activated cells in column *i* store '1', i.e. the
        AND of the column) and ``blb[i]`` is True iff bit-line-bar stayed
        high (all activated cells store '0', i.e. the NOR).

        With a single row this degenerates to a normal differential read
        (``bl`` is the data, ``blb`` its complement).
        """
        unique = sorted(set(rows))
        if len(unique) != len(rows):
            raise AddressError(f"duplicate rows in activation set {list(rows)}")
        if not unique:
            raise AddressError("empty activation set")
        if len(unique) > self.max_activated:
            raise ActivationLimitError(
                f"{len(unique)} word-lines activated; circuit tolerates {self.max_activated}"
            )
        for row in unique:
            self._check_row(row)
        stack = np.unpackbits(self._rows[unique], axis=1, count=self.cols).astype(bool)
        bl = stack.all(axis=0)
        blb = ~stack.any(axis=0)
        if (
            len(unique) > 1
            and not self.wordline_underdrive
            and not self.cell_type.read_disturb_immune
        ):
            self._disturb(unique, stack, bl)
        return bl, blb

    def _disturb(self, rows: list[int], stack: np.ndarray, bl: np.ndarray) -> None:
        """Emulate write-disturb during full-swing multi-row activation.

        A cell storing '1' whose bit-line is pulled low by a '0' in another
        activated cell sees a write-'0' condition through its full-strength
        access transistor: the cell flips.  This is the corruption the
        lowered word-line voltage prevents.
        """
        if (stack & ~bl).any():
            self._rows[rows] = np.packbits(stack & bl, axis=1)
            raise DataCorruptionError(
                "multi-row activation without word-line underdrive corrupted bit-cells"
            )
