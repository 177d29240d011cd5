"""Sense-amplifier model for compute-capable sub-arrays.

A conventional sub-array senses each column differentially (BL vs BLB).
For bit-line computing the differential amplifier is *re-configured* into
two single-ended amplifiers so BL and BLB can be sensed independently
against a reference voltage (Section IV-B).  The sensed pair yields:

* ``bl``  = AND of the activated rows,
* ``blb`` = NOR of the activated rows,
* ``bl NOR blb`` = XOR of the activated rows (two-row case).

The class also models the copy feedback path: the last sensed value is
latched and can be driven back onto the bit-lines to write another row
without the data ever leaving the sub-array (Figure 4), and the data latch
can be reset to implement in-place zeroing (``cc_buz``).
"""

from __future__ import annotations

import enum

import numpy as np

from ..errors import ReproError


class SenseMode(enum.Enum):
    """Operating mode of the column sense amplifiers."""

    DIFFERENTIAL = "differential"
    SINGLE_ENDED = "single-ended"


class SenseAmpColumn:
    """The bank of sense amplifiers and data latches of one sub-array."""

    def __init__(self, cols: int) -> None:
        self.cols = cols
        self.mode = SenseMode.DIFFERENTIAL
        self._latch: np.ndarray | None = None

    def configure(self, mode: SenseMode) -> None:
        """Switch between differential and single-ended sensing."""
        self.mode = mode

    def sense_differential(self, bl: np.ndarray, blb: np.ndarray) -> np.ndarray:
        """Normal read: resolve each column from the BL/BLB differential."""
        if self.mode is not SenseMode.DIFFERENTIAL:
            raise ReproError("sense amps are configured single-ended; reconfigure first")
        self._latch = bl.copy()
        return self._latch.copy()

    def sense_single_ended(
        self, bl: np.ndarray, blb: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Compute sensing: observe BL and BLB independently.

        Returns ``(and_bits, nor_bits)`` for the activated rows.  The AND
        result is latched (it is what the copy feedback path would drive).
        """
        if self.mode is not SenseMode.SINGLE_ENDED:
            raise ReproError("sense amps are configured differentially; reconfigure first")
        self._latch = bl.copy()
        return bl.copy(), blb.copy()

    def latch_value(self, bits: np.ndarray) -> None:
        """Explicitly load the data latch (used by the copy path)."""
        self._latch = bits.copy()

    def reset_latch(self) -> None:
        """Reset the data latch to all zeros (in-place zeroing, cc_buz)."""
        self._latch = np.zeros(self.cols, dtype=bool)

    def drive_back(self) -> np.ndarray:
        """Feed the latched value back onto the bit-lines for a write.

        Models the coalesced read-write of the in-place copy (Figure 4):
        the value written is exactly the last value sensed or latched.
        """
        if self._latch is None:
            raise ReproError("copy feedback requested with empty data latch")
        return self._latch.copy()
