"""Decoder and sense-amplifier periphery tests."""

import numpy as np
import pytest

from repro.errors import AddressError, ReproError
from repro.sram import DualRowDecoder, SenseAmpColumn, SenseMode


class TestDualRowDecoder:
    def test_single_decode(self):
        dec = DualRowDecoder(rows=8)
        assert dec.decode(3) == (3,)

    def test_dual_decode(self):
        dec = DualRowDecoder(rows=8)
        assert dec.decode(1, 6) == (1, 6)

    def test_identical_rows_degenerate_to_single(self):
        """Both decoders picking one row = one word-line driven once -
        the cc_cmp(a, a) / cc_and(a, a, c) self-operand case."""
        dec = DualRowDecoder(rows=8)
        assert dec.decode(2, 2) == (2,)

    def test_out_of_range(self):
        dec = DualRowDecoder(rows=8)
        with pytest.raises(AddressError):
            dec.decode(8)
        with pytest.raises(AddressError):
            dec.decode(0, 9)


class TestSenseAmps:
    def _bl(self, pattern):
        return np.array([c == "1" for c in pattern], dtype=bool)

    def test_differential_read(self):
        sa = SenseAmpColumn(4)
        out = sa.sense_differential(self._bl("1010"), self._bl("0101"))
        assert (out == self._bl("1010")).all()

    def test_mode_enforced(self):
        sa = SenseAmpColumn(4)
        with pytest.raises(ReproError):
            sa.sense_single_ended(self._bl("0000"), self._bl("0000"))
        sa.configure(SenseMode.SINGLE_ENDED)
        with pytest.raises(ReproError):
            sa.sense_differential(self._bl("0000"), self._bl("0000"))

    def test_reconfiguration_sets_mode(self):
        sa = SenseAmpColumn(4)
        assert sa.mode is SenseMode.DIFFERENTIAL
        sa.configure(SenseMode.SINGLE_ENDED)
        sa.configure(SenseMode.SINGLE_ENDED)  # no-op
        assert sa.mode is SenseMode.SINGLE_ENDED
        sa.configure(SenseMode.DIFFERENTIAL)
        assert sa.mode is SenseMode.DIFFERENTIAL

    def test_single_ended_returns_both_rails(self):
        sa = SenseAmpColumn(4)
        sa.configure(SenseMode.SINGLE_ENDED)
        bl, blb = sa.sense_single_ended(self._bl("1100"), self._bl("0011"))
        assert (bl == self._bl("1100")).all()
        assert (blb == self._bl("0011")).all()

    def test_copy_feedback_path(self):
        """Figure 4: last sensed value is what drives the write-back."""
        sa = SenseAmpColumn(4)
        sa.sense_differential(self._bl("1001"), self._bl("0110"))
        assert (sa.drive_back() == self._bl("1001")).all()

    def test_reset_latch_zeroes(self):
        sa = SenseAmpColumn(4)
        sa.sense_differential(self._bl("1111"), self._bl("0000"))
        sa.reset_latch()
        assert not sa.drive_back().any()

    def test_empty_latch_rejected(self):
        sa = SenseAmpColumn(4)
        with pytest.raises(ReproError):
            sa.drive_back()
