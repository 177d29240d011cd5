"""Bit-cell array tests: multi-row activation physics and fault injection."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ActivationLimitError, AddressError, DataCorruptionError
from repro.sram import BitCellArray


def bits(pattern: str) -> np.ndarray:
    return np.array([c == "1" for c in pattern], dtype=bool)


class TestBasicAccess:
    def test_write_read_row(self):
        arr = BitCellArray(4, 8)
        arr.write_row(2, bits("10110001"))
        assert (arr.read_row(2) == bits("10110001")).all()

    def test_initially_zero(self):
        arr = BitCellArray(4, 8)
        assert not arr.read_row(0).any()

    def test_out_of_range_row(self):
        arr = BitCellArray(4, 8)
        with pytest.raises(AddressError):
            arr.read_row(4)
        with pytest.raises(AddressError):
            arr.write_row(-1, bits("00000000"))

    def test_wrong_width_write(self):
        arr = BitCellArray(4, 8)
        with pytest.raises(AddressError):
            arr.write_row(0, bits("0000"))


class TestMultiRowActivation:
    """The core bit-line computing behaviour (Figure 2)."""

    def test_and_nor_on_two_rows(self):
        arr = BitCellArray(4, 4)
        arr.write_row(0, bits("0011"))
        arr.write_row(1, bits("0101"))
        bl, blb = arr.activate([0, 1])
        assert (bl == bits("0001")).all()    # AND
        assert (blb == bits("1000")).all()   # NOR

    def test_single_row_degenerates_to_read(self):
        arr = BitCellArray(4, 4)
        arr.write_row(0, bits("0110"))
        bl, blb = arr.activate([0])
        assert (bl == bits("0110")).all()
        assert (blb == ~bits("0110")).all()

    def test_many_rows_and_nor(self):
        arr = BitCellArray(8, 4)
        patterns = ["1110", "1101", "1011"]
        for i, p in enumerate(patterns):
            arr.write_row(i, bits(p))
        bl, blb = arr.activate([0, 1, 2])
        assert (bl == bits("1000")).all()
        assert (blb == bits("0000")).all()

    def test_activation_limit_enforced(self):
        arr = BitCellArray(128, 4, max_activated=64)
        with pytest.raises(ActivationLimitError):
            arr.activate(list(range(65)))
        # 64 rows is the demonstrated-safe maximum.
        bl, _ = arr.activate(list(range(64)))
        assert not bl.any()

    def test_duplicate_rows_rejected(self):
        arr = BitCellArray(4, 4)
        with pytest.raises(AddressError):
            arr.activate([1, 1])

    def test_empty_activation_rejected(self):
        arr = BitCellArray(4, 4)
        with pytest.raises(AddressError):
            arr.activate([])

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_and_nor_match_boolean_algebra(self, a, b):
        arr = BitCellArray(2, 16)
        row_a = np.array([(a >> i) & 1 for i in range(16)], dtype=bool)
        row_b = np.array([(b >> i) & 1 for i in range(16)], dtype=bool)
        arr.write_row(0, row_a)
        arr.write_row(1, row_b)
        bl, blb = arr.activate([0, 1])
        assert (bl == (row_a & row_b)).all()
        assert (blb == ~(row_a | row_b)).all()


class TestDisturbFaultInjection:
    """Why the circuit lowers word-line voltage (Section II-B)."""

    def test_underdrive_preserves_data(self):
        arr = BitCellArray(4, 4, wordline_underdrive=True)
        arr.write_row(0, bits("1100"))
        arr.write_row(1, bits("1010"))
        arr.activate([0, 1])
        assert (arr.read_row(0) == bits("1100")).all()
        assert (arr.read_row(1) == bits("1010")).all()

    def test_full_swing_corrupts(self):
        arr = BitCellArray(4, 4, wordline_underdrive=False)
        arr.write_row(0, bits("1100"))
        arr.write_row(1, bits("1010"))
        with pytest.raises(DataCorruptionError):
            arr.activate([0, 1])
        # The victim '1' cells on discharged bit-lines flipped to '0'.
        assert (arr.read_row(0) == bits("1000")).all()
        assert (arr.read_row(1) == bits("1000")).all()

    def test_full_swing_safe_when_rows_agree(self):
        arr = BitCellArray(4, 4, wordline_underdrive=False)
        arr.write_row(0, bits("1010"))
        arr.write_row(1, bits("1010"))
        bl, _ = arr.activate([0, 1])
        assert (bl == bits("1010")).all()

    def test_single_row_never_disturbs(self):
        arr = BitCellArray(4, 4, wordline_underdrive=False)
        arr.write_row(0, bits("1111"))
        arr.activate([0])
        assert (arr.read_row(0) == bits("1111")).all()
