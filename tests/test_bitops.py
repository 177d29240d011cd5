"""Unit and property tests for :mod:`repro.bitops`."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bitops import (
    bits_to_bytes,
    bytes_and,
    bytes_or,
    bytes_xor,
    parity,
    word_equality_mask,
    xor_reduce_lanes,
)
from repro.errors import AddressError


def _bits(data: bytes) -> np.ndarray:
    """A byte string's bits as bools, MSB first (a sub-array row's order)."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8)).astype(bool)


class TestBitConversion:
    def test_round_trip_simple(self):
        data = bytes(range(64))
        assert bits_to_bytes(_bits(data)) == data

    @given(st.binary(min_size=1, max_size=256))
    def test_round_trip_property(self, data):
        assert bits_to_bytes(_bits(data)) == data

    def test_msb_first_order(self):
        bits = np.zeros(16, dtype=bool)
        bits[0] = bits[15] = True
        assert bits_to_bytes(bits) == b"\x80\x01"

    def test_non_byte_multiple_rejected(self):
        with pytest.raises(AddressError):
            bits_to_bytes(np.zeros(9, dtype=bool))


class TestWordEqualityMask:
    def test_all_equal(self):
        xor = np.zeros(512, dtype=bool)
        assert word_equality_mask(xor) == 0xFF

    def test_no_words_equal(self):
        xor = np.ones(512, dtype=bool)
        assert word_equality_mask(xor) == 0

    def test_single_word_mismatch(self):
        xor = np.zeros(512, dtype=bool)
        xor[3 * 64 + 17] = True  # word 3 differs in one bit
        assert word_equality_mask(xor) == 0xFF & ~(1 << 3)

    def test_wrong_size_rejected(self):
        with pytest.raises(AddressError):
            word_equality_mask(np.zeros(100, dtype=bool))

    def test_empty_input_is_zero(self):
        assert word_equality_mask(np.zeros(0, dtype=bool)) == 0

    def test_bit_order_word0_is_bit0(self):
        """Regression: the mask is little-endian in words - the
        lowest-addressed word (word 0) occupies bit 0, not bit 63."""
        xor = np.ones(512, dtype=bool)
        xor[:64] = False  # only word 0 equal
        assert word_equality_mask(xor) == 0b1
        xor = np.ones(512, dtype=bool)
        xor[7 * 64 :] = False  # only the last word equal
        assert word_equality_mask(xor) == 0b1000_0000

    def test_bit_order_full_register(self):
        """64 words fill the 64-bit result register; word 63 -> bit 63."""
        xor = np.ones(64 * 64, dtype=bool)
        xor[63 * 64 :] = False
        assert word_equality_mask(xor) == 1 << 63

    def test_narrow_words(self):
        xor = np.zeros(64, dtype=bool)
        xor[3 * 8] = True  # 8-bit words: word 3 differs
        assert word_equality_mask(xor, word_bits=8) == 0xFF & ~(1 << 3)

    @given(st.binary(min_size=512, max_size=512),
           st.binary(min_size=512, max_size=512))
    def test_matches_python_reference(self, a, b):
        xor = _bits(bytes_xor(a, b))
        mask = word_equality_mask(xor)
        for i in range(64):
            word_equal = a[i * 8 : (i + 1) * 8] == b[i * 8 : (i + 1) * 8]
            assert bool(mask & (1 << i)) == word_equal

    @given(st.lists(st.booleans(), min_size=8, max_size=8))
    def test_mask_matches_per_word(self, mismatches):
        xor = np.zeros(512, dtype=bool)
        for i, mismatch in enumerate(mismatches):
            if mismatch:
                xor[i * 64] = True
        mask = word_equality_mask(xor)
        for i, mismatch in enumerate(mismatches):
            assert bool(mask & (1 << i)) == (not mismatch)


class TestXorReduceLanes:
    def test_zero_input(self):
        assert not xor_reduce_lanes(np.zeros(512, dtype=bool), 64).any()

    def test_single_bit_per_lane(self):
        bits = np.zeros(512, dtype=bool)
        bits[0] = True  # lane 0 parity 1
        bits[64] = bits[65] = True  # lane 1 parity 0
        lanes = xor_reduce_lanes(bits, 64)
        assert lanes[0] and not lanes[1]

    @given(st.binary(min_size=64, max_size=64))
    def test_matches_popcount_parity(self, data):
        bits = _bits(data)
        lanes = xor_reduce_lanes(bits, 64)
        for i in range(8):
            lane_bytes = data[i * 8 : (i + 1) * 8]
            ones = sum(bin(b).count("1") for b in lane_bytes)
            assert lanes[i] == bool(ones & 1)

    def test_bad_lane_size(self):
        with pytest.raises(AddressError):
            xor_reduce_lanes(np.zeros(512, dtype=bool), 100)


class TestByteWiseOps:
    @given(st.binary(min_size=8, max_size=64), st.binary(min_size=8, max_size=64))
    def test_ops_match_int_arithmetic(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        ia, ib = int.from_bytes(a, "little"), int.from_bytes(b, "little")
        assert int.from_bytes(bytes_xor(a, b), "little") == ia ^ ib
        assert int.from_bytes(bytes_and(a, b), "little") == ia & ib
        assert int.from_bytes(bytes_or(a, b), "little") == ia | ib

    def test_length_mismatch(self):
        with pytest.raises(AddressError):
            bytes_xor(b"\x00", b"\x00\x00")

    def test_zero_length_inputs(self):
        """Regression: every byte-wise op returns ``b""`` (the immutable
        bytes type, not a bytearray or numpy scalar) on empty input."""
        for fn in (bytes_xor, bytes_and, bytes_or):
            out = fn(b"", b"")
            assert out == b"" and type(out) is bytes

    def test_zero_length_mismatch_still_rejected(self):
        with pytest.raises(AddressError):
            bytes_xor(b"", b"\x00")


class TestParityPopcount:
    @given(st.integers(min_value=0, max_value=2**70))
    def test_parity(self, v):
        assert parity(v) == bin(v).count("1") % 2
