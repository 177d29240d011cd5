"""Unit and property tests for :mod:`repro.kernels` (packed fast path).

The packed kernels are the computational core of the fast-path backend;
each is checked against a straightforward Python/numpy reference and
against the bit-exact helpers in :mod:`repro.bitops`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bitops import word_equality_mask, xor_reduce_lanes
from repro.errors import AddressError, ISAError
from repro.kernels import (
    POPCOUNT8,
    block_op,
    clmul_mask,
    equality_mask,
    logical_rows,
    pack_flags,
)

rows_st = st.integers(1, 4)
row_bytes = 64


def _rand_rows(seed, n):
    return np.random.default_rng(seed).integers(
        0, 256, (n, row_bytes), dtype=np.uint8)


class TestPopcount8:
    def test_table(self):
        assert POPCOUNT8.shape == (256,)
        for v in (0, 1, 3, 0x0F, 0xFF, 0xAA):
            assert POPCOUNT8[v] == bin(v).count("1")


class TestLogicalRows:
    @given(st.integers(0, 2**32 - 1), rows_st,
           st.sampled_from(["and", "or", "xor"]))
    def test_binary_ops(self, seed, n, op):
        a, b = _rand_rows(seed, n), _rand_rows(seed + 1, n)
        out = logical_rows(op, a, b)
        ref = {
            "and": a & b,
            "or": a | b,
            "xor": a ^ b,
        }[op]
        assert (out == ref).all()

    @given(st.integers(0, 2**32 - 1), rows_st)
    def test_unary_ops(self, seed, n):
        a = _rand_rows(seed, n)
        assert (logical_rows("not", a) == (~a & 0xFF)).all()
        assert (logical_rows("copy", a) == a).all()
        assert not logical_rows("buz", a).any()

    def test_copy_is_a_copy(self):
        a = _rand_rows(0, 1)
        out = logical_rows("copy", a)
        out[0, 0] ^= 0xFF
        assert (logical_rows("copy", a) == a).all()

    def test_one_dim_operands(self):
        a = np.array([0xF0, 0x0F], dtype=np.uint8)
        b = np.array([0xFF, 0x00], dtype=np.uint8)
        assert logical_rows("and", a, b).tolist() == [[0xF0, 0x00]]

    def test_unknown_op_rejected(self):
        """The row kernels take checked arguments: ``block_op`` checks."""
        with pytest.raises(ISAError, match="unknown"):
            block_op("nand", _rand_rows(0, 1), _rand_rows(1, 1))

    def test_missing_operand_rejected(self):
        with pytest.raises(ISAError, match="second operand"):
            block_op("and", _rand_rows(0, 1))


class TestPackFlags:
    def test_chunk0_is_bit0(self):
        flags = np.zeros(64, dtype=bool)
        flags[0] = True
        assert pack_flags(flags)[0] == 1
        flags = np.zeros(64, dtype=bool)
        flags[63] = True
        assert pack_flags(flags)[0] == 1 << 63

    def test_short_rows_zero_padded(self):
        assert pack_flags(np.array([True, False, True]))[0] == 0b101

    def test_multi_row(self):
        flags = np.array([[True, False], [False, True]])
        assert pack_flags(flags).tolist() == [1, 2]

    def test_too_wide_rejected(self):
        with pytest.raises(AddressError):
            pack_flags(np.zeros(65, dtype=bool))


class TestEqualityMask:
    @given(st.integers(0, 2**32 - 1), rows_st, st.sampled_from([8, 16, 64]))
    def test_matches_bitexact_reference(self, seed, n, chunk_bytes):
        a, b = _rand_rows(seed, n), _rand_rows(seed + 1, n)
        # plant equal chunks so the mask is not trivially 0
        b[:, :chunk_bytes] = a[:, :chunk_bytes]
        masks = equality_mask(a, b, chunk_bytes)
        for r in range(n):
            xor = np.unpackbits(a[r] ^ b[r]).astype(bool)
            assert masks[r] == word_equality_mask(xor, chunk_bytes * 8)

    def test_bad_chunk_rejected(self):
        with pytest.raises(AddressError):
            equality_mask(_rand_rows(0, 1), _rand_rows(1, 1), 7)


class TestSearchMask:
    def test_broadcast_key(self):
        """Packed cc_search: whole-row equality against one key row."""
        data = _rand_rows(3, 4)
        key = data[2].copy()
        mask = equality_mask(data, np.broadcast_to(key, data.shape), data.shape[1])
        assert mask.tolist() == [0, 0, 1, 0]


class TestClmulMask:
    @given(st.integers(0, 2**32 - 1), rows_st, st.sampled_from([64, 128, 256]))
    def test_matches_bitexact_reference(self, seed, n, lane_bits):
        a, b = _rand_rows(seed, n), _rand_rows(seed + 1, n)
        masks = clmul_mask(a, b, lane_bits)
        for r in range(n):
            lanes = xor_reduce_lanes(np.unpackbits(a[r] & b[r]).astype(bool), lane_bits)
            assert masks[r] == pack_flags(lanes)[0]

    def test_bad_lane_rejected(self):
        with pytest.raises(AddressError):
            clmul_mask(_rand_rows(0, 1), _rand_rows(1, 1), 24)
