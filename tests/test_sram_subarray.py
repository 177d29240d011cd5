"""Compute sub-array tests: every in-place operation is bit-exact."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError, ISAError
from repro.sram import ComputeSubarray, SubarrayStats
from repro.sram.timing import DELAY_MULTIPLIER, ENERGY_MULTIPLIER

BLOCK = 64
block_data = st.binary(min_size=BLOCK, max_size=BLOCK)


@pytest.fixture
def sub():
    return ComputeSubarray(rows=16, cols=BLOCK * 8)


class TestConventionalAccess:
    def test_write_read_round_trip(self, sub, make_bytes):
        data = make_bytes(BLOCK)
        sub.write_block(3, data)
        assert sub.read_block(3) == data

    def test_wrong_size_write(self, sub):
        with pytest.raises(AddressError):
            sub.write_block(0, b"\x00" * 32)

    def test_reads_counted(self, sub):
        sub.write_block(0, bytes(BLOCK))
        sub.read_block(0)
        sub.read_block(0)
        assert sub.stats.reads == 2
        assert sub.stats.writes == 1


class TestLogicalOps:
    @given(block_data, block_data)
    @settings(max_examples=25)
    def test_and_or_xor_match_numpy(self, a, b):
        sub = ComputeSubarray(rows=4, cols=BLOCK * 8)
        sub.write_block(0, a)
        sub.write_block(1, b)
        na = np.frombuffer(a, dtype=np.uint8)
        nb = np.frombuffer(b, dtype=np.uint8)
        assert sub.op_and(0, 1) == (na & nb).tobytes()
        assert sub.op_or(0, 1) == (na | nb).tobytes()
        assert sub.op_xor(0, 1) == (na ^ nb).tobytes()
        assert sub.op_nor(0, 1) == (~(na | nb)).astype(np.uint8).tobytes()

    def test_not_matches_complement(self, sub, make_bytes):
        data = make_bytes(BLOCK)
        sub.write_block(0, data)
        expected = (~np.frombuffer(data, dtype=np.uint8)).astype(np.uint8).tobytes()
        assert sub.op_not(0) == expected

    def test_writeback_to_dest_row(self, sub, make_bytes):
        a, b = make_bytes(BLOCK), make_bytes(BLOCK)
        sub.write_block(0, a)
        sub.write_block(1, b)
        sub.op_xor(0, 1, dest=2)
        na = np.frombuffer(a, dtype=np.uint8)
        nb = np.frombuffer(b, dtype=np.uint8)
        assert sub.read_block(2) == (na ^ nb).tobytes()

    def test_sources_survive_operation(self, sub, make_bytes):
        """Non-destructive multi-row activation: operands intact after op."""
        a, b = make_bytes(BLOCK), make_bytes(BLOCK)
        sub.write_block(0, a)
        sub.write_block(1, b)
        sub.op_and(0, 1, dest=3)
        assert sub.read_block(0) == a
        assert sub.read_block(1) == b


class TestCopyAndZero:
    def test_copy_moves_data(self, sub, make_bytes):
        data = make_bytes(BLOCK)
        sub.write_block(5, data)
        returned = sub.op_copy(5, 9)
        assert returned == data
        assert sub.read_block(9) == data
        assert sub.read_block(5) == data  # source intact

    def test_copy_uses_feedback_not_external_write(self, sub, make_bytes):
        """The copy path never latches data outside the sub-array: the
        write count reflects only explicit writes."""
        data = make_bytes(BLOCK)
        sub.write_block(0, data)
        before = sub.stats.writes
        sub.op_copy(0, 1)
        assert sub.stats.writes == before
        assert sub.stats.compute_ops.get("copy") == 1

    def test_buz_zeroes_row(self, sub, make_bytes):
        sub.write_block(7, make_bytes(BLOCK))
        sub.op_buz(7)
        assert sub.read_block(7) == bytes(BLOCK)


class TestCompareSearch:
    def test_cmp_equal_rows(self, sub, make_bytes):
        data = make_bytes(BLOCK)
        sub.write_block(0, data)
        sub.write_block(1, data)
        assert sub.op_cmp(0, 1) == 0xFF  # all 8 words match

    def test_cmp_word_granularity(self, sub, make_bytes):
        data = bytearray(make_bytes(BLOCK))
        other = bytearray(data)
        other[2 * 8] ^= 0x01  # corrupt word 2
        other[7 * 8 + 3] ^= 0x80  # corrupt word 7
        sub.write_block(0, bytes(data))
        sub.write_block(1, bytes(other))
        mask = sub.op_cmp(0, 1)
        assert mask == 0xFF & ~(1 << 2) & ~(1 << 7)

    def test_search_block_granularity(self, sub, make_bytes):
        key = make_bytes(BLOCK)
        sub.write_block(0, key)
        sub.write_block(1, make_bytes(BLOCK))
        key_row = 8
        sub.write_block(key_row, key)
        assert sub.op_search(0, key_row, key_bytes=BLOCK) == 1
        assert sub.op_search(1, key_row, key_bytes=BLOCK) == 0

    @given(block_data, block_data)
    @settings(max_examples=25)
    def test_cmp_matches_word_comparison(self, a, b):
        sub = ComputeSubarray(rows=4, cols=BLOCK * 8)
        sub.write_block(0, a)
        sub.write_block(1, b)
        mask = sub.op_cmp(0, 1)
        for w in range(8):
            expected = a[w * 8 : (w + 1) * 8] == b[w * 8 : (w + 1) * 8]
            assert bool(mask & (1 << w)) == expected


class TestClmul:
    @given(block_data, block_data, st.sampled_from([64, 128, 256]))
    @settings(max_examples=25)
    def test_clmul_matches_parity_of_and(self, a, b, lane_bits):
        sub = ComputeSubarray(rows=4, cols=BLOCK * 8)
        sub.write_block(0, a)
        sub.write_block(1, b)
        packed = sub.op_clmul(0, 1, lane_bits)
        mask = int.from_bytes(packed, "little")
        lane_bytes = lane_bits // 8
        for i in range((BLOCK * 8) // lane_bits):
            chunk_a = a[i * lane_bytes : (i + 1) * lane_bytes]
            chunk_b = b[i * lane_bytes : (i + 1) * lane_bytes]
            ones = sum(bin(x & y).count("1") for x, y in zip(chunk_a, chunk_b))
            assert bool(mask & (1 << i)) == bool(ones & 1)

    def test_bad_lane_width(self, sub):
        sub.write_block(0, bytes(BLOCK))
        sub.write_block(1, bytes(BLOCK))
        with pytest.raises(ISAError):
            sub.op_clmul(0, 1, 32)


class TestTimingAnnotation:
    """Section VI-C: logic ops 3x delay, others 2x; energy 1.5/2/2.5x.
    A sub-array keeps no cost of its own; the tables are the paper's data."""

    def test_delay_multipliers(self):
        assert DELAY_MULTIPLIER["and"] == 3.0
        assert DELAY_MULTIPLIER["copy"] == 2.0
        assert DELAY_MULTIPLIER["read"] == 1.0

    def test_energy_multipliers(self):
        assert ENERGY_MULTIPLIER["cmp"] == 1.5
        assert ENERGY_MULTIPLIER["buz"] == 2.0
        assert ENERGY_MULTIPLIER["xor"] == 2.5

    def test_multiplier_tables_complete(self):
        for op in ("and", "or", "xor", "not", "copy", "buz", "cmp", "search", "clmul"):
            assert op in DELAY_MULTIPLIER
            assert op in ENERGY_MULTIPLIER

    def test_unknown_op_rejected(self, sub):
        with pytest.raises(ISAError):
            sub.op_batch("frobnicate", [0])
        assert sub.stats == SubarrayStats()

    def test_energy_accumulates(self):
        """An in-place op's energy is its Table V charge to the compute
        level's ledger: a sub-array accumulates operation counts only."""
        from repro import ComputeCacheMachine, cc_ops
        from repro.energy.tables import cc_op_energy
        from repro.params import small_test_machine

        m = ComputeCacheMachine(small_test_machine())
        a, b, c = m.arena.alloc_colocated(BLOCK, 3)
        for addr in (a, b, c):
            m.warm_l3(addr, BLOCK)
        before = m.ledger.get("l3-access")
        for _ in range(2):
            assert m.cc(cc_ops.cc_and(a, b, c, BLOCK)).inplace_ops == 1
        assert m.ledger.get("l3-access") - before == pytest.approx(
            2 * cc_op_energy("L3-slice", "and"))
