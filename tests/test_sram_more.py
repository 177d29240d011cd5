"""Additional SRAM-layer behaviors: op sequences, stats, key-row
independence, and cross-width property checks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sram import ComputeSubarray
from repro.sram.subarray import SubarrayOp


class TestOperationSequences:
    def test_compute_then_read_then_compute(self, make_bytes):
        """Interleaving conventional and compute accesses never corrupts:
        sense-amp mode switches are tracked and reversible."""
        sub = ComputeSubarray(rows=8, cols=512)
        a, b = make_bytes(64), make_bytes(64)
        sub.write_block(0, a)
        sub.write_block(1, b)
        for _ in range(3):
            sub.op_and(0, 1, dest=2)
            assert sub.read_block(0) == a            # differential read
            sub.op_xor(0, 1, dest=3)
            assert sub.read_block(1) == b
        na, nb = np.frombuffer(a, np.uint8), np.frombuffer(b, np.uint8)
        assert sub.read_block(2) == (na & nb).tobytes()
        assert sub.read_block(3) == (na ^ nb).tobytes()
        assert sub.sense.reconfigurations >= 6  # mode flips happened

    def test_chained_copies_propagate(self, make_bytes):
        sub = ComputeSubarray(rows=8, cols=512)
        data = make_bytes(64)
        sub.write_block(0, data)
        for row in range(1, 8):
            sub.op_copy(row - 1, row)
        assert sub.read_block(7) == data

    def test_copy_overwrite_then_compare(self, make_bytes):
        sub = ComputeSubarray(rows=4, cols=512)
        a, b = make_bytes(64), make_bytes(64)
        sub.write_block(0, a)
        sub.write_block(1, b)
        assert sub.op_cmp(0, 1) != 0xFF or a == b
        sub.op_copy(0, 1)
        assert sub.op_cmp(0, 1) == 0xFF

    def test_buz_then_or_is_copy(self, make_bytes):
        """x | 0 == x: zeroing then OR-ing reproduces the other operand."""
        sub = ComputeSubarray(rows=4, cols=512)
        data = make_bytes(64)
        sub.write_block(0, data)
        sub.write_block(1, make_bytes(64))
        sub.op_buz(1)
        assert sub.op_or(0, 1) == data


class TestStatsAccounting:
    def test_compute_op_histogram(self, make_bytes):
        sub = ComputeSubarray(rows=4, cols=512)
        sub.write_block(0, make_bytes(64))
        sub.write_block(1, make_bytes(64))
        sub.op_and(0, 1)
        sub.op_and(0, 1)
        sub.op_cmp(0, 1)
        assert sub.stats.compute_ops == {"and": 2, "cmp": 1}
        assert sub.stats.total_compute_ops == 3

    def test_decoder_counts(self, make_bytes):
        sub = ComputeSubarray(rows=4, cols=512)
        sub.write_block(0, make_bytes(64))
        sub.write_block(1, make_bytes(64))
        before = sub.decoder.dual_decode_count
        sub.op_xor(0, 1)
        assert sub.decoder.dual_decode_count == before + 1


class TestKeyRowIndependence:
    def test_key_row_does_not_alias_data(self, make_bytes):
        """A geometry-level guarantee: writing the key row never perturbs
        data rows, and vice versa."""
        from repro.cache.geometry import CacheGeometry
        from repro.params import small_test_machine

        geo = CacheGeometry(small_test_machine().l1d)
        data = make_bytes(64)
        key = make_bytes(64)
        sub, row = geo.slot(0, 0)
        sub.write_block(row, data)
        partition = geo.partition_of(0x0)
        geo.write_key(partition, key)
        assert sub.read_block(row) == data
        sub.write_block(row, make_bytes(64))
        assert geo.subarrays[partition].read_block(geo.key_row) == key


class TestCrossWidthProperties:
    @given(st.sampled_from([64, 128, 256, 512]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_ops_at_any_column_width(self, cols, seed):
        """The circuit algebra is width-independent."""
        rng = np.random.default_rng(seed)
        sub = ComputeSubarray(rows=4, cols=cols)
        a = rng.integers(0, 256, cols // 8, dtype=np.uint8).tobytes()
        b = rng.integers(0, 256, cols // 8, dtype=np.uint8).tobytes()
        sub.write_block(0, a)
        sub.write_block(1, b)
        na, nb = np.frombuffer(a, np.uint8), np.frombuffer(b, np.uint8)
        assert sub.op_and(0, 1) == (na & nb).tobytes()
        assert sub.op_or(0, 1) == (na | nb).tobytes()
        assert sub.op_not(0) == (~na).astype(np.uint8).tobytes()

    @given(st.integers(2, 64))
    @settings(max_examples=15, deadline=None)
    def test_op_names_cover_all_handlers(self, rows):
        sub = ComputeSubarray(rows=rows, cols=512)
        for op in SubarrayOp.ALL:
            assert op in SubarrayOp.ALL  # enumeration is self-consistent
        assert SubarrayOp.LOGICAL <= SubarrayOp.ALL
