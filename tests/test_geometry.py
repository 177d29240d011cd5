"""Cache geometry: address decoding, way->partition mapping, data plane."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.errors import AddressError
from repro.params import CacheLevelConfig, sandybridge_8core, small_test_machine


@pytest.fixture
def l3_geo():
    return CacheGeometry(sandybridge_8core().l3_slice)


@pytest.fixture
def small_geo():
    return CacheGeometry(small_test_machine().l1d)


class TestAddressDecode:
    def test_fields_of_known_address(self, l3_geo):
        cfg = l3_geo.config
        addr = (0x5 << (6 + cfg.set_index_bits)) | (0x123 << 6) | 0x15
        parts = l3_geo.decode(addr)
        assert parts.tag == 0x5
        assert parts.set_index == 0x123
        assert parts.offset == 0x15
        assert parts.bank == 0x123 & 0xF          # low 4 set bits
        assert parts.bp == (0x123 >> 4) & 0x3     # next 2 bits

    def test_negative_address(self, l3_geo):
        with pytest.raises(AddressError):
            l3_geo.decode(-1)

    @given(st.integers(min_value=0, max_value=2**34 - 1))
    @settings(max_examples=50)
    def test_decode_rebuild_round_trip(self, addr):
        geo = CacheGeometry(sandybridge_8core().l3_slice)
        parts = geo.decode(addr)
        cfg = geo.config
        rebuilt = ((parts.tag << (cfg.offset_bits + cfg.set_index_bits))
                   | (parts.set_index << cfg.offset_bits) | parts.offset)
        assert rebuilt == addr

    @given(st.integers(min_value=0, max_value=2**30 - 1))
    @settings(max_examples=50)
    def test_partition_depends_only_on_low_bits(self, addr):
        """Figure 5(b): bank/partition selection uses only the low
        min_locality_bits of the address."""
        geo = CacheGeometry(sandybridge_8core().l3_slice)
        mask = (1 << geo.config.min_locality_bits) - 1
        shifted = addr + (1 << geo.config.min_locality_bits)
        assert geo.partition_of(addr) == geo.partition_of(addr & mask)
        assert geo.partition_of(addr) == geo.partition_of(shifted)


class TestWayMapping:
    def test_all_ways_same_partition(self, l3_geo):
        """Figure 5(a): every way of a set maps into the set's partition,
        so locality never depends on run-time way choice."""
        cfg = l3_geo.config
        for set_index in (0, 1, cfg.sets - 1):
            rows = [l3_geo.row_of(set_index, w) for w in range(cfg.ways)]
            assert len(set(rows)) == cfg.ways  # distinct rows
            assert all(0 <= r < cfg.blocks_per_partition for r in rows)

    def test_distinct_sets_in_partition_get_distinct_rows(self, l3_geo):
        cfg = l3_geo.config
        stride = cfg.banks * cfg.bps_per_bank  # sets mapping to same partition
        rows0 = {l3_geo.row_of(0, w) for w in range(cfg.ways)}
        rows1 = {l3_geo.row_of(stride, w) for w in range(cfg.ways)}
        assert rows0.isdisjoint(rows1)

    def test_bad_way_rejected(self, l3_geo):
        with pytest.raises(AddressError):
            l3_geo.row_of(0, l3_geo.config.ways)

    def test_slot_matches_decoded_locate_for_every_set(self, l3_geo):
        cfg = l3_geo.config
        for set_index in range(cfg.sets):
            addr = (7 << (cfg.offset_bits + cfg.set_index_bits)) | (set_index << cfg.offset_bits)
            for way in (0, cfg.ways - 1):
                sub, row = l3_geo.slot(set_index, way)
                located_sub, located_row = l3_geo.locate(addr, way)
                assert sub is located_sub and row == located_row


class TestDataPlane:
    def test_write_read_round_trip(self, small_geo, make_bytes):
        data = make_bytes(64)
        sub, row = small_geo.locate(0x440, 2)
        sub.write_block(row, data)
        assert sub.read_block(row) == data

    def test_different_ways_independent(self, small_geo, make_bytes):
        d0, d1 = make_bytes(64), make_bytes(64)
        (sub0, row0), (sub1, row1) = small_geo.locate(0x100, 0), small_geo.locate(0x100, 1)
        sub0.write_block(row0, d0)
        sub1.write_block(row1, d1)
        assert sub0.read_block(row0) == d0
        assert sub1.read_block(row1) == d1

    def test_locate_returns_live_handle(self, small_geo, make_bytes):
        data = make_bytes(64)
        sub, row = small_geo.locate(0x200, 3)
        sub.write_block(row, data)
        again, again_row = small_geo.locate(0x200, 3)
        assert again.read_block(again_row) == data

    def test_key_row_reserved(self, small_geo, make_bytes):
        """The key row is beyond all data rows and independent of them."""
        key = make_bytes(64)
        p = small_geo.partition_of(0x0)
        row = small_geo.write_key(p, key)
        assert row == small_geo.config.blocks_per_partition
        assert small_geo.subarrays[p].read_block(row) == key

    def test_partition_count(self):
        for cfg_name in ("l1d", "l2", "l3_slice"):
            cfg: CacheLevelConfig = getattr(sandybridge_8core(), cfg_name)
            geo = CacheGeometry(cfg)
            assert len(geo.subarrays) == cfg.num_partitions
