"""Cache geometry: the address split, way->partition mapping, data plane."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.block import MESIState
from repro.cache.cache import CacheLevel
from repro.cache.geometry import CacheGeometry
from repro.energy.accounting import EnergyLedger
from repro.errors import AddressError
from repro.params import BLOCK_SIZE, CacheLevelConfig, sandybridge_8core, small_test_machine


L3 = sandybridge_8core().l3_slice
L1 = small_test_machine().l1d


@pytest.fixture
def l3_geo():
    return CacheGeometry(L3)


@pytest.fixture
def small_geo():
    return CacheGeometry(L1)


def l3_level() -> CacheLevel:
    return CacheLevel("L3-slice", L3, EnergyLedger(), backend="packed")


class TestAddressDecode:
    def test_fields_of_known_address(self, l3_geo):
        addr = (0x5 * L3.sets + 0x123) << 6
        bank, bp = 0x123 & 0xF, (0x123 >> 4) & 0x3  # low 4 set bits, next 2
        assert l3_level().set_of(addr) == 0x123
        assert l3_geo.partition_of(addr | 0x15) == bank * L3.bps_per_bank + bp

    def test_negative_address(self):
        with pytest.raises(AddressError):
            l3_level().set_of(-BLOCK_SIZE)

    @given(st.integers(min_value=0, max_value=2**28 - 1))
    @settings(max_examples=50, deadline=None)
    def test_decode_rebuild_round_trip(self, block):
        """A block address splits into a set and a block number, and the
        level rebuilds the same address from the line it fills."""
        level = CacheLevel("L1-D", L1, EnergyLedger(), backend="packed")
        addr = block * BLOCK_SIZE
        level.fill(addr, bytes(BLOCK_SIZE), MESIState.SHARED)
        assert level.set_of(addr) == block % level.config.sets
        assert level.resident_addresses() == [addr]

    @given(st.integers(min_value=0, max_value=2**30 - 1))
    @settings(max_examples=50)
    def test_partition_depends_only_on_low_bits(self, addr):
        """Figure 5(b): bank/partition selection uses only the low
        min_locality_bits of the address."""
        geo = CacheGeometry(L3)
        mask = (1 << L3.min_locality_bits) - 1
        shifted = addr + (1 << L3.min_locality_bits)
        assert geo.partition_of(addr) == geo.partition_of(addr & mask)
        assert geo.partition_of(addr) == geo.partition_of(shifted)


class TestWayMapping:
    def test_all_ways_same_partition(self, l3_geo):
        """Figure 5(a): every way of a set maps into the set's partition,
        so locality never depends on run-time way choice."""
        for set_index in (0, 1, L3.sets - 1):
            slots = [l3_geo.slot(set_index, w) for w in range(L3.ways)]
            assert len({id(sub) for sub, _ in slots}) == 1
            rows = [row for _, row in slots]
            assert len(set(rows)) == L3.ways  # distinct rows
            assert all(0 <= r < L3.blocks_per_partition for r in rows)

    def test_distinct_sets_in_partition_get_distinct_rows(self, l3_geo):
        stride = L3.banks * L3.bps_per_bank  # sets mapping to same partition
        rows0 = {l3_geo.slot(0, w)[1] for w in range(L3.ways)}
        rows1 = {l3_geo.slot(stride, w)[1] for w in range(L3.ways)}
        assert l3_geo.slot(0, 0)[0] is l3_geo.slot(stride, 0)[0]
        assert rows0.isdisjoint(rows1)

    def test_slot_matches_decoded_locate_for_every_set(self):
        """Every set's slot is in the partition its addresses map to, and
        is where the level locates a block it filled."""
        level = l3_level()
        geo = level.geometry
        for set_index in range(L3.sets):
            addr = (7 * L3.sets + set_index) * BLOCK_SIZE
            level.fill(addr, bytes(BLOCK_SIZE), MESIState.SHARED)
            sub, row = geo.slot(set_index, level.probe(addr))
            assert sub is geo.subarrays[geo.partition_of(addr)]
            located_sub, located_row = level.locate(addr)
            assert sub is located_sub and row == located_row


class TestDataPlane:
    def test_write_read_round_trip(self, small_geo, make_bytes):
        data = make_bytes(64)
        sub, row = small_geo.slot(1, 2)
        sub.write_block(row, data)
        assert sub.read_block(row) == data

    def test_different_ways_independent(self, small_geo, make_bytes):
        d0, d1 = make_bytes(64), make_bytes(64)
        (sub0, row0), (sub1, row1) = small_geo.slot(4, 0), small_geo.slot(4, 1)
        sub0.write_block(row0, d0)
        sub1.write_block(row1, d1)
        assert sub0.read_block(row0) == d0
        assert sub1.read_block(row1) == d1

    def test_locate_returns_live_handle(self, make_bytes):
        level = CacheLevel("L1-D", L1, EnergyLedger())
        level.fill(0x200, bytes(BLOCK_SIZE), MESIState.EXCLUSIVE)
        data = make_bytes(64)
        sub, row = level.locate(0x200)
        sub.write_block(row, data)
        again, again_row = level.locate(0x200)
        assert again.read_block(again_row) == data
        assert level.peek_block(0x200) == data

    def test_key_row_reserved(self, small_geo, make_bytes):
        """The key row is beyond all data rows and independent of them."""
        key = make_bytes(64)
        p = small_geo.partition_of(0x0)
        row = small_geo.write_key(p, key)
        assert row == L1.blocks_per_partition
        assert small_geo.subarrays[p].read_block(row) == key

    def test_partition_count(self):
        for cfg_name in ("l1d", "l2", "l3_slice"):
            cfg: CacheLevelConfig = getattr(sandybridge_8core(), cfg_name)
            geo = CacheGeometry(cfg)
            assert len(geo.subarrays) == cfg.num_partitions
