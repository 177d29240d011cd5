"""CacheLevel tests: fills, evictions, pinning, energy charging."""

import pytest

from repro.cache.block import MESIState
from repro.cache.cache import CacheLevel
from repro.energy.accounting import EnergyLedger
from repro.errors import AddressError, CoherenceError
from repro.params import CacheLevelConfig


@pytest.fixture
def level():
    cfg = CacheLevelConfig(name="L1-D", size=4 * 1024, ways=4, banks=2,
                           bps_per_bank=2, hit_latency=5)
    return CacheLevel(cfg, EnergyLedger())


class TestFillReadWrite:
    def test_fill_then_read(self, level, make_bytes):
        data = make_bytes(64)
        assert level.fill(0x1000, data, MESIState.EXCLUSIVE) is None
        assert level.read_block(0x1000) == data
        assert level.state_of(0x1000) is MESIState.EXCLUSIVE

    def test_write_marks_modified(self, level, make_bytes):
        level.fill(0x1000, bytes(64), MESIState.EXCLUSIVE)
        level.write_block(0x1000, make_bytes(64))
        assert level.state_of(0x1000) is MESIState.MODIFIED

    def test_unaligned_rejected(self, level):
        with pytest.raises(AddressError):
            level.read_block(0x1001)

    def test_absent_read_rejected(self, level):
        with pytest.raises(CoherenceError):
            level.read_block(0x1000)

    def test_double_fill_rejected(self, level):
        level.fill(0x1000, bytes(64), MESIState.SHARED)
        with pytest.raises(CoherenceError):
            level.fill(0x1000, bytes(64), MESIState.SHARED)

    def test_peek_free_of_charge(self, level, make_bytes):
        data = make_bytes(64)
        level.fill(0x1000, data, MESIState.EXCLUSIVE)
        before = level.ledger.total()
        reads_before = level.stats.reads
        assert level.peek_block(0x1000) == data
        assert level.ledger.total() == before
        assert level.stats.reads == reads_before


class TestEviction:
    def _fill_set(self, level, base, n, state=MESIState.EXCLUSIVE):
        """Fill n conflicting blocks (same set)."""
        cfg = level.config
        stride = cfg.sets * cfg.block_size
        addrs = [base + i * stride for i in range(n)]
        evictions = [level.fill(a, a.to_bytes(8, "little") * 8, state) for a in addrs]
        return addrs, evictions

    def test_eviction_returns_victim(self, level):
        ways = level.config.ways
        addrs, evictions = self._fill_set(level, 0x0, ways + 1)
        assert all(e is None for e in evictions[:ways])
        victim = evictions[ways]
        assert victim is not None
        assert victim.addr == addrs[0]  # LRU
        assert not victim.dirty

    def test_dirty_eviction_carries_data(self, level, make_bytes):
        ways = level.config.ways
        addrs, _ = self._fill_set(level, 0x0, ways)
        dirty_data = make_bytes(64)
        level.write_block(addrs[1], dirty_data)  # way 1 is dirty and MRU
        # Fill more: victims evict in LRU order (0, 2, 3...), then 1.
        stride = level.config.sets * level.config.block_size
        ev = None
        for i in range(ways):
            ev = level.fill(0x40000 + i * stride, bytes(64), MESIState.SHARED)
            if ev and ev.dirty:
                break
        assert ev is not None and ev.dirty
        assert ev.addr == addrs[1]
        assert ev.data == dirty_data

    def test_invalidate_returns_data(self, level, make_bytes):
        data = make_bytes(64)
        level.fill(0x2000, data, MESIState.MODIFIED)
        result = level.invalidate(0x2000)
        assert result == (data, True)
        assert not level.contains(0x2000)
        assert level.invalidate(0x2000) is None


class TestPinning:
    def test_pin_unpin(self, level):
        level.fill(0x1000, bytes(64), MESIState.EXCLUSIVE)
        level.pin(0x1000, owner=1)
        assert level.is_pinned(0x1000)
        level.unpin(0x1000)
        assert not level.is_pinned(0x1000)

    def test_pin_absent_rejected(self, level):
        with pytest.raises(CoherenceError):
            level.pin(0x1000, owner=1)

    def test_unpin_absent_is_noop(self, level):
        level.unpin(0x1000)  # must not raise


class TestEnergyCharging:
    def test_read_charges_access_and_ic(self, level, make_bytes):
        level.fill(0x1000, make_bytes(64), MESIState.EXCLUSIVE)
        level.ledger.reset()
        level.read_block(0x1000)
        from repro.energy.tables import read_energy

        assert level.ledger.total() == pytest.approx(read_energy("L1-D"))
        assert level.ledger.cache_ic() > 0
        assert level.ledger.cache_access() > 0

    def test_uncharged_read(self, level, make_bytes):
        level.fill(0x1000, make_bytes(64), MESIState.EXCLUSIVE)
        level.ledger.reset()
        level.read_block(0x1000, charge=False)
        assert level.ledger.total() == 0.0

    def test_locate_and_resident_addresses(self, level, make_bytes):
        level.fill(0x1000, make_bytes(64), MESIState.EXCLUSIVE)
        sub, row = level.locate(0x1000)
        assert sub.read_block(row) == level.peek_block(0x1000)
        assert level.resident_addresses() == [0x1000]

    def test_resident_addresses_are_set_major_way_minor(self, level):
        stride = level.config.sets * level.config.block_size

        def addr(set_index, tag):
            return tag * stride + set_index * level.config.block_size

        for set_index, tag in [(3, 0), (0, 0), (2, 1), (0, 1), (3, 2), (1, 0), (0, 2)]:
            level.fill(addr(set_index, tag), bytes(64), MESIState.SHARED)
        level.invalidate(addr(0, 0))
        level.fill(addr(0, 5), bytes(64), MESIState.SHARED)  # refills way 0
        assert level.resident_addresses() == [
            addr(0, 5), addr(0, 1), addr(0, 2), addr(1, 0), addr(2, 1),
            addr(3, 0), addr(3, 2),
        ]
