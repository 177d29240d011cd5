"""CacheLevel tests: fills, evictions, pinning, energy charging, and the
one-slice line path through the level's row store."""

import copy

import numpy as np
import pytest

from repro.cache.block import MESIState
from repro.cache.cache import CacheLevel
from repro.energy.accounting import Component, EnergyLedger
from repro.errors import AddressError, CoherenceError
from repro.params import BLOCK_SIZE, CacheLevelConfig, sandybridge_8core, small_test_machine


@pytest.fixture
def level():
    cfg = CacheLevelConfig(size=4 * 1024, ways=4, banks=2,
                           bps_per_bank=2, hit_latency=5)
    return CacheLevel("L1-D", cfg, EnergyLedger())


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
        stride = cfg.sets * BLOCK_SIZE
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
        stride = level.config.sets * BLOCK_SIZE
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
        level.ledger = EnergyLedger()
        level.read_block(0x1000)
        from repro.energy.tables import read_energy

        assert level.ledger.total() == pytest.approx(read_energy("L1-D"))
        assert level.ledger.cache_ic() > 0
        assert level.ledger.cache_access() > 0

    def test_uncharged_read(self, level, make_bytes):
        level.fill(0x1000, make_bytes(64), MESIState.EXCLUSIVE)
        level.ledger = EnergyLedger()
        level.read_block(0x1000, charge=False)
        assert level.ledger.total() == 0.0

    def test_locate_and_resident_addresses(self, level, make_bytes):
        level.fill(0x1000, make_bytes(64), MESIState.EXCLUSIVE)
        sub, row = level.locate(0x1000)
        assert sub.read_block(row) == level.peek_block(0x1000)
        assert level.resident_addresses() == [0x1000]

    def test_resident_addresses_are_set_major_way_minor(self, level):
        stride = level.config.sets * BLOCK_SIZE

        def addr(set_index, tag):
            return tag * stride + set_index * BLOCK_SIZE

        for set_index, tag in [(3, 0), (0, 0), (2, 1), (0, 1), (3, 2), (1, 0), (0, 2)]:
            level.fill(addr(set_index, tag), bytes(64), MESIState.SHARED)
        level.invalidate(addr(0, 0))
        level.fill(addr(0, 5), bytes(64), MESIState.SHARED)  # refills way 0
        assert level.resident_addresses() == [
            addr(0, 5), addr(0, 1), addr(0, 2), addr(1, 0), addr(2, 1),
            addr(3, 0), addr(3, 2),
        ]


class TestWrongSizeBlock:
    """A block that is not ``BLOCK_SIZE`` bytes raises ``AddressError``
    before the level changes anything: lines, LRU, statistics (H-tree
    transfers are their reads plus writes), energy and the row store stay
    as they were."""

    @staticmethod
    def _snapshot(level):
        subs = level.geometry.subarrays
        return (
            [(a, level.state_of(a)) for a in level.resident_addresses()],
            list(level._lru),
            copy.deepcopy((level.stats, level.tag_stats, level.epoch)),
            dict(level.ledger.pj),
            [copy.deepcopy(sub.stats) for sub in subs],
            subs[0].block.tobytes(),
        )

    @pytest.mark.parametrize("size", [0, 10, 63, 65, 128])
    def test_write_block(self, level, make_bytes, size):
        level.fill(0x1000, make_bytes(BLOCK_SIZE), MESIState.EXCLUSIVE)
        before = self._snapshot(level)
        with pytest.raises(AddressError):
            level.write_block(0x1000, bytes(size))
        assert self._snapshot(level) == before
        assert level.state_of(0x1000) is MESIState.EXCLUSIVE

    @pytest.mark.parametrize("size", [0, 10, 63, 65, 128])
    def test_fill_into_a_full_set(self, level, size):
        stride = level.config.sets * BLOCK_SIZE
        for i in range(level.config.ways):
            level.fill(i * stride, bytes([i + 1]) * BLOCK_SIZE, MESIState.EXCLUSIVE)
        before = self._snapshot(level)
        with pytest.raises(AddressError):
            level.fill(level.config.ways * stride, bytes(size), MESIState.SHARED)
        assert self._snapshot(level) == before
        assert not level.contains(level.config.ways * stride)
        assert level.peek_block(0) == bytes([1]) * BLOCK_SIZE


LEVEL_CONFIGS = [(machine.__name__, name, getattr(machine(), field))
                 for machine in (small_test_machine, sandybridge_8core)
                 for name, field in zip(Component.LEVELS, ("l1d", "l2", "l3_slice"))]


class TestOneSliceLinePath:
    """A level moves a line's bytes as one slice of its row store, on both
    backends and at every level of both machines: what a fill or write
    stores comes back from every read path, sits in the row ``locate``
    names, counts one read or write in that partition's statistics, and
    leaves the key rows alone."""

    @staticmethod
    def _counts(level):
        return [(sub.stats.reads, sub.stats.writes) for sub in level.geometry.subarrays]

    def _step(self, level, addr, reads, writes):
        """Assert the partition of ``addr`` alone gained ``reads`` reads
        and ``writes`` writes since the last step."""
        now = self._counts(level)
        part = level.geometry.partition_of(addr)
        want = list(self._last)
        want[part] = (want[part][0] + reads, want[part][1] + writes)
        assert now == want
        self._last = now

    @pytest.mark.parametrize("backend", ["bitexact", "packed"])
    @pytest.mark.parametrize("machine, name, config", LEVEL_CONFIGS,
                             ids=[f"{m}-{n}" for m, n, _ in LEVEL_CONFIGS])
    def test_bytes_move_through_the_row_store(self, backend, machine, name, config):
        rng = np.random.default_rng(len(name) + config.sets)
        level = CacheLevel(name, config, EnergyLedger(), backend=backend)
        geometry = level.geometry
        self._last = self._counts(level)
        stride = config.sets * BLOCK_SIZE
        parts = config.num_partitions
        for set_index in sorted({0, 1, parts - 1, parts, config.sets // 2 + 3,
                                 config.sets - 1}):
            addrs = [set_index * BLOCK_SIZE + tag * stride for tag in range(config.ways + 1)]
            held = {}
            for addr in addrs[:-1]:
                data = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8).tobytes()
                assert level.fill(addr, data, MESIState.EXCLUSIVE) is None
                self._step(level, addr, 0, 1)
                sub, row = level.locate(addr)
                assert sub is geometry.subarrays[geometry.partition_of(addr)]
                assert sub.data[row].tobytes() == data
                line_set, way, _ = level.lookup(addr)
                assert level.read_line(addr, line_set, way) == data
                self._step(level, addr, 1, 0)
                data = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8).tobytes()
                level.write_block(addr, data)
                self._step(level, addr, 0, 1)
                assert level.read_block(addr, charge=False) == data
                self._step(level, addr, 1, 0)
                assert level.peek_block(addr) == data
                self._step(level, addr, 0, 0)
                complement = sub.op_batch("not", [row])[0]
                assert complement == bytes(255 - b for b in data)
                self._step(level, addr, 0, 0)
                held[addr] = data
            # The set is full: the next fill evicts the LRU line (the first).
            ev = level.fill(addrs[-1], bytes(BLOCK_SIZE), MESIState.SHARED)
            assert (ev.addr, ev.data, ev.dirty) == (addrs[0], held[addrs[0]], True)
            self._step(level, addrs[0], 1, 1)
            assert level.invalidate(addrs[1]) == (held[addrs[1]], True)
            self._step(level, addrs[1], 1, 0)
        key_rows = geometry.subarrays[0].block[:, geometry.key_row]
        assert not key_rows.any()
