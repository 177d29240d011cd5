"""Additional hierarchy behaviors: back-invalidation, directory cleanup,
upgrade paths, partial-block semantics, ring accounting."""

import pytest

from repro.cache.block import MESIState
from repro.cache.hierarchy import CacheHierarchy
from repro.energy.accounting import EnergyLedger
from repro.errors import AddressError
from repro.params import BLOCK_SIZE, small_test_machine


@pytest.fixture
def hier(small_config):
    return CacheHierarchy(small_config, EnergyLedger())


class TestL3BackInvalidation:
    def _thrash_slice(self, hier, victim, core=0, extra=0):
        """Force the victim's L3 set to overflow."""
        cfg = hier.config.l3_slice
        stride = cfg.sets * BLOCK_SIZE
        slice_id = hier.home_slice(victim, core)
        n = cfg.ways + 1 + extra
        for i in range(1, n + 1):
            addr = victim + i * stride
            if addr + 64 > hier.config.memory_size:
                break
            hier.place_page(addr, slice_id)
            hier.read(core, addr, 8)

    def test_l3_eviction_invalidates_private_copies(self, hier, make_bytes):
        victim = 0x0
        hier.memory.load(victim, make_bytes(64))
        hier.read(0, victim, 8)  # in L1/L2/L3
        self._thrash_slice(hier, victim)
        slice_id = hier.home_slice(victim, 0)
        if not hier.l3[slice_id].contains(victim):
            # Inclusion: the private copies must be gone too.
            assert not hier.l1[0].contains(victim)
            assert not hier.l2[0].contains(victim)
        hier.check_inclusion()

    def test_l3_eviction_flushes_dirty_private_to_memory(self, hier):
        victim = 0x0
        hier.memory.load(victim, bytes(64))
        hier.write(0, victim, b"\xEE" * 64)  # dirty only in L1
        self._thrash_slice(hier, victim)
        slice_id = hier.home_slice(victim, 0)
        if not hier.l3[slice_id].contains(victim):
            assert hier.memory.peek(victim, 64) == b"\xEE" * 64
        # Either way, the architectural value is preserved.
        assert hier.coherent_peek(victim, 64) == b"\xEE" * 64


class TestDirectoryHygiene:
    def test_write_clears_other_sharer_entries(self, hier, make_bytes):
        hier.memory.load(0x1000, make_bytes(64))
        hier.read(0, 0x1000, 8)
        hier.read(1, 0x1000, 8)
        hier.write(0, 0x1000, b"\x01" * 8)
        slice_id = hier.home_slice(0x1000, 0)
        entry = hier.directory[slice_id].peek(0x1000)
        assert entry is not None
        assert entry.sharers == {0}
        assert entry.owner == 0

    def test_read_after_recall_shares(self, hier):
        hier.memory.load(0x1000, bytes(64))
        hier.write(0, 0x1000, b"\x11" * 8)
        hier.read(1, 0x1000, 8)
        slice_id = hier.home_slice(0x1000, 0)
        entry = hier.directory[slice_id].peek(0x1000)
        assert entry.sharers == {0, 1}
        assert entry.owner is None

    def test_dirty_recall_updates_l3_data(self, hier):
        hier.memory.load(0x1000, bytes(64))
        hier.write(0, 0x1000, b"\x22" * 64)
        hier.read(1, 0x1000, 64)  # recall forces writeback into L3
        slice_id = hier.home_slice(0x1000, 0)
        assert hier.l3[slice_id].peek_block(0x1000) == b"\x22" * 64
        assert hier.l3[slice_id].state_of(0x1000) is MESIState.MODIFIED


class TestUpgradePaths:
    def test_shared_to_modified_upgrade(self, hier, make_bytes):
        hier.memory.load(0x2000, make_bytes(64))
        hier.read(0, 0x2000, 8)
        hier.read(1, 0x2000, 8)  # both S
        hier.write(0, 0x2000, b"\x33" * 8)  # S->M upgrade via directory
        assert hier.l1[0].state_of(0x2000) is MESIState.MODIFIED
        assert hier.l1[1].state_of(0x2000) is MESIState.INVALID
        hier.check_single_writer()

    def test_l2_hit_write_after_l1_eviction(self, hier, make_bytes):
        """Block evicted from L1 but present in L2: a write refills L1
        with write permission."""
        cfg = hier.config.l1d
        stride = cfg.sets * BLOCK_SIZE
        target = 0x0
        hier.read(0, target, 8)
        for i in range(1, cfg.ways + 1):  # evict target from L1 only
            hier.read(0, target + i * stride, 8)
        if not hier.l1[0].contains(target) and hier.l2[0].contains(target):
            hier.write(0, target, b"\x44" * 8)
            assert hier.l1[0].state_of(target) is MESIState.MODIFIED
            assert hier.coherent_peek(target, 8) == b"\x44" * 8


class TestByteGranularity:
    def test_single_byte_write(self, hier, make_bytes):
        block = make_bytes(64)
        hier.memory.load(0x3000, block)
        hier.write(0, 0x3007, b"\x99")
        expected = block[:7] + b"\x99" + block[8:]
        out, _ = hier.read(0, 0x3000, 64)
        assert out == expected

    def test_write_spanning_three_blocks(self, hier, make_bytes):
        data = make_bytes(150)
        hier.write(0, 0x3020, data)
        assert hier.coherent_peek(0x3020, 150) == data

    def test_zero_size_operations(self, hier):
        assert hier.read(0, 0x0, 0) == (b"", 0)
        assert hier.write(0, 0x0, b"") == 0

    def test_out_of_range_rejected(self, hier):
        with pytest.raises(AddressError):
            hier.read(0, hier.config.memory_size, 8)


class TestRingAccounting:
    def test_cross_core_traffic_counts_hops(self, hier, make_bytes):
        if hier.config.l3_slices < 2:
            pytest.skip("needs two slices")
        hier.memory.load(0x4000, make_bytes(64))
        hier.read(1, 0x4000, 8)   # homed at slice 1 (first touch core 1)
        before = hier.ring.stats.flit_hops
        hier.read(0, 0x4000, 8)   # core 0 <-> slice 1: nonzero hops
        assert hier.ring.stats.flit_hops > before
        assert hier.ledger.get("noc") > 0

    def test_same_stop_traffic_is_free(self, hier, make_bytes):
        hier.memory.load(0x5000, make_bytes(64))
        hier.read(0, 0x5000, 8)   # homed at core 0's own stop
        assert hier.ring.stats.flit_hops == 0


class TestForcedUnpinLog:
    def test_invalidation_of_pinned_line_recorded(self, hier, make_bytes):
        hier.memory.load(0x6000, make_bytes(64))
        hier.read(0, 0x6000, 8)
        hier.l1[0].pin(0x6000, owner=1)
        hier.write(1, 0x6000, b"\x55" * 8)  # invalidation hits the pin
        assert ("L1-D", 0, 0x6000) in hier.forced_unpins
        assert not hier.l1[0].contains(0x6000)
