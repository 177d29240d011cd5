"""Coherent hierarchy tests: MESI transitions, inclusion, writebacks,
page placement, and coherent peeks through the home directory."""

import numpy as np
import pytest

from repro import ComputeCacheMachine
from repro.cache.block import MESIState
from repro.cache.hierarchy import L1, L2, L3, CacheHierarchy
from repro.energy.accounting import EnergyLedger
from repro.errors import AddressError, CoherenceError
from repro.params import BLOCK_SIZE, PAGE_SIZE, sandybridge_8core, small_test_machine


@pytest.fixture
def hier(small_config):
    return CacheHierarchy(small_config, EnergyLedger())


class TestBasicAccess:
    def test_read_returns_memory_contents(self, hier, make_bytes):
        data = make_bytes(64)
        hier.memory.load(0x1000, data)
        out, latency = hier.read(0, 0x1000, 64)
        assert out == data
        assert latency > hier.config.l1d.hit_latency  # cold miss

    def test_second_read_hits_l1(self, hier, make_bytes):
        hier.memory.load(0x1000, make_bytes(64))
        hier.read(0, 0x1000, 64)
        _, latency = hier.read(0, 0x1000, 8)
        assert latency == hier.config.l1d.hit_latency

    def test_write_then_read(self, hier, make_bytes):
        data = make_bytes(32)
        hier.write(0, 0x2000, data)
        out, _ = hier.read(0, 0x2000, 32)
        assert out == data

    def test_partial_write_preserves_rest(self, hier, make_bytes):
        block = make_bytes(64)
        hier.memory.load(0x1000, block)
        hier.write(0, 0x1010, b"\xAA" * 4)
        out, _ = hier.read(0, 0x1000, 64)
        assert out == block[:0x10] + b"\xAA" * 4 + block[0x14:]

    def test_cross_block_access(self, hier, make_bytes):
        data = make_bytes(200)
        hier.memory.load(0x1020, data)
        out, _ = hier.read(0, 0x1020, 200)
        assert out == data


class TestMESITransitions:
    def test_read_grants_exclusive_when_sole(self, hier, make_bytes):
        hier.memory.load(0x1000, make_bytes(64))
        hier.read(0, 0x1000, 8)
        assert hier.l1[0].state_of(0x1000) is MESIState.EXCLUSIVE

    def test_second_reader_shares(self, hier, make_bytes):
        hier.memory.load(0x1000, make_bytes(64))
        hier.read(0, 0x1000, 8)
        hier.read(1, 0x1000, 8)
        assert hier.l1[0].state_of(0x1000) is MESIState.SHARED
        assert hier.l1[1].state_of(0x1000) is MESIState.SHARED

    def test_write_invalidates_sharers(self, hier, make_bytes):
        hier.memory.load(0x1000, make_bytes(64))
        hier.read(0, 0x1000, 8)
        hier.read(1, 0x1000, 8)
        hier.write(1, 0x1000, b"\x11" * 8)
        assert hier.l1[0].state_of(0x1000) is MESIState.INVALID
        assert hier.l1[1].state_of(0x1000) is MESIState.MODIFIED

    def test_dirty_data_forwarded_to_reader(self, hier):
        hier.memory.load(0x1000, bytes(64))
        hier.write(0, 0x1000, b"\x55" * 64)
        out, _ = hier.read(1, 0x1000, 64)
        assert out == b"\x55" * 64
        # Writer downgraded to shared.
        assert hier.l1[0].state_of(0x1000) in (MESIState.SHARED, MESIState.INVALID)

    def test_write_after_write_other_core(self, hier):
        hier.memory.load(0x1000, bytes(64))
        hier.write(0, 0x1000, b"\x01" * 8)
        hier.write(1, 0x1008, b"\x02" * 8)
        out, _ = hier.read(0, 0x1000, 16)
        assert out == b"\x01" * 8 + b"\x02" * 8

    def test_silent_e_to_m(self, hier, make_bytes):
        hier.memory.load(0x1000, make_bytes(64))
        hier.read(0, 0x1000, 8)  # E
        ring_msgs = hier.ring.stats.control_messages
        hier.write(0, 0x1000, b"\x99" * 8)  # E->M needs no directory trip
        assert hier.ring.stats.control_messages == ring_msgs


class TestInclusionAndWriteback:
    def test_invariants_after_traffic(self, hier, rng):
        for i in range(200):
            core = int(rng.integers(0, hier.config.cores))
            addr = int(rng.integers(0, 512)) * 64
            if rng.random() < 0.5:
                hier.read(core, addr, 8)
            else:
                hier.write(core, addr, bytes([i & 0xFF]) * 8)
        hier.check_inclusion()
        hier.check_single_writer()

    @pytest.mark.parametrize("for_write", [False, True])
    def test_audit_flags_a_writable_copy_its_directory_does_not_own(self, hier, for_write):
        """An E or M private line must belong to its home directory's
        owner: that is what lets ``coherent_peek`` look at one core."""
        hier.memory.load(0x1000, bytes(64))
        hier.access_block(0, 0x1000, for_write=for_write)
        hier.check_inclusion()
        hier.directory[hier.home_slice(0x1000)].clear_owner(0x1000)
        with pytest.raises(CoherenceError, match="not owned"):
            hier.check_inclusion()

    def test_l1_capacity_eviction_writes_back(self, hier):
        """Dirty L1 victims land in L2 with their data."""
        cfg = hier.config.l1d
        stride = cfg.sets * BLOCK_SIZE
        addrs = [i * stride for i in range(cfg.ways + 1)]
        for i, addr in enumerate(addrs):
            hier.write(0, addr, bytes([i]) * 64)
        # First block evicted from L1; its data must be in L2.
        assert not hier.l1[0].contains(addrs[0])
        assert hier.l2[0].contains(addrs[0])
        assert hier.l2[0].peek_block(addrs[0]) == bytes([0]) * 64

    def test_data_survives_full_eviction_chain(self, hier, rng):
        """Write enough conflicting blocks to force L2/L3 evictions; every
        value must still be readable (through caches or memory)."""
        values = {}
        # Overflow the small L3 slice associativity chain.
        for i in range(256):
            addr = (i * 64 * 173) % hier.config.memory_size
            addr &= ~63
            values[addr] = bytes([i & 0xFF]) * 64
            hier.write(0, addr, values[addr])
        for addr, expected in values.items():
            out, _ = hier.read(0, addr, 64)
            assert out == expected, hex(addr)


class TestCCPrepare:
    def test_prepare_l3_fetches_from_memory(self, hier, make_bytes):
        data = make_bytes(64)
        hier.memory.load(0x3000, data)
        latency = hier.cc_prepare(0, L3, 0x3000, is_dest=False)
        assert latency >= hier.config.memory.latency
        slice_id = hier.home_slice(0x3000, 0)
        assert hier.l3[slice_id].contains(0x3000)
        assert hier.l3[slice_id].peek_block(0x3000) == data

    def test_prepare_l3_writes_back_dirty_private(self, hier):
        hier.memory.load(0x3000, bytes(64))
        hier.write(0, 0x3000, b"\x77" * 64)  # dirty in L1
        hier.cc_prepare(0, L3, 0x3000, is_dest=False)
        slice_id = hier.home_slice(0x3000, 0)
        assert hier.l3[slice_id].peek_block(0x3000) == b"\x77" * 64
        # Source operands stay shared above (writeback, not invalidate).
        assert hier.l1[0].state_of(0x3000) in (MESIState.SHARED, MESIState.INVALID)

    def test_prepare_l3_dest_invalidates_private(self, hier):
        hier.memory.load(0x3000, bytes(64))
        hier.read(0, 0x3000, 8)
        hier.cc_prepare(0, L3, 0x3000, is_dest=True)
        assert hier.l1[0].state_of(0x3000) is MESIState.INVALID
        assert hier.l2[0].state_of(0x3000) is MESIState.INVALID
        slice_id = hier.home_slice(0x3000, 0)
        assert hier.l3[slice_id].state_of(0x3000) is MESIState.MODIFIED

    def test_prepare_dest_skip_fetch(self, hier):
        reads_before = hier.memory.block_reads
        hier.cc_prepare(0, L3, 0x4000, is_dest=True, skip_fetch=True)
        assert hier.memory.block_reads == reads_before  # no fetch
        slice_id = hier.home_slice(0x4000, 0)
        assert hier.l3[slice_id].contains(0x4000)

    def test_prepare_l1_brings_block_in(self, hier, make_bytes):
        data = make_bytes(64)
        hier.memory.load(0x5000, data)
        hier.cc_prepare(0, L1, 0x5000, is_dest=False)
        assert hier.l1[0].contains(0x5000)

    def test_prepare_l2_flushes_l1(self, hier):
        hier.memory.load(0x5000, bytes(64))
        hier.write(0, 0x5000, b"\x42" * 64)  # dirty in L1
        hier.cc_prepare(0, L2, 0x5000, is_dest=False)
        assert not hier.l1[0].contains(0x5000)
        assert hier.l2[0].peek_block(0x5000) == b"\x42" * 64

    @pytest.mark.parametrize("is_dest", [False, True])
    @pytest.mark.parametrize("level", [L1, L2, L3])
    @pytest.mark.parametrize("where", ["memory", "l3", "core0", "core0-dirty",
                                       "core0-l2", "core1", "both-cores"])
    def test_ready_lines_match_prepare(self, hier, where, level, is_dest):
        """``cc_ready_lines`` finds a block ready exactly when
        ``cc_prepare`` returns 0 for it and changes nothing but a
        destination's state at the compute level."""
        addr = 0x3000
        hier.memory.load(addr, bytes(range(64)))
        if where == "core0-dirty":
            hier.write(0, addr, b"\x5a" * 8)
        elif where != "memory":
            hier.read(1 if where == "core1" else 0, addr, 8)
        if where == "both-cores":
            hier.read(1, addr, 8)
        elif where == "l3":
            hier.flush_private(0, addr)
        elif where == "core0-l2":
            hier.l1[0].invalidate(addr)  # a clean line leaves the L1 silently

        caches = [*hier.l1, *hier.l2, *hier.l3]

        def machine_state():
            entry = hier.directory[hier.home_slice(addr, 0)].peek(addr)
            return ([c.state_of(addr) for c in caches], dict(hier.ledger.pj),
                    hier.memory.block_reads, entry and (set(entry.sharers), entry.owner))

        lines = hier.cc_ready_lines(0, level, [addr], is_dest)
        before = machine_state()
        target = caches.index(hier.level_cache(level, 0, addr))
        if is_dest and before[0][target] is not MESIState.INVALID:
            before[0][target] = MESIState.MODIFIED
        latency = hier.cc_prepare(0, level, addr, is_dest, skip_fetch=is_dest)
        assert (lines is not None) == (latency == 0 and machine_state() == before)
        if lines is not None:
            assert lines == [(hier.level_cache(level, 0, addr).set_of(addr),
                              hier.level_cache(level, 0, addr).probe(addr))]

    def test_probe_residency(self, hier, make_bytes):
        hier.memory.load(0x6000, make_bytes(64))
        hier.read(0, 0x6000, 8)
        res = hier.probe_residency(0, [0x6000])
        assert res == {L1: True, L2: True, L3: True}
        res2 = hier.probe_residency(0, [0x6000, 0x7000])
        assert res2[L1] is False


class TestCoherentPeek:
    def test_peek_sees_dirty_l1(self, hier):
        hier.memory.load(0x1000, bytes(64))
        hier.write(0, 0x1000, b"\xAB" * 8)
        assert hier.coherent_peek(0x1000, 8) == b"\xAB" * 8

    def test_peek_falls_back_to_memory(self, hier, make_bytes):
        data = make_bytes(64)
        hier.memory.load(0x8000, data)
        assert hier.coherent_peek(0x8000, 64) == data

    def test_peek_charges_nothing(self, hier, make_bytes):
        hier.memory.load(0x1000, make_bytes(64))
        hier.read(0, 0x1000, 8)
        before = hier.ledger.total()
        hier.coherent_peek(0x1000, 64)
        assert hier.ledger.total() == before


class TestNUCAPlacement:
    def test_first_touch_placement(self, small_config):
        hier = CacheHierarchy(small_config, EnergyLedger())
        hier.memory.load(0x1000, bytes(64))
        hier.read(1, 0x1000, 8)  # core 1 touches first
        assert hier.home_slice(0x1000) == 1 % small_config.l3_slices

    def test_explicit_placement(self, hier):
        hier.place_page(0x0, 1)
        assert hier.home_slice(0x40) == 1

    def test_cached_page_is_not_rehomed(self):
        """Moving a page off the slice that caches one of its blocks would
        strand the copies: core 1 would read memory's stale bytes and the
        audit would find its copy in no directory.  The map stays put."""
        m = ComputeCacheMachine(small_test_machine())
        page = m.arena.alloc(PAGE_SIZE, align=PAGE_SIZE)
        block = page + 5 * BLOCK_SIZE
        m.load(page, b"\x11" * PAGE_SIZE)
        m.write(block, b"\x22" * BLOCK_SIZE, core=0)
        assert m.hierarchy.home_slice(block) == 0
        epoch = m.hierarchy.page_map_epoch
        with pytest.raises(AddressError):
            m.place_page(page + 7, 1)
        assert m.hierarchy.home_slice(block) == 0
        assert m.hierarchy.page_map_epoch == epoch
        m.place_page(block, 0)  # its own slice: nothing moves
        assert m.read(block, BLOCK_SIZE, core=1) == b"\x22" * BLOCK_SIZE
        assert m.peek(block, BLOCK_SIZE) == b"\x22" * BLOCK_SIZE
        m.hierarchy.check_inclusion()

    def test_fresh_or_untouched_pages_move(self, hier):
        hier.place_page(0x0, 1)
        hier.place_page(0x0, 0)  # placed, never touched
        hier.memory.load(PAGE_SIZE, bytes(PAGE_SIZE))  # loaded, never cached
        hier.place_page(PAGE_SIZE, 1)
        assert (hier.home_slice(0x40), hier.home_slice(PAGE_SIZE)) == (0, 1)


def _scan_peek(hier: CacheHierarchy, addr: int) -> bytes:
    """A coherent peek by brute force: the first dirty copy in any core's
    L1 or L2, else the home L3 slice, else memory."""
    for core in range(hier.config.cores):
        for level in (hier.l1[core], hier.l2[core]):
            if level.state_of(addr).dirty:
                return level.peek_block(addr)
    for l3 in hier.l3:
        if l3.contains(addr):
            return l3.peek_block(addr)
    return hier.memory.peek(addr, BLOCK_SIZE)


class TestHomeDirectoryPeek:
    """``coherent_peek`` asks the home directory for the owner and checks
    only that core's L1 and L2, then the home L3, then memory.  On the
    Table IV machine it must agree with a scan of all 16 private caches,
    and the owner audit of ``check_inclusion`` must hold throughout."""

    @pytest.fixture(scope="class")
    def m(self):
        return ComputeCacheMachine(sandybridge_8core())

    @staticmethod
    def _agrees(m, blocks):
        m.hierarchy.check_inclusion()
        for block in blocks:
            assert m.peek(block, BLOCK_SIZE) == _scan_peek(m.hierarchy, block)

    def test_cases(self, m):
        hier = m.hierarchy
        base = m.arena.alloc(16 * PAGE_SIZE, align=PAGE_SIZE)
        m.load(base, bytes(range(256)) * (16 * PAGE_SIZE // 256))
        # The L1 conflict reads after b touch pages 2 to 9.
        a, b, c = base, base + PAGE_SIZE + 64, base + 10 * PAGE_SIZE + 128
        # Dirty only in the owner's L1 (its L2 copy is clean).
        m.write(a, b"\xa1" * BLOCK_SIZE, core=3)
        assert hier.l1[3].state_of(a).dirty and not hier.l2[3].state_of(a).dirty
        assert hier.directory[hier.home_slice(a)].peek(a).owner == 3
        self._agrees(m, [a])
        assert m.peek(a, BLOCK_SIZE) == b"\xa1" * BLOCK_SIZE
        # Dirty only in the owner's L2, after an L1 conflict eviction.
        m.write(b, b"\xb2" * BLOCK_SIZE, core=6)
        l1_stride = hier.config.l1d.sets * BLOCK_SIZE
        for i in range(1, hier.config.l1d.ways + 1):
            m.read(b + i * l1_stride, 8, core=6)
        assert not hier.l1[6].contains(b) and hier.l2[6].state_of(b).dirty
        self._agrees(m, [b])
        assert m.peek(b, BLOCK_SIZE) == b"\xb2" * BLOCK_SIZE
        # A downgrade: another core's read leaves no owner and the data at L3.
        m.write(c, b"\xc3" * BLOCK_SIZE, core=1)
        m.read(c, 8, core=4)
        entry = hier.directory[hier.home_slice(c)].peek(c)
        assert entry.owner is None and entry.sharers == {1, 4}
        self._agrees(m, [a, b, c])
        assert m.peek(c, BLOCK_SIZE) == b"\xc3" * BLOCK_SIZE
        # A placed page nothing has touched, and a page no access has homed.
        placed, unhomed = base + 12 * PAGE_SIZE, base + 14 * PAGE_SIZE
        m.place_page(placed, 5)
        self._agrees(m, [placed, placed + 64, unhomed, unhomed + 64])
        assert m.peek(placed, 4) == bytes(range(4))
        assert m.peek(unhomed + 64, 4) == bytes(range(64, 68))

    def test_random_traffic(self, m):
        """Reads and writes on three pages' blocks and on blocks that
        conflict with them in the L1, most by cores 1 and 6 (so their L1s
        evict dirty lines to their L2s) and a quarter by any of the eight
        (so copies are shared, downgraded and recalled): the two peeks
        agree after every access."""
        rng = np.random.default_rng(7)
        l1_stride = m.config.l1d.sets * BLOCK_SIZE
        base = m.arena.alloc(12 * PAGE_SIZE, align=PAGE_SIZE)
        m.load(base, bytes(12 * PAGE_SIZE))
        blocks = [base + page * PAGE_SIZE + k * BLOCK_SIZE
                  for page in range(3) for k in (0, 1, 63)]
        blocks += [base + 2 * PAGE_SIZE + i * l1_stride for i in range(1, 10)]
        for step in range(300):
            core = (int(rng.integers(m.config.cores)) if rng.random() < 0.25
                    else (1, 6)[int(rng.integers(2))])
            addr = blocks[int(rng.integers(len(blocks)))]
            if rng.random() < 0.5:
                m.write(addr, bytes([step % 256]) * 8, core=core)
            else:
                m.read(addr, 8, core=core)
            self._agrees(m, blocks)

    def test_load_into_a_block_only_one_l1_holds_dirty(self, m):
        """``load`` checks only the home L3 slice; by inclusion that sees a
        block whose one fresh copy is in core 7's L1."""
        addr = m.arena.alloc(PAGE_SIZE, align=PAGE_SIZE)
        m.load(addr, bytes(PAGE_SIZE))
        m.write(addr, b"\x77" * BLOCK_SIZE, core=7)
        holders = [(core, level.name) for core in range(m.config.cores)
                   for level in (m.hierarchy.l1[core], m.hierarchy.l2[core])
                   if level.state_of(addr).dirty]
        assert holders == [(7, "L1-D")]
        with pytest.raises(AddressError):
            m.load(addr, bytes(BLOCK_SIZE))
        assert m.peek(addr, BLOCK_SIZE) == b"\x77" * BLOCK_SIZE


# -- forwarded requests (CacheHierarchy._forward) --------------------------------------

_B = 0x4000
"""A block homed on slice 1 of ``small_test_machine()`` (placed there):
core 0, the holder every delivery below targets, sits one hop away."""


def _owner_recall(h):
    """A write miss on core 1 recalls core 0's dirty copy."""
    h.write(0, _B, b"\x11" * 8)
    return lambda: h.access_block(1, _B, for_write=True).latency


def _sharer_invalidation(h):
    """Core 1's write to a block both cores share invalidates core 0's copy."""
    h.read(0, _B, 8)
    h.read(1, _B, 8)
    return lambda: h.access_block(1, _B, for_write=True).latency


def _read_downgrade(h):
    """A read miss on core 1 downgrades core 0's dirty copy."""
    h.write(0, _B, b"\x11" * 8)
    return lambda: h.access_block(1, _B, for_write=False).latency


def _cc_source(h):
    """Core 1 stages a CC source at L3 that core 0 holds dirty."""
    h.write(0, _B, b"\x11" * 8)
    return lambda: h.cc_prepare(1, L3, _B, is_dest=False)


def _cc_dest(h):
    """Core 1 stages a CC destination at L3 that core 0 holds dirty."""
    h.write(0, _B, b"\x11" * 8)
    return lambda: h.cc_prepare(1, L3, _B, is_dest=True)


DELIVERIES = {  # scenario -> (set-up returning the delivery, invalidations)
    "write-miss-owner-recall": (_owner_recall, 1),
    "write-miss-sharer-invalidation": (_sharer_invalidation, 1),
    "read-miss-downgrade": (_read_downgrade, 0),
    "cc-l3-source": (_cc_source, 0),
    "cc-l3-destination": (_cc_dest, 1),
}


def _copies(h, addr):
    """Every copy of a block (state and bytes, per cache) and its home
    directory entry."""
    levels = [*h.l1, *h.l2, h.l3[1]]
    copies = [(lvl.state_of(addr), lvl.peek_block(addr) if lvl.contains(addr) else None)
              for lvl in levels]
    entry = h.directory[1].peek(addr)
    return copies, entry and (sorted(entry.sharers), entry.owner), h.coherent_peek(addr, 64)


class TestForwardedRequests:
    """Every forwarded request is one delivery: the holder's copies go,
    the directory forgets it, a dirty copy is written back, and an
    injected fault is absorbed."""

    @staticmethod
    def _deliver(small_config, scenario, action):
        """Set up ``scenario``, install a hook answering ``action``, run
        its delivery; returns (latency, copies, redundant revokes,
        fault.recover events)."""
        m = ComputeCacheMachine(small_config, trace_events=True)
        m.place_page(_B, 1)
        h = m.hierarchy
        deliver = DELIVERIES[scenario][0](h)
        if action is not None:
            h.coherence_fault_hook = lambda addr, holder: action
        start = m.tracer.total_emitted
        latency = deliver()
        recovers = [(ev.core, ev.addr, ev.outcome, ev.reason, ev.span)
                    for ev in list(m.tracer)[start:] if ev.kind == "fault.recover"]
        return latency, _copies(h, _B), h.directory[1].redundant_revokes, recovers

    @pytest.mark.parametrize("scenario", DELIVERIES)
    def test_duplicate_is_absorbed(self, small_config, scenario):
        """A duplicated delivery leaves the copies and the directory as one
        delivery does; it costs one control message from the home slice
        to the holder, one redundant revoke per invalidation and one
        ``absorbed`` recovery."""
        plain = self._deliver(small_config, scenario, None)
        dup = self._deliver(small_config, scenario, ("duplicate", 0))
        control = ComputeCacheMachine(small_config).hierarchy.ring.latency(1, 0, data=False)
        assert control > 0
        assert dup[1] == plain[1]
        assert dup[0] == plain[0] + control
        assert dup[2] == plain[2] + DELIVERIES[scenario][1]
        assert plain[3] == []
        assert dup[3] == [(0, _B, "absorbed", "directory-duplicate", float(control))]

    @pytest.mark.parametrize("scenario", DELIVERIES)
    def test_delay_is_absorbed(self, small_config, scenario):
        plain = self._deliver(small_config, scenario, None)
        late = self._deliver(small_config, scenario, ("delay", 7))
        assert late[1:3] == plain[1:3]
        assert late[0] == plain[0] + 7
        assert late[3] == [(0, _B, "absorbed", "directory-delay", 7.0)]

    def test_write_miss_recall_revokes_before_the_writeback(self, small_config):
        """Core 1's store misses on a block core 0 holds dirty: the home
        directory revokes core 0, then its copy crosses the L3 slice's
        H-tree, then core 1 is granted the block."""
        m = ComputeCacheMachine(small_config, trace_events=True)
        m.write(_B, b"\x11" * 8, core=0)
        start = m.tracer.total_emitted
        m.write(_B, b"\x22" * 8, core=1)
        events = [(ev.kind, ev.level or ev.core) for ev in list(m.tracer)[start:]]
        assert events == [
            ("cache.lookup", "L1-D"), ("cache.lookup", "L2"),
            ("dir.revoke", 0),
            ("htree.transfer", "L3-slice"), ("cache.write", "L3-slice"),  # writeback
            ("htree.transfer", "L3-slice"), ("cache.read", "L3-slice"),   # supply
            ("dir.grant", 1),
            ("cache.fill", "L2"), ("cache.fill", "L1-D"),
            ("htree.transfer", "L1-D"), ("cache.write", "L1-D"),          # the store
        ]
        assert m.peek(_B, 8) == b"\x22" * 8
