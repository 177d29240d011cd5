"""Controller corner cases: splits, occupancy, failures, aliasing, bounds."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.cache.hierarchy import L3
from repro.errors import AddressError, ReproError
from repro.params import BLOCK_SIZE, PAGE_SIZE, small_test_machine


@pytest.fixture
def m():
    return ComputeCacheMachine(small_test_machine())


class TestPageSplitIntegration:
    def test_split_counted_and_correct(self, m, make_bytes):
        region = m.arena.alloc(4 * PAGE_SIZE, align=PAGE_SIZE)
        dst_region = m.arena.alloc(4 * PAGE_SIZE, align=PAGE_SIZE)
        a = region + PAGE_SIZE - 2 * BLOCK_SIZE
        c = dst_region + PAGE_SIZE - 2 * BLOCK_SIZE
        data = make_bytes(4 * BLOCK_SIZE)
        m.load(a, data)
        res = m.cc(cc_ops.cc_copy(a, c, 4 * BLOCK_SIZE))
        assert res.pieces == 2
        assert m.controllers[0].stats.page_splits == 1
        assert m.peek(c, 4 * BLOCK_SIZE) == data

    def test_cmp_result_spans_pieces(self, m, make_bytes):
        """A split cc_cmp still packs its 64-bit mask contiguously."""
        region = m.arena.alloc(4 * PAGE_SIZE, align=PAGE_SIZE)
        other = m.arena.alloc(4 * PAGE_SIZE, align=PAGE_SIZE)
        a = region + PAGE_SIZE - BLOCK_SIZE
        b = other + PAGE_SIZE - BLOCK_SIZE
        data = make_bytes(2 * BLOCK_SIZE)
        mutated = bytearray(data)
        mutated[8 * 9] ^= 1   # word 9 (block 1, word 1) differs
        m.load(a, data)
        m.load(b, bytes(mutated))
        res = m.cc(cc_ops.cc_cmp(a, b, 2 * BLOCK_SIZE))
        assert res.pieces == 2
        assert res.result == (0xFFFF & ~(1 << 9))


class TestOccupancyModel:
    def test_occupancy_below_latency(self, m, make_bytes):
        a, c = m.arena.alloc_colocated(1024, 2)
        m.load(a, make_bytes(1024))
        m.warm_l3(a, 1024)
        m.warm_l3(c, 1024)
        res = m.cc(cc_ops.cc_copy(a, c, 1024))
        assert 0 < res.occupancy_cycles <= res.cycles

    def test_occupancy_scales_with_blocks(self, m, make_bytes):
        sizes = (256, 1024)
        occupancies = []
        for size in sizes:
            a, c = m.arena.alloc_colocated(size, 2)
            m.load(a, make_bytes(size))
            occupancies.append(m.cc(cc_ops.cc_copy(a, c, size)).occupancy_cycles)
        assert occupancies[1] > occupancies[0]

    def test_nearplace_occupancy_includes_logic_unit(self, m, make_bytes):
        a, c = m.arena.alloc_colocated(512, 2)
        m.load(a, make_bytes(512))
        inp = m.cc(cc_ops.cc_copy(a, c, 512))
        near = m.cc(cc_ops.cc_copy(a, c, 512), force_nearplace=True)
        assert near.occupancy_cycles > inp.occupancy_cycles


class TestOperandAliasing:
    def test_accumulate_into_source(self, m, make_bytes):
        """c = a | c (destination aliases a source) - the DB-BitMap
        accumulation pattern."""
        a, c = m.arena.alloc_colocated(256, 2)
        da, dc = make_bytes(256), make_bytes(256)
        m.load(a, da)
        m.load(c, dc)
        m.cc(cc_ops.cc_or(a, c, c, 256))
        expected = bytes(x | y for x, y in zip(da, dc))
        assert m.peek(c, 256) == expected

    def test_self_copy_is_identity(self, m, make_bytes):
        data = make_bytes(128)
        a, c = m.arena.alloc_colocated(128, 2)
        m.load(a, data)
        m.cc(cc_ops.cc_copy(a, c, 128))
        m.cc(cc_ops.cc_copy(c, a, 128))
        assert m.peek(a, 128) == data


class TestSearchCorners:
    def test_key_equal_to_empty_block_matches_empty_slots(self, m):
        """An all-zero key matches zeroed blocks - software must avoid
        zero keys or zero-fill guards (documented hazard)."""
        data, key = m.arena.alloc_colocated(256, 2)
        m.load(data, bytes(256))
        res = m.cc(cc_ops.cc_search(data, key, 256))
        assert res.result == 0b1111

    def test_search_at_l1(self, m, make_bytes):
        data, key = m.arena.alloc_colocated(256, 2)
        blocks = [make_bytes(64) for _ in range(4)]
        m.load(data, b"".join(blocks))
        m.load(key, blocks[3])
        m.touch_range(data, 256)
        m.touch_range(key, 64)
        res = m.cc(cc_ops.cc_search(data, key, 256))
        assert res.level == "L1"
        assert res.result == 0b1000

    def test_search_force_nearplace_same_result(self, m, make_bytes):
        data, key = m.arena.alloc_colocated(256, 2)
        blocks = [make_bytes(64) for _ in range(4)]
        m.load(data, b"".join(blocks))
        m.load(key, blocks[1])
        inp = m.cc(cc_ops.cc_search(data, key, 256))
        near = m.cc(cc_ops.cc_search(data, key, 256), force_nearplace=True)
        assert inp.result == near.result == 0b0010


class TestL3EvictionUnderCC:
    def test_cc_data_survives_l3_pressure(self, m, make_bytes):
        """CC-written blocks evicted from L3 reach memory intact."""
        a, c = m.arena.alloc_colocated(256, 2)
        data = make_bytes(256)
        m.load(a, data)
        m.cc(cc_ops.cc_copy(a, c, 256))
        # Thrash the L3 slice with conflicting traffic.
        cfg = m.config.l3_slice
        stride = cfg.sets * BLOCK_SIZE
        slice_id = m.hierarchy.home_slice(c, 0)
        for i in range(1, 3 * cfg.ways):
            victim = c + i * stride
            if victim + 64 <= m.config.memory_size:
                m.hierarchy.place_page(victim, slice_id)
                m.read(victim, 8)
        assert m.peek(c, 256) == data

    def test_force_level_l3_functional(self, m, make_bytes):
        a, c = m.arena.alloc_colocated(256, 2)
        data = make_bytes(256)
        m.load(a, data)
        m.touch_range(a, 256)
        res = m.cc(cc_ops.cc_copy(a, c, 256), force_level=L3)
        assert res.level == L3
        assert m.peek(c, 256) == data
        # Stale private copies of the destination were invalidated.
        assert not m.hierarchy.l1[0].contains(c)


class TestDrainRowCheck:
    """The drain's row check (``ComputeCacheController._drain``) keeps a
    forced-level piece correct when a staging fetch back-invalidates an
    operand that an earlier op located."""

    @pytest.mark.parametrize("backend", ["bitexact", "packed"])
    def test_operand_evicted_by_a_staging_fetch_is_staged_again(self, backend, make_bytes):
        m = ComputeCacheMachine(small_test_machine(), backend=backend, trace_events=True)
        # One page apart: one L2 set (and one L1 set) for all six blocks.
        x, z1, z2, z3, y, d = m.arena.alloc_colocated(BLOCK_SIZE, 6)
        for addr in (x, z1, z2, z3, y, d):
            m.load(addr, make_bytes(BLOCK_SIZE))
        for addr in (x, z1, z2, z3):
            m.read(addr, 8, core=0)
        # x stays in L1 and is the LRU line of its full L2 set, so fetching
        # y for the AND evicts it from L2 and back-invalidates it in L1
        # after the op located it there.
        res = m.cc(cc_ops.cc_and(x, y, d, BLOCK_SIZE), force_level="L1")
        expected = (np.frombuffer(m.peek(x, BLOCK_SIZE), np.uint8)
                    & np.frombuffer(m.peek(y, BLOCK_SIZE), np.uint8)).tobytes()
        assert m.peek(d, BLOCK_SIZE) == expected
        assert res.inplace_ops == 1
        assert [e.outcome for e in m.tracer.by_kind("cc.dispatch")] == ["batched"]
        # The back-invalidation took x's L1 pin: recorded as a pin loss.
        [loss] = m.tracer.by_kind("cc.pin_loss")
        assert (loss.core, loss.level, loss.addr, loss.reason) == (
            0, "L1-D", x, "inclusive-eviction")
        assert m.hierarchy.forced_unpins == [("L1-D", 0, x)]


class TestInjectedPinSteals:
    """Starvation avoidance under injected pin steals (Section IV-E):
    the RISC fallback engages after *exactly* ``pin_retry_limit`` failed
    attempts, and results stay correct either way."""

    def _machine(self, limit):
        cfg = small_test_machine()
        cfg = replace(cfg, cc=replace(cfg.cc, pin_retry_limit=limit),
                      trace_events=True)
        return ComputeCacheMachine(cfg)

    @pytest.mark.parametrize("limit", [1, 2, 3, 5])
    def test_risc_fallback_after_exactly_limit(self, make_bytes, limit):
        m = self._machine(limit)
        a, b, c = m.arena.alloc_colocated(BLOCK_SIZE, 3)
        da, db = make_bytes(BLOCK_SIZE), make_bytes(BLOCK_SIZE)
        m.load(a, da)
        m.load(b, db)
        ctrl = m.controllers[0]
        ctrl.contention_hook = lambda addr: True  # every pin is stolen
        m.cc(cc_ops.cc_and(a, b, c, BLOCK_SIZE))
        retries = [e for e in m.tracer.snapshot() if e.kind == "cc.pin_retry"]
        assert len(retries) == limit
        assert ctrl.stats.risc_fallbacks == 1
        fallbacks = [e for e in m.tracer.snapshot()
                     if e.kind == "fault.recover"
                     and e.outcome == "degraded-risc"]
        assert len(fallbacks) == 1
        assert m.peek(c, BLOCK_SIZE) == bytes(
            x & y for x, y in zip(da, db))

    def test_recovery_before_limit_emits_retried(self, make_bytes):
        m = self._machine(3)
        a, b, c = m.arena.alloc_colocated(BLOCK_SIZE, 3)
        da, db = make_bytes(BLOCK_SIZE), make_bytes(BLOCK_SIZE)
        m.load(a, da)
        m.load(b, db)
        ctrl = m.controllers[0]
        steals = iter([True])  # steal once, then let the retry succeed
        ctrl.contention_hook = lambda addr: next(steals, False)
        m.cc(cc_ops.cc_and(a, b, c, BLOCK_SIZE))
        assert ctrl.stats.risc_fallbacks == 0
        recoveries = [e for e in m.tracer.snapshot()
                      if e.kind == "fault.recover" and e.outcome == "retried"]
        assert len(recoveries) == 1
        assert recoveries[0].reason == "pin-loss"
        assert m.peek(c, BLOCK_SIZE) == bytes(
            x & y for x, y in zip(da, db))


class TestLowAssociativityL3:
    """A 2-way L3 cannot hold the three operand blocks of a block op in
    one set: the fill inside operand staging finds every way pinned.  That
    is a lost pin like any other, so the op retries and then falls back to
    RISC operations (Section IV-E) instead of aborting the instruction."""

    @pytest.mark.parametrize("backend", ["packed", "bitexact"])
    def test_pinned_set_falls_back_to_risc(self, make_bytes, backend):
        cfg = small_test_machine()
        cfg = replace(cfg, l3_slice=replace(cfg.l3_slice, ways=2),
                      trace_events=True)
        m = ComputeCacheMachine(cfg, backend=backend)
        bufs = [m.arena.alloc_page_aligned(PAGE_SIZE) for _ in range(17)]
        # 32 KB apart: block i of each of them maps to 2-way L3 set i.
        a, b, c = bufs[0], bufs[8], bufs[16]
        da, db = make_bytes(PAGE_SIZE), make_bytes(PAGE_SIZE)
        m.load(a, da)
        m.load(b, db)
        res = m.cc(cc_ops.cc_xor(a, b, c, PAGE_SIZE))
        dispatch = [e for e in m.tracer.snapshot() if e.kind == "cc.dispatch"]
        assert [(e.outcome, e.reason) for e in dispatch] == [
            ("sequential", "occupancy")]
        expected = (np.frombuffer(da, np.uint8) ^ np.frombuffer(db, np.uint8))
        assert m.peek(c, PAGE_SIZE) == expected.tobytes()
        stats = m.controllers[0].stats
        assert res.risc_ops == 64
        assert stats.fallback_reasons == {"pin-loss": 64}
        m.hierarchy.check_inclusion()
        m.hierarchy.check_single_writer()


class TestFailedInstructions:
    """An exception raised mid-piece (here by the fetch hook) propagates
    to the caller, unpins every operand the op had pinned, and leaves no
    state behind: later instructions run as if it had never been issued."""

    def test_raising_fetch_leaves_no_pin_and_no_wedge(self, m, make_bytes):
        a, b, c, d, e, f = m.arena.alloc_colocated(512, 6)
        for addr in (a, b, d, e):
            m.load(addr, make_bytes(512))
        ctrl = m.controllers[0]

        def fault(addr):
            if b <= addr < b + 512:
                raise ReproError("injected fetch fault")
            return False

        ctrl.fetch_fault_hook = fault
        for _ in range(9):
            with pytest.raises(ReproError, match="injected fetch fault"):
                m.cc(cc_ops.cc_and(a, b, c, 512))
        ctrl.fetch_fault_hook = None
        caches = [m.hierarchy.l1[0], m.hierarchy.l2[0], *m.hierarchy.l3]
        for addr in (a, b, c):
            for blk in range(addr, addr + 512, BLOCK_SIZE):
                assert not any(cache.is_pinned(blk) for cache in caches)
        again = m.cc(cc_ops.cc_and(a, b, c, 512))
        other = m.cc(cc_ops.cc_xor(d, e, f, 512))
        assert (again.inplace_ops, again.risc_ops) == (8, 0)
        assert (other.inplace_ops, other.risc_ops) == (8, 0)
        assert m.peek(c, 512) == bytes(
            x & y for x, y in zip(m.peek(a, 512), m.peek(b, 512)))


class TestMemoryBounds:
    """An operand that ends beyond memory fails at the boundary, before
    any fetch, pin, charge or event."""

    @pytest.mark.parametrize("role, make", [
        ("dest", lambda a, b, c, end: cc_ops.cc_and(a, b, end, 512)),
        ("src2", lambda a, b, c, end: cc_ops.cc_and(a, end - 256, c, 512)),
        ("src2", lambda a, b, c, end: cc_ops.cc_search(a, end, 512)),
        # 1,024 B in 64-bit lanes store 16 result bytes.
        ("dest", lambda a, b, c, end: cc_ops.cc_clmul(a, b, end - 8, 1024)),
    ])
    def test_operand_beyond_memory_raises_before_any_effect(self, make_bytes, role, make):
        cfg = replace(small_test_machine(), trace_events=True)
        m = ComputeCacheMachine(cfg)
        a, b, c = m.arena.alloc_colocated(1024, 3)
        m.load(a, make_bytes(1024))
        m.load(b, make_bytes(1024))
        instr = make(a, b, c, cfg.memory_size)
        ctrl = m.controllers[0]
        ledger, stats, events = m.ledger.copy(), copy.deepcopy(ctrl.stats), len(m.tracer)
        with pytest.raises(AddressError, match=f"operand {role} "):
            m.cc(instr)
        assert m.ledger == ledger
        assert ctrl.stats == stats
        assert len(m.tracer) == events
