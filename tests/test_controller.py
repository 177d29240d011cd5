"""End-to-end CC controller tests: functional exactness, level selection,
near-place fallback, pinning/RISC fallback, key replication."""

import numpy as np
import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.cache.hierarchy import L1, L2, L3
from repro.params import BLOCK_SIZE, PAGE_SIZE


@pytest.fixture
def loaded(machine, make_bytes):
    """Machine with three co-located 512-byte buffers a, b, c."""
    a, b, c = machine.arena.alloc_colocated(512, 3)
    da, db = make_bytes(512), make_bytes(512)
    machine.load(a, da)
    machine.load(b, db)
    return machine, (a, da), (b, db), c


def np_bytes(data):
    return np.frombuffer(data, dtype=np.uint8)


class TestFunctionalExactness:
    """Every opcode's architectural effect matches the reference."""

    def test_copy(self, loaded):
        m, (a, da), _, c = loaded
        res = m.cc(cc_ops.cc_copy(a, c, 512))
        assert m.peek(c, 512) == da
        assert res.used_inplace

    def test_buz(self, loaded):
        m, (a, _), _, _ = loaded
        m.cc(cc_ops.cc_buz(a, 512))
        assert m.peek(a, 512) == bytes(512)

    def test_and_or_xor(self, loaded):
        m, (a, da), (b, db), c = loaded
        na, nb = np_bytes(da), np_bytes(db)
        m.cc(cc_ops.cc_and(a, b, c, 512))
        assert m.peek(c, 512) == (na & nb).tobytes()
        m.cc(cc_ops.cc_or(a, b, c, 512))
        assert m.peek(c, 512) == (na | nb).tobytes()
        m.cc(cc_ops.cc_xor(a, b, c, 512))
        assert m.peek(c, 512) == (na ^ nb).tobytes()

    def test_not(self, loaded):
        m, (a, da), _, c = loaded
        m.cc(cc_ops.cc_not(a, c, 512))
        assert m.peek(c, 512) == (~np_bytes(da)).astype(np.uint8).tobytes()

    def test_sources_unmodified(self, loaded):
        m, (a, da), (b, db), c = loaded
        m.cc(cc_ops.cc_xor(a, b, c, 512))
        assert m.peek(a, 512) == da
        assert m.peek(b, 512) == db

    def test_cmp_result_mask(self, machine, make_bytes):
        a, b = machine.arena.alloc_colocated(512, 2)
        data = make_bytes(512)
        other = bytearray(data)
        other[100] ^= 1  # word 12 (block 1, word 4)
        machine.load(a, data)
        machine.load(b, bytes(other))
        res = machine.cc(cc_ops.cc_cmp(a, b, 512))
        assert res.result == (2**64 - 1) & ~(1 << 12)

    def test_search_finds_key_blocks(self, machine, make_bytes):
        data_addr, key_addr = machine.arena.alloc_colocated(512, 2)
        key = make_bytes(64)
        blocks = [make_bytes(64) for _ in range(8)]
        blocks[2] = key
        blocks[5] = key
        machine.load(data_addr, b"".join(blocks))
        machine.load(key_addr, key)
        res = machine.cc(cc_ops.cc_search(data_addr, key_addr, 512))
        assert res.result == (1 << 2) | (1 << 5)

    def test_clmul_matches_reference(self, machine, make_bytes):
        a, b, c = machine.arena.alloc_colocated(512, 3)
        da, db = make_bytes(512), make_bytes(512)
        machine.load(a, da)
        machine.load(b, db)
        res = machine.cc(cc_ops.cc_clmul(a, b, c, 512, lane_bits=64))
        packed = res.result_bytes
        out = int.from_bytes(packed, "little")
        assert len(packed) == 8  # 64 lanes -> 64 bits
        for lane in range(64):
            ca = da[lane * 8 : (lane + 1) * 8]
            cb = db[lane * 8 : (lane + 1) * 8]
            ones = sum(bin(x & y).count("1") for x, y in zip(ca, cb))
            assert bool(out & (1 << lane)) == bool(ones & 1)
        assert machine.peek(c, 8) == packed

    def test_large_multi_page_operand(self, machine, make_bytes):
        """16 KB operands split across pages and still compute exactly."""
        a, b, c = machine.arena.alloc_colocated(8192, 3)
        da, db = make_bytes(8192), make_bytes(8192)
        machine.load(a, da)
        machine.load(b, db)
        res = machine.cc(cc_ops.cc_or(a, b, c, 8192))
        assert res.pieces == 2  # two pages
        assert machine.peek(c, 8192) == (np_bytes(da) | np_bytes(db)).tobytes()


class TestLevelSelection:
    """Compute at the highest level holding all operands, else L3 (IV-E)."""

    def test_uncached_goes_to_l3(self, loaded):
        m, (a, _), (b, _), c = loaded
        res = m.cc(cc_ops.cc_and(a, b, c, 512))
        assert res.level == L3

    def test_l1_resident_goes_to_l1(self, loaded):
        m, (a, _), (b, _), c = loaded
        m.touch_range(a, 512)
        m.touch_range(b, 512)
        m.touch_range(c, 512, for_write=True)
        res = m.cc(cc_ops.cc_and(a, b, c, 512))
        assert res.level == L1
        assert m.peek(c, 512) == (
            np_bytes(m.peek(a, 512)) & np_bytes(m.peek(b, 512))
        ).tobytes()

    def test_l3_resident_goes_to_l3(self, loaded):
        m, (a, _), (b, _), c = loaded
        m.warm_l3(a, 512)
        m.warm_l3(b, 512)
        m.warm_l3(c, 512)
        res = m.cc(cc_ops.cc_and(a, b, c, 512))
        assert res.level == L3

    def test_force_level(self, loaded):
        m, (a, _), (b, _), c = loaded
        m.touch_range(a, 512)
        m.touch_range(b, 512)
        res = m.cc(cc_ops.cc_and(a, b, c, 512), force_level=L2)
        assert res.level == L2

    def test_partial_residency_goes_to_l3(self, loaded):
        m, (a, _), (b, _), c = loaded
        m.touch_range(a, 512)  # only a is in L1
        res = m.cc(cc_ops.cc_and(a, b, c, 512))
        assert res.level == L3


class TestOperandLocalityRouting:
    def test_colocated_operands_run_inplace(self, loaded):
        m, (a, _), (b, _), c = loaded
        res = m.cc(cc_ops.cc_and(a, b, c, 512))
        assert res.inplace_ops == 8 and res.nearplace_ops == 0

    def test_misaligned_operands_fall_back_to_nearplace(self, machine, make_bytes):
        """Operands with different page offsets lack locality -> near-place,
        still functionally exact."""
        a = machine.arena.alloc_page_aligned(PAGE_SIZE)
        b = machine.arena.alloc_page_aligned(PAGE_SIZE)
        c = machine.arena.alloc_page_aligned(PAGE_SIZE)
        da, db = make_bytes(128), make_bytes(128)
        machine.load(a, da)
        machine.load(b + 128, db)  # offset by two blocks
        res = machine.cc(cc_ops.cc_and(a, b + 128, c, 128))
        assert res.nearplace_ops == 2 and res.inplace_ops == 0
        assert machine.peek(c, 128) == (np_bytes(da) & np_bytes(db)).tobytes()

    def test_force_nearplace(self, loaded):
        m, (a, da), _, c = loaded
        res = m.cc(cc_ops.cc_copy(a, c, 512), force_nearplace=True)
        assert res.nearplace_ops == 8
        assert m.peek(c, 512) == da

    def test_single_operand_always_inplace(self, machine, make_bytes):
        addr = machine.arena.alloc(512)  # no special alignment needed
        machine.load(addr, make_bytes(512))
        res = machine.cc(cc_ops.cc_buz(addr, 512))
        assert res.inplace_ops == 8


class TestPinningAndFallback:
    def test_contention_triggers_risc_fallback(self, loaded):
        """After pin_retry_limit failed attempts the op executes as RISC
        operations (Section IV-E starvation avoidance)."""
        m, (a, da), (b, db), c = loaded
        m.controllers[0].contention_hook = lambda addr: True
        res = m.cc(cc_ops.cc_and(a, b, c, 512))
        assert res.risc_ops == 8 and res.inplace_ops == 0
        assert m.controllers[0].stats.risc_fallbacks == 8
        assert m.peek(c, 512) == (np_bytes(da) & np_bytes(db)).tobytes()

    def test_transient_contention_retries(self, loaded):
        m, (a, da), _, c = loaded
        flags = iter([True] + [False] * 10_000)
        m.controllers[0].contention_hook = lambda addr: next(flags)
        res = m.cc(cc_ops.cc_copy(a, c, 512))
        assert res.risc_ops == 0
        assert m.controllers[0].stats.pin_retries >= 1
        assert m.peek(c, 512) == da

    def test_lines_unpinned_after_completion(self, loaded):
        m, (a, _), (b, _), c = loaded
        m.cc(cc_ops.cc_and(a, b, c, 512))
        for addr in (a, b, c):
            for blk in range(addr, addr + 512, BLOCK_SIZE):
                slice_id = m.hierarchy.home_slice(blk, 0)
                assert not m.hierarchy.l3[slice_id].is_pinned(blk)


class TestKeyReplication:
    def test_key_written_once_per_partition(self, machine, make_bytes):
        data_addr, key_addr = machine.arena.alloc_colocated(512, 2)
        machine.load(data_addr, make_bytes(512))
        machine.load(key_addr, make_bytes(64))
        machine.cc(cc_ops.cc_search(data_addr, key_addr, 512))
        stats = machine.controllers[0].stats
        # 8 data blocks in 8 consecutive sets: every one in a distinct
        # partition of the small L3 (8 partitions) -> 8 replications.
        assert stats.key_replications == 8

    def test_same_partition_blocks_share_key(self, machine, make_bytes):
        """Data spanning > num_partitions blocks reuses replicated keys."""
        cfg = machine.config.l3_slice
        assert cfg.num_partitions == 8
        data_addr, key_addr = machine.arena.alloc_colocated(1024, 2)
        machine.load(data_addr, make_bytes(1024))
        machine.load(key_addr, make_bytes(64))
        machine.cc(cc_ops.cc_search(data_addr, key_addr, 1024))
        stats = machine.controllers[0].stats
        # 16 in-place blocks over 8 partitions: one key write each.
        assert stats.block_ops_inplace == 16
        assert stats.key_replications == 8

    def test_each_instruction_replicates_its_key(self, machine, make_bytes):
        """Key rows are tracked per instruction: a repeated search writes
        every partition's key again (Section IV-D)."""
        data_addr, key_addr = machine.arena.alloc_colocated(512, 2)
        machine.load(data_addr, make_bytes(512))
        machine.load(key_addr, make_bytes(64))
        stats = machine.controllers[0].stats
        machine.cc(cc_ops.cc_search(data_addr, key_addr, 512))
        first = stats.key_replications
        machine.cc(cc_ops.cc_search(data_addr, key_addr, 512))
        assert first == 8
        assert stats.key_replications == 2 * first


class TestInstructionStats:
    def test_counts_accumulate(self, loaded):
        m, (a, _), (b, _), c = loaded
        m.cc(cc_ops.cc_and(a, b, c, 512))
        m.cc(cc_ops.cc_copy(a, c, 512))
        stats = m.controllers[0].stats
        assert stats.instructions == 2
        assert stats.block_ops_inplace == 16

    def test_cycles_positive_and_decomposed(self, loaded):
        m, (a, _), (b, _), c = loaded
        res = m.cc(cc_ops.cc_and(a, b, c, 512))
        assert res.cycles > 0
        assert res.cycles >= res.fetch_cycles + res.compute_cycles


class TestPinRetryLimit:
    """Fallback happens after EXACTLY ``pin_retry_limit`` failed pin
    attempts - identically on the batched and the sequential dispatch
    paths (regression for the historical off-by-one where ``limit + 1``
    failures were needed, and for the two paths diverging)."""

    @staticmethod
    def _counting_hook(max_fails):
        calls = {}

        def hook(addr):
            calls[addr] = calls.get(addr, 0) + 1
            return calls[addr] <= max_fails

        return hook, calls

    @pytest.mark.parametrize("force_nearplace", [False, True],
                             ids=["batched", "sequential"])
    def test_fallback_after_exactly_limit_failures(self, machine, make_bytes,
                                                   force_nearplace):
        limit = machine.config.cc.pin_retry_limit
        addr = machine.arena.alloc_page_aligned(512)
        machine.load(addr, make_bytes(512))
        hook, calls = self._counting_hook(limit)
        machine.controllers[0].contention_hook = hook
        res = machine.cc(cc_ops.cc_buz(addr, 512),
                         force_nearplace=force_nearplace)
        stats = machine.controllers[0].stats
        assert res.risc_ops == 8 and stats.risc_fallbacks == 8
        assert stats.pin_retries == 8 * limit
        # Exactly `limit` attempts per block op: the controller never
        # re-pins a (limit+1)-th time before falling back.
        assert max(calls.values()) == limit
        assert stats.fallback_reasons == {"pin-loss": 8}
        assert machine.peek(addr, 512) == bytes(512)  # RISC result exact

    @pytest.mark.parametrize("force_nearplace", [False, True],
                             ids=["batched", "sequential"])
    def test_limit_minus_one_failures_recover(self, machine, make_bytes,
                                              force_nearplace):
        limit = machine.config.cc.pin_retry_limit
        assert limit >= 2, "test needs room for a transient failure"
        addr = machine.arena.alloc_page_aligned(512)
        machine.load(addr, make_bytes(512))
        hook, _ = self._counting_hook(limit - 1)
        machine.controllers[0].contention_hook = hook
        res = machine.cc(cc_ops.cc_buz(addr, 512),
                         force_nearplace=force_nearplace)
        stats = machine.controllers[0].stats
        assert res.risc_ops == 0 and stats.risc_fallbacks == 0
        assert stats.pin_retries == 8 * (limit - 1)
        assert machine.peek(addr, 512) == bytes(512)
