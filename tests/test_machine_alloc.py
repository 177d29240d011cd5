"""Machine facade and arena allocator tests."""

import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.alloc import Arena
from repro.cache.block import MESIState
from repro.cache.locality import check_operand_locality
from repro.cpu.program import Instr, Program
from repro.errors import AddressError, ReproError
from repro.params import BLOCK_SIZE, PAGE_SIZE, sandybridge_8core


class TestArena:
    def test_block_alignment_default(self):
        arena = Arena(1 << 20)
        addr = arena.alloc(100)
        assert addr % 64 == 0

    def test_page_aligned(self):
        arena = Arena(1 << 20)
        arena.alloc(100)
        addr = arena.alloc_page_aligned(100)
        assert addr % PAGE_SIZE == 0

    def test_colocated_share_offset(self):
        arena = Arena(1 << 20)
        addrs = arena.alloc_colocated(6000, 3)
        assert len({a % PAGE_SIZE for a in addrs}) == 1
        # And they do not overlap.
        spans = sorted((a, a + 6000) for a in addrs)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end

    def test_colocated_satisfy_all_levels(self):
        cfg = sandybridge_8core()
        arena = Arena(1 << 22)
        addrs = arena.alloc_colocated(4096, 3)
        for level in (cfg.l1d, cfg.l2, cfg.l3_slice):
            assert check_operand_locality(addrs, level)

    def test_exhaustion(self):
        arena = Arena(PAGE_SIZE)
        with pytest.raises(AddressError):
            arena.alloc(2 * PAGE_SIZE)

    def test_bad_args(self):
        arena = Arena(1 << 20)
        with pytest.raises(AddressError):
            arena.alloc(0)
        with pytest.raises(AddressError):
            arena.alloc(64, align=100)
        with pytest.raises(AddressError):
            arena.alloc_colocated(64, 0)

    def test_superpage_colocated_groups(self):
        """Section IV-C: within a superpage, 12-bit alignment suffices."""
        arena = Arena(8 << 20)
        sp = arena.alloc_superpage(2 << 20)
        addrs = sp.alloc_colocated(4096, 3)
        cfg = sandybridge_8core()
        for level in (cfg.l1d, cfg.l2, cfg.l3_slice):
            assert check_operand_locality(addrs, level)
        # All inside the one superpage.
        for addr in addrs:
            assert sp.base <= addr < sp.base + (2 << 20)

    def test_superpage_overflow_rejected(self):
        arena = Arena(8 << 20)
        sp = arena.alloc_superpage(16 * PAGE_SIZE)
        with pytest.raises(AddressError):
            sp.alloc_colocated(PAGE_SIZE, 32)

    def test_superpage_size_validation(self):
        arena = Arena(1 << 20)
        with pytest.raises(AddressError):
            arena.alloc_superpage(5000)


class TestMachineFacade:
    def test_load_peek_round_trip(self, machine, make_bytes):
        addr = machine.arena.alloc(256)
        data = make_bytes(256)
        machine.load(addr, data)
        assert machine.peek(addr, 256) == data

    def test_load_into_cached_block_rejected(self, machine, make_bytes):
        addr = machine.arena.alloc(64)
        machine.load(addr, make_bytes(64))
        machine.read(addr, 8)  # now cached
        with pytest.raises(AddressError):
            machine.load(addr, make_bytes(64))

    def test_write_read_through_caches(self, machine, make_bytes):
        addr = machine.arena.alloc(64)
        data = make_bytes(32)
        machine.write(addr, data)
        assert machine.read(addr, 32) == data

    def test_energy_snapshot_delta(self, machine, make_bytes):
        addr = machine.arena.alloc(64)
        machine.load(addr, make_bytes(64))
        snap = machine.snapshot_energy()
        machine.read(addr, 8)
        delta = machine.energy_since(snap)
        assert delta.total() > 0
        assert machine.ledger.total() >= delta.total()

    def test_total_energy_includes_static(self, machine):
        total = machine.total_energy(machine.snapshot_energy(), cycles=10_000)
        assert total.core_static > 0
        assert total.uncore_static > 0

    def test_touch_and_warm(self, machine, make_bytes):
        addr = machine.arena.alloc_page_aligned(256)
        machine.load(addr, make_bytes(256))
        machine.touch_range(addr, 256)
        assert machine.hierarchy.l1[0].contains(addr)
        machine.warm_l3(addr, 256)
        assert not machine.hierarchy.l1[0].contains(addr)
        slice_id = machine.hierarchy.home_slice(addr, 0)
        assert machine.hierarchy.l3[slice_id].contains(addr)

    def test_warm_l3_keeps_the_freshest_private_copy(self, machine):
        """With the block dirty in both private levels, L1's newer data
        (not L2's older copy) is what reaches L3."""
        h = machine.hierarchy
        block = machine.arena.alloc_page_aligned(PAGE_SIZE)
        l1_stride = h.l1[0].config.sets * BLOCK_SIZE
        machine.write(block, b"\x01" * BLOCK_SIZE)
        for i in range(1, h.l1[0].config.ways + 1):  # push it out of the L1
            machine.read(block + i * l1_stride, 8)
        assert not h.l1[0].contains(block)
        assert h.l2[0].state_of(block) is MESIState.MODIFIED
        assert machine.read(block, 8) == b"\x01" * 8
        assert h.l1[0].state_of(block) is MESIState.MODIFIED
        machine.write(block, b"\x02" * BLOCK_SIZE)
        machine.warm_l3(block, BLOCK_SIZE)
        assert not h.l1[0].contains(block) and not h.l2[0].contains(block)
        assert machine.peek(block, BLOCK_SIZE) == b"\x02" * BLOCK_SIZE

    def test_quickstart_docstring_example(self):
        """The module-docstring example must actually work."""
        m = ComputeCacheMachine()
        a, b, c = m.arena.alloc_colocated(4096, 3)
        m.load(a, bytes(4096))
        m.load(b, b"\xff" * 4096)
        res = m.cc(cc_ops.cc_or(a, b, c, 4096))
        assert res.used_inplace
        assert m.peek(c, 4096) == b"\xff" * 4096

    def test_multi_core_controllers_independent(self, machine, make_bytes):
        a0, c0 = machine.arena.alloc_colocated(128, 2)
        machine.load(a0, make_bytes(128))
        res0 = machine.cc(cc_ops.cc_copy(a0, c0, 128), core=0)
        res1 = machine.cc(cc_ops.cc_copy(a0, c0, 128), core=1)
        assert res0.cycles > 0 and res1.cycles > 0
        assert machine.controllers[0].stats.instructions == 1
        assert machine.controllers[1].stats.instructions == 1

    @pytest.mark.parametrize("past_end", [False, True], ids=["-1", "cores"])
    @pytest.mark.parametrize("method", ["cc", "cc_stream", "run", "read",
                                        "write", "touch_range", "warm_l3"])
    def test_core_out_of_range_rejected(self, machine, method, past_end):
        """A core index outside ``range(cores)`` is a ReproError naming the
        index and the core count, raised before any cache state changes
        (a negative index must not reach the per-core lists)."""
        cores = machine.config.cores
        core = cores if past_end else -1
        a, c = machine.arena.alloc_colocated(128, 2)
        copy = cc_ops.cc_copy(a, c, 128)
        call = {
            "cc": lambda: machine.cc(copy, core=core),
            "cc_stream": lambda: machine.cc_stream([copy], core=core),
            "run": lambda: machine.run(Program("p", [Instr.cc_op(copy)]), core=core),
            "read": lambda: machine.read(a, 8, core=core),
            "write": lambda: machine.write(a, b"\x01" * 8, core=core),
            "touch_range": lambda: machine.touch_range(a, 128, core=core),
            "warm_l3": lambda: machine.warm_l3(a, 128, core=core),
        }[method]
        with pytest.raises(ReproError, match=rf"core {core} .*{cores} cores"):
            call()
        slice_id = machine.hierarchy.home_slice(a, 0)
        assert machine.hierarchy.directory[slice_id].peek(a) is None
