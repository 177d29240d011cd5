"""Operand-locality predicate tests (Section IV-C, Table III)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ComputeCacheMachine, cc_ops
from repro.cache.geometry import CacheGeometry
from repro.cache.locality import check_operand_locality, partitions_match
from repro.core.exceptions import split_by_pages
from repro.errors import ISAError, OperandLocalityError
from repro.params import BLOCK_SIZE, PAGE_SIZE, multi_cluster, sandybridge_8core, small_test_machine


@pytest.fixture
def cfg():
    return sandybridge_8core()


class TestPartitionsMatch:
    def test_page_aligned_operands_always_match(self, cfg):
        """The paper's headline software rule: same page offset => operand
        locality at every cache level."""
        for level in (cfg.l1d, cfg.l2, cfg.l3_slice):
            assert partitions_match(3 * PAGE_SIZE + 0x40, 7 * PAGE_SIZE + 0x40, level)

    def test_different_offsets_can_fail(self, cfg):
        # Offsets differing in a bank-select bit land in different banks.
        assert not partitions_match(0x000, 0x040, cfg.l3_slice)

    def test_same_block_partition_within_page(self, cfg):
        """Operands need the same 4 KB *offset*, not separate pages: an
        address and itself + 4 KB-multiple inside a superpage both work."""
        base = 0x10000
        assert partitions_match(base, base + PAGE_SIZE, cfg.l3_slice)

    @given(st.integers(0, 2**30), st.integers(0, 2**30))
    @settings(max_examples=50)
    def test_predicate_equals_geometry(self, a, b):
        """The pure address check agrees with full geometry decoding."""
        cfg = sandybridge_8core().l3_slice
        geo = CacheGeometry(cfg)
        a &= ~63
        b &= ~63
        same_partition = (
            geo.partition_of(a) == geo.partition_of(b)
        )
        assert partitions_match(a, b, cfg) == same_partition


class TestCheckOperandLocality:
    def test_empty_and_single(self, cfg):
        assert check_operand_locality([], cfg.l3_slice)
        assert check_operand_locality([0x1000], cfg.l3_slice)

    def test_group_pass(self, cfg):
        addrs = [i * PAGE_SIZE + 0x80 for i in range(4)]
        assert check_operand_locality(addrs, cfg.l3_slice)

    def test_group_fail_returns_false(self, cfg):
        assert not check_operand_locality([0x0, 0x40], cfg.l3_slice)

    def test_strict_raises_with_details(self, cfg):
        with pytest.raises(OperandLocalityError) as exc:
            check_operand_locality([0x0, 0x40], cfg.l3_slice, strict=True)
        assert "12" in str(exc.value)


MACHINES = {"small": small_test_machine, "sandybridge": sandybridge_8core,
            "multi_cluster": lambda: multi_cluster(2, 2)}
OPCODES = {
    "xor": lambda a, b, d, n: cc_ops.cc_xor(a, b, d, n),
    "copy": lambda a, b, d, n: cc_ops.cc_copy(a, d, n),
    "cmp": lambda a, b, d, n: cc_ops.cc_cmp(a, b, n),
    "clmul": lambda a, b, d, n: cc_ops.cc_clmul(a, b, d, n),
    "search": lambda a, b, d, n: cc_ops.cc_search(a, b, n),
}
BLOCK_ADDRS = st.integers(0, 6 * PAGE_SIZE // BLOCK_SIZE - 1).map(lambda i: i * BLOCK_SIZE)


class TestPlanLocality:
    @given(st.sampled_from(sorted(MACHINES)), st.sampled_from(sorted(OPCODES)),
           BLOCK_ADDRS, BLOCK_ADDRS, BLOCK_ADDRS, st.integers(1, 64),
           st.lists(st.integers(0, 7), min_size=7, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_plan_verdict_holds_for_every_block_op(self, machine, opcode, a, b, dest,
                                                   blocks, slices):
        """A page-local piece's one locality verdict equals the per-op
        check for each of its block ops, at every level, with the pages
        homed on random L3 slices."""
        m = ComputeCacheMachine(MACHINES[machine]())
        try:
            instr = OPCODES[opcode](a, b, dest, blocks * BLOCK_SIZE)
        except ISAError:
            return
        for page, slice_id in enumerate(slices):
            m.hierarchy.place_page(page * PAGE_SIZE, slice_id % m.config.l3_slices)
        ctrl = m.controllers[0]
        for piece in split_by_pages(instr):
            for level in ("L1", "L2", "L3"):
                verdict = ctrl._plan(piece, level).inplace
                for k in range(piece.num_blocks):
                    addrs = [addr + k * BLOCK_SIZE for addr, _ in piece.block_operands()]
                    assert ctrl._locality_holds(addrs, level) == verdict, (piece, level, k)
