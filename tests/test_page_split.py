"""Page-span exception handler tests (Section IV-D)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import MIXED_LEVEL
from repro.core.exceptions import split_by_pages
from repro.core.isa import cc_and, cc_buz, cc_copy, cc_search
from repro.params import BLOCK_SIZE, PAGE_SIZE


class TestSplitByPages:
    def test_no_split_needed(self):
        instr = cc_copy(0x1000, 0x3000, 4096)
        assert split_by_pages(instr) == [instr]

    def test_single_crossing(self):
        instr = cc_copy(PAGE_SIZE - 128, 3 * PAGE_SIZE - 128, 256)
        pieces = split_by_pages(instr)
        assert len(pieces) == 2
        assert [p.size for p in pieces] == [128, 128]
        for piece in pieces:
            assert not piece.spans_page_boundary()

    def test_misaligned_operands_multiple_cuts(self):
        """Operands at different page offsets need cuts from both."""
        instr = cc_and(PAGE_SIZE - 192, 2 * PAGE_SIZE - 64, 4 * PAGE_SIZE, 256)
        pieces = split_by_pages(instr)
        assert sum(p.size for p in pieces) == 256
        for piece in pieces:
            assert not piece.spans_page_boundary()

    def test_search_key_kept_intact(self):
        instr = cc_search(PAGE_SIZE - 256, 8 * PAGE_SIZE, 512)
        pieces = split_by_pages(instr)
        assert len(pieces) == 2
        assert all(p.src2 == 8 * PAGE_SIZE for p in pieces)

    @given(
        st.integers(0, 4 * PAGE_SIZE // BLOCK_SIZE - 1),
        st.integers(0, 4 * PAGE_SIZE // BLOCK_SIZE - 1),
        st.integers(1, 64),
    )
    @settings(max_examples=60)
    def test_pieces_reassemble(self, src_blk, dst_blk, blocks):
        src = src_blk * BLOCK_SIZE
        dst = 16 * PAGE_SIZE + dst_blk * BLOCK_SIZE
        size = blocks * BLOCK_SIZE
        instr = cc_copy(src, dst, size)
        pieces = split_by_pages(instr)
        assert sum(p.size for p in pieces) == size
        cursor_src, cursor_dst = src, dst
        for piece in pieces:
            assert piece.src1 == cursor_src
            assert piece.dest == cursor_dst
            assert not piece.spans_page_boundary()
            cursor_src += piece.size
            cursor_dst += piece.size


class TestMixedLevelReport:
    """A page-split instruction whose pieces compute at different cache
    levels must report level="mixed", not whichever piece ran last."""

    def test_pieces_at_different_levels_report_mixed(self, machine):
        base = machine.arena.alloc_page_aligned(2 * PAGE_SIZE)
        lo = base + PAGE_SIZE - BLOCK_SIZE   # last block of page 0
        hi = base + PAGE_SIZE                # first block of page 1
        machine.touch_range(lo, BLOCK_SIZE)  # piece 1 resident in L1
        machine.warm_l3(hi, BLOCK_SIZE)      # piece 2 resident in L3 only
        res = machine.cc(cc_buz(lo, 2 * BLOCK_SIZE))
        assert res.pieces == 2
        assert res.level == MIXED_LEVEL

    def test_pieces_at_one_level_report_that_level(self, machine):
        base = machine.arena.alloc_page_aligned(2 * PAGE_SIZE)
        lo = base + PAGE_SIZE - BLOCK_SIZE
        machine.warm_l3(lo, 2 * BLOCK_SIZE)
        res = machine.cc(cc_buz(lo, 2 * BLOCK_SIZE))
        assert res.pieces == 2
        assert res.level == "L3"
