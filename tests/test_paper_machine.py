"""Integration tests on the full Table IV machine (heavier; a handful)."""

import numpy as np
import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.params import BLOCK_SIZE, sandybridge_8core


@pytest.fixture(scope="module")
def paper():
    return ComputeCacheMachine(sandybridge_8core())


class TestPaperMachineGeometry:
    def test_subarray_inventory(self, paper):
        """Section II-A: a 2 MB L3 slice has 64 sub-arrays across 16 banks;
        the 16 MB L3 totals 512 sub-arrays supporting 8 KB operands."""
        slice_cfg = paper.config.l3_slice
        assert slice_cfg.num_partitions == 64
        total_subarrays = slice_cfg.num_partitions * paper.config.l3_slices
        assert total_subarrays == 512
        assert total_subarrays * 64 == 32 * 1024  # bytes operable in parallel

    def test_physical_rows_match_capacity(self, paper):
        for level in (paper.hierarchy.l1[0], paper.hierarchy.l2[0],
                      paper.hierarchy.l3[0]):
            cfg = level.config
            data_rows = sum(
                sub.rows - 1 for sub in level.geometry.subarrays  # minus key row
            )
            assert data_rows * BLOCK_SIZE == cfg.size


class TestPaperMachineEndToEnd:
    def test_8kb_operands_full_width(self, paper, make_bytes):
        """An 8 KB cc_xor exercises two pages' worth of blocks across the
        full slice geometry."""
        a, b, c = paper.arena.alloc_colocated(8192, 3)
        da, db = make_bytes(8192), make_bytes(8192)
        paper.load(a, da)
        paper.load(b, db)
        res = paper.cc(cc_ops.cc_xor(a, b, c, 8192))
        assert res.pieces == 2
        assert res.inplace_ops == 128
        expected = (np.frombuffer(da, np.uint8) ^ np.frombuffer(db, np.uint8)).tobytes()
        assert paper.peek(c, 8192) == expected

    def test_max_operand_16kb(self, paper, make_bytes):
        a, c = paper.arena.alloc_colocated(16 * 1024, 2)
        data = make_bytes(16 * 1024)
        paper.load(a, data)
        res = paper.cc(cc_ops.cc_copy(a, c, 16 * 1024))
        assert res.inplace_ops == 256
        assert paper.peek(c, 16 * 1024) == data

    def test_eight_cores_independent_controllers(self, paper, make_bytes):
        for core in range(paper.config.cores):
            a, c = paper.arena.alloc_colocated(256, 2)
            data = make_bytes(256)
            paper.load(a, data)
            res = paper.cc(cc_ops.cc_copy(a, c, 256), core=core)
            assert res.used_inplace
            assert paper.peek(c, 256) == data
        # Every core's controller saw (at least) its own instruction; the
        # module-scoped machine means core 0 accumulated earlier tests' too.
        assert all(
            ctrl.stats.instructions >= 1 for ctrl in paper.controllers
        )

    def test_nuca_pages_follow_first_toucher(self, paper, make_bytes):
        addr = paper.arena.alloc_page_aligned(64)
        paper.load(addr, make_bytes(64))
        paper.read(addr, 8, core=5)
        assert paper.hierarchy.home_slice(addr) == 5

    def test_invariants_after_all_of_the_above(self, paper):
        paper.hierarchy.check_inclusion()
        paper.hierarchy.check_single_writer()
