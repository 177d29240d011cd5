"""Tests: machine-wide stats, the 8T cell variant, and CC on several cores."""

import numpy as np
import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.errors import DataCorruptionError
from repro.params import small_test_machine
from repro.sram import BitCellArray, CellType
from repro.stats import collect_stats, format_stats


class TestStatsCollection:
    @pytest.fixture
    def busy_machine(self, make_bytes):
        m = ComputeCacheMachine(small_test_machine())
        a, b, c = m.arena.alloc_colocated(512, 3)
        m.load(a, make_bytes(512))
        m.load(b, make_bytes(512))
        m.cc(cc_ops.cc_and(a, b, c, 512))
        m.read(a, 64)
        return m

    def test_snapshot_counts(self, busy_machine):
        snap = collect_stats(busy_machine)
        assert snap.cc_instructions == 1
        assert snap.cc_inplace_ops == 8
        assert snap.cc_risc_ops == 0
        assert snap.memory_reads > 0
        assert snap.dynamic_energy_nj > 0
        assert snap.levels["L3"].subarray_compute_ops >= 8

    def test_hit_rate(self, busy_machine):
        busy_machine.read(0x0, 8)
        busy_machine.read(0x0, 8)  # second read hits L1
        snap = collect_stats(busy_machine)
        assert 0.0 < snap.levels["L1"].hit_rate <= 1.0

    def test_format_is_readable(self, busy_machine):
        text = format_stats(collect_stats(busy_machine))
        assert "Machine statistics" in text
        assert "L3:" in text
        assert "CC: 1 instructions" in text
        assert "dynamic energy" in text

    def test_breakdown_components(self, busy_machine):
        snap = collect_stats(busy_machine)
        assert set(snap.energy_breakdown_nj) == {
            "core", "cache-access", "cache-ic", "noc"
        }


class TestEightTCell:
    def _rows(self, pattern):
        return np.array([c == "1" for c in pattern], dtype=bool)

    def test_8t_immune_to_full_swing_disturb(self):
        """The footnote-1 variant: differential read-disturb-resilient 8T
        cells survive multi-row activation even without word-line
        underdrive - where 6T cells corrupt."""
        for cell_type, should_corrupt in ((CellType.SIX_T, True),
                                          (CellType.EIGHT_T, False)):
            arr = BitCellArray(4, 4, wordline_underdrive=False,
                               cell_type=cell_type)
            arr.write_row(0, self._rows("1100"))
            arr.write_row(1, self._rows("1010"))
            if should_corrupt:
                with pytest.raises(DataCorruptionError):
                    arr.activate([0, 1])
            else:
                bl, blb = arr.activate([0, 1])
                assert (bl == self._rows("1000")).all()
                assert (arr.read_row(0) == self._rows("1100")).all()
                assert (arr.read_row(1) == self._rows("1010")).all()

    def test_8t_algebra_identical(self):
        a6 = BitCellArray(2, 8, cell_type=CellType.SIX_T)
        a8 = BitCellArray(2, 8, cell_type=CellType.EIGHT_T)
        for arr in (a6, a8):
            arr.write_row(0, self._rows("11001010"))
            arr.write_row(1, self._rows("10101100"))
        assert (a6.activate([0, 1])[0] == a8.activate([0, 1])[0]).all()

    def test_only_8t_is_read_disturb_immune(self):
        assert CellType.EIGHT_T.read_disturb_immune
        assert not CellType.SIX_T.read_disturb_immune


class TestMultiCoreCC:
    """CC operations from multiple cores interacting through coherence."""

    def test_two_cores_cc_on_disjoint_data(self, make_bytes):
        m = ComputeCacheMachine(small_test_machine())
        a0, b0, c0 = m.arena.alloc_colocated(256, 3)
        a1, b1, c1 = m.arena.alloc_colocated(256, 3)
        d = [make_bytes(256) for _ in range(4)]
        m.load(a0, d[0]); m.load(b0, d[1]); m.load(a1, d[2]); m.load(b1, d[3])
        m.cc(cc_ops.cc_and(a0, b0, c0, 256), core=0)
        m.cc(cc_ops.cc_or(a1, b1, c1, 256), core=1)
        na = np.frombuffer(d[0], np.uint8) & np.frombuffer(d[1], np.uint8)
        nb = np.frombuffer(d[2], np.uint8) | np.frombuffer(d[3], np.uint8)
        assert m.peek(c0, 256) == na.tobytes()
        assert m.peek(c1, 256) == nb.tobytes()
        m.hierarchy.check_inclusion()
        m.hierarchy.check_single_writer()

    def test_cc_sees_other_cores_dirty_data(self, make_bytes):
        """Core 1 writes a; core 0's CC op must consume the dirty data
        (writeback through the existing coherence machinery, IV-F)."""
        m = ComputeCacheMachine(small_test_machine())
        a, c = m.arena.alloc_colocated(256, 2)
        m.load(a, make_bytes(256))
        fresh = make_bytes(256)
        m.write(a, fresh, core=1)  # dirty in core 1's private caches
        m.cc(cc_ops.cc_copy(a, c, 256), core=0)
        assert m.peek(c, 256) == fresh
        m.hierarchy.check_single_writer()

    def test_core_read_after_cc_write(self, make_bytes):
        """A CC destination is visible to every core's subsequent loads."""
        m = ComputeCacheMachine(small_test_machine())
        a, c = m.arena.alloc_colocated(256, 2)
        data = make_bytes(256)
        m.load(a, data)
        m.cc(cc_ops.cc_copy(a, c, 256), core=0)
        assert m.read(c, 256, core=1) == data

    def test_interleaved_cc_and_stores(self, make_bytes):
        """Stores racing with CC ops on the same buffer resolve through
        coherence: the final CC copy sees the latest store."""
        m = ComputeCacheMachine(small_test_machine())
        a, c = m.arena.alloc_colocated(256, 2)
        m.load(a, make_bytes(256))
        for i in range(4):
            m.write(a + i * 64, bytes([i + 1]) * 64, core=i % 2)
            m.cc(cc_ops.cc_copy(a, c, 256), core=(i + 1) % 2)
        expected = b"".join(bytes([i + 1]) * 64 for i in range(4))
        assert m.peek(c, 256) == expected
        m.hierarchy.check_inclusion()
