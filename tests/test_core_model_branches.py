"""Core-model branch coverage: CC overlap accounting, fences, flags."""

import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.cpu.program import Instr, InstrKind, Program
from repro.errors import ReproError
from repro.params import small_test_machine


@pytest.fixture
def m():
    return ComputeCacheMachine(small_test_machine())


def _staged_pair(m, make_bytes, size=512):
    a, c = m.arena.alloc_colocated(size, 2)
    m.load(a, make_bytes(size))
    m.warm_l3(a, size)
    m.warm_l3(c, size)
    return a, c


class TestCCOverlap:
    def test_independent_work_hides_cc_latency(self, m, make_bytes):
        """A CC instruction followed by ALU work: the ALU work runs during
        the CC operation, so total < sum of parts."""
        a, c = _staged_pair(m, make_bytes)
        cc_only = m.run(Program("cc", [Instr.cc_op(cc_ops.cc_copy(a, c, 512))]))
        alu_count = int(cc_only.cycles) * 2  # more ALU work than CC latency
        m2 = ComputeCacheMachine(small_test_machine())
        a2, c2 = _staged_pair(m2, make_bytes)
        mixed = m2.run(Program("mix",
                               [Instr.cc_op(cc_ops.cc_copy(a2, c2, 512))]
                               + [Instr.scalar()] * alu_count))
        assert mixed.cycles < cc_only.cycles + alu_count
        assert mixed.cycles >= alu_count  # the ALU stream itself

    def test_back_to_back_cc_pipelines(self, m, make_bytes):
        """N identical CC instructions cost far less than N x one, because
        only controller occupancy serializes."""
        a, c = _staged_pair(m, make_bytes)
        one = m.run(Program("one", [Instr.cc_op(cc_ops.cc_copy(a, c, 512))]))
        m2 = ComputeCacheMachine(small_test_machine())
        a2, c2 = _staged_pair(m2, make_bytes)
        four = m2.run(Program("four",
                              [Instr.cc_op(cc_ops.cc_copy(a2, c2, 512))
                               for _ in range(4)]))
        assert four.cycles < 4 * one.cycles

    def test_fence_waits_for_cc_completion(self, m, make_bytes):
        a, c = _staged_pair(m, make_bytes)
        unfenced = m.run(Program("u", [Instr.cc_op(cc_ops.cc_copy(a, c, 512))]))
        m2 = ComputeCacheMachine(small_test_machine())
        a2, c2 = _staged_pair(m2, make_bytes)
        fenced = m2.run(Program("f", [Instr.cc_op(cc_ops.cc_copy(a2, c2, 512)),
                                      Instr.fence(),
                                      Instr.scalar()]))
        # The fence exposes the CC latency before the scalar issues.
        assert fenced.cycles >= unfenced.cycles + 1
        assert fenced.fences == 1


class TestInstructionFlags:
    def test_dependent_load_slower_than_parallel(self, m, make_bytes):
        addrs = [m.arena.alloc_page_aligned(64) for _ in range(8)]
        for addr in addrs:
            m.load(addr, make_bytes(64))
        parallel = m.run(Program("p", [Instr.load(a) for a in addrs]))
        m2 = ComputeCacheMachine(small_test_machine())
        addrs2 = [m2.arena.alloc_page_aligned(64) for _ in range(8)]
        for addr in addrs2:
            m2.load(addr, make_bytes(64))
        chained = m2.run(Program("c", [Instr.load(a, dependent=True)
                                       for a in addrs2]))
        assert chained.cycles > parallel.cycles

    def test_streaming_load_free_of_stall(self, m, make_bytes):
        addr = m.arena.alloc_page_aligned(64)
        m.load(addr, make_bytes(64))
        res = m.run(Program("s", [Instr.load(addr, 64, streaming=True)]))
        assert res.stall_cycles == 0
        assert res.cycles == 1

    def test_streaming_still_moves_data(self, m, make_bytes):
        addr = m.arena.alloc_page_aligned(64)
        data = make_bytes(64)
        m.load(addr, data)
        m.run(Program("s", [Instr.load(addr, 64, streaming=True)]))
        assert m.hierarchy.l1[0].contains(addr)  # the fill happened


class TestErrorBranches:
    def test_store_without_payload(self, m):
        bad = Program("bad", [Instr(kind=InstrKind.STORE, addr=0, size=8)])
        with pytest.raises(ReproError):
            m.run(bad)

    def test_cc_without_payload(self, m):
        bad = Program("bad", [Instr(kind=InstrKind.CC)])
        with pytest.raises(ReproError):
            m.run(bad)

    def test_unknown_alu_op(self, m, make_bytes):
        addr = m.arena.alloc_page_aligned(64)
        m.load(addr, make_bytes(64))
        bad = Program("bad", [
            Instr.load(addr, 8),
            Instr(kind=InstrKind.STORE, addr=addr, size=8,
                  src_addr=addr, src2_addr=addr, alu="nand"),
        ])
        with pytest.raises(ReproError):
            m.run(bad)


class TestRunResultMetrics:
    def test_counts_by_kind(self, m, make_bytes):
        addr = m.arena.alloc_page_aligned(64)
        m.load(addr, make_bytes(64))
        res = m.run(Program("p", [
            Instr.scalar(), Instr.branch(), Instr.simd_op(),
            Instr.load(addr, 8), Instr.store(addr, b"\x01" * 8),
        ]))
        assert res.scalar_ops == 2  # scalar + branch
        assert res.simd_ops == 1
        assert res.loads == 1 and res.stores == 1
