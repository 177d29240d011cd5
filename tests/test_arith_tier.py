"""Bit-serial arithmetic tier: transpose accounting and the QDNN app.

The transpose-unit regressions pin the Neural Cache amortization story:
layout conversion is charged exactly once per layout change — repeated
arithmetic over converted operands is free, and only a conventional write
(which reverts blocks to row-major) makes the next arithmetic use pay
again.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.apps import qdnn
from repro.core.transpose import TRANSPOSE_MLP, TransposeUnit
from repro.params import BLOCK_SIZE, small_test_machine


def payload(seed: int, n: int) -> bytes:
    return np.random.default_rng(seed).integers(
        0, 256, n, dtype=np.uint8).tobytes()


class TestTransposeUnit:
    def test_convert_charges_once(self):
        t = TransposeUnit(transpose_latency=8)
        blocks, cycles = t.convert([(0, 4 * BLOCK_SIZE)])
        assert (blocks, cycles) == (4, 8.0)
        assert t.convert([(0, 4 * BLOCK_SIZE)]) == (0, 0.0)

    def test_makespan_waves(self):
        t = TransposeUnit(transpose_latency=8)
        n = 2 * TRANSPOSE_MLP + 1  # 3 waves
        _, cycles = t.convert([(0, n * BLOCK_SIZE)])
        assert cycles == 24.0

    def test_invalidate_recharges(self):
        t = TransposeUnit()
        t.convert([(0, 2 * BLOCK_SIZE)])
        t.invalidate(BLOCK_SIZE)  # one block reverts to row-major
        assert t.convert([(0, 2 * BLOCK_SIZE)]) == (1, 8.0)

    def test_mark_bit_serial_is_free(self):
        t = TransposeUnit()
        t.mark_bit_serial(0, 2 * BLOCK_SIZE)
        assert t.convert([(0, 2 * BLOCK_SIZE)]) == (0, 0.0)


class TestTransposeAccounting:
    """Machine-level: conversion cycles/energy charged once per layout
    change, re-charged only after a conventional write."""

    def setup_method(self):
        self.m = ComputeCacheMachine(small_test_machine())
        self.size = 4 * BLOCK_SIZE
        self.a, self.b, self.c = self.m.arena.alloc_colocated(self.size, 3)
        self.m.load(self.a, payload(1, self.size))
        self.m.load(self.b, payload(2, self.size))

    def stats(self):
        s = self.m.controllers[0].stats
        return s.transpose_blocks, s.transpose_cycles

    def test_charged_once_then_free(self):
        first = self.m.cc(cc_ops.cc_add(self.a, self.b, self.c, self.size,
                                        elem_bits=16))
        assert self.stats() == (8, 8.0)  # 4 blocks x 2 sources, one wave
        again = self.m.cc(cc_ops.cc_add(self.a, self.b, self.c, self.size,
                                        elem_bits=16))
        assert self.stats() == (8, 8.0)  # nothing new charged
        # Net of operand-fetch warming, the only timing difference is the
        # one-off conversion makespan.
        assert ((first.cycles - first.fetch_cycles)
                - (again.cycles - again.fetch_cycles)) == 8.0

    def test_dest_joins_bit_serial_set_free(self):
        self.m.cc(cc_ops.cc_mul(self.a, self.b, self.c, self.size,
                                elem_bits=8))
        blocks_before, _ = self.stats()
        # c was produced bit-serial: using it as a source charges nothing.
        self.m.cc(cc_ops.cc_add(self.a, self.c, self.c, self.size,
                                elem_bits=8))
        assert self.stats()[0] == blocks_before

    def test_conventional_write_recharges(self):
        self.m.cc(cc_ops.cc_add(self.a, self.b, self.c, self.size,
                                elem_bits=16))
        self.m.write(self.a, bytes(BLOCK_SIZE))  # reverts one block
        self.m.cc(cc_ops.cc_add(self.a, self.b, self.c, self.size,
                                elem_bits=16))
        assert self.stats() == (9, 16.0)  # exactly one extra block + wave

    def test_nonarith_cc_dest_recharges(self):
        self.m.cc(cc_ops.cc_reduce(self.a, self.size, elem_bits=32))
        assert self.stats() == (4, 8.0)
        self.m.cc(cc_ops.cc_copy(self.b, self.a, BLOCK_SIZE))
        self.m.cc(cc_ops.cc_reduce(self.a, self.size, elem_bits=32))
        assert self.stats() == (5, 16.0)

    def test_clmul_result_store_recharges_every_written_block(self):
        """A 16 KB cc_clmul in 64-bit lanes stores 256 result bytes (4
        blocks) over a bit-serial cc_add destination: all 4 blocks revert
        to row-major, so the next cc_add over them converts 4 blocks."""
        self.m.cc(cc_ops.cc_add(self.a, self.b, self.c, self.size,
                                elem_bits=8))
        x, y = self.m.arena.alloc_colocated(16 * 1024, 2)
        self.m.load(x, payload(3, 16 * 1024))
        self.m.load(y, payload(4, 16 * 1024))
        res = self.m.cc(cc_ops.cc_clmul(x, y, self.c, 16 * 1024, lane_bits=64))
        assert len(res.result_bytes) == self.size
        blocks_before, _ = self.stats()
        self.m.cc(cc_ops.cc_add(self.c, self.b, self.a, self.size,
                                elem_bits=8))
        assert self.stats()[0] - blocks_before == 4

    def test_other_core_cc_dest_recharges(self):
        """One tracker per machine: core 1's cc_copy into a bit-serial
        cc_add destination reverts it for core 0 too, so core 0's next
        cc_add over it converts its 4 blocks."""
        d, x = self.m.arena.alloc_colocated(self.size, 2)
        self.m.load(x, payload(3, self.size))
        self.m.cc(cc_ops.cc_add(self.a, self.b, self.c, self.size), core=0)
        self.m.cc(cc_ops.cc_copy(x, self.c, self.size), core=1)
        blocks_before, _ = self.stats()
        self.m.cc(cc_ops.cc_add(self.c, self.b, d, self.size), core=0)
        assert self.stats()[0] - blocks_before == 4
        assert all(c.transpose is self.m.hierarchy.transpose
                   for c in self.m.controllers)

    def test_transpose_energy_hits_ledger(self):
        before = self.m.ledger.copy()
        self.m.cc(cc_ops.cc_add(self.a, self.b, self.c, self.size,
                                elem_bits=8))
        first = self.m.energy_since(before).total_nj()
        before = self.m.ledger.copy()
        self.m.cc(cc_ops.cc_add(self.a, self.b, self.c, self.size,
                                elem_bits=8))
        second = self.m.energy_since(before).total_nj()
        assert first > second > 0


class TestQDNNApp:
    def test_outputs_match_reference_and_each_other(self):
        w = qdnn.make_network(7, h=10, w=10, n_out=3)
        ref = qdnn.reference_qdnn(w)
        base = qdnn.run_qdnn(w, "baseline")
        cc = qdnn.run_qdnn(w, "cc")
        assert np.array_equal(base.output, ref["logits"])
        assert np.array_equal(cc.output, ref["logits"])
        assert cc.instructions < base.instructions
        assert cc.stats["transpose_blocks"] > 0

    def test_unknown_variant_rejected(self):
        w = qdnn.make_network(7, h=8, w=8, n_out=2)
        with pytest.raises(ValueError):
            qdnn.run_qdnn(w, "gpu")

    def test_tiny_plane_rejected(self):
        with pytest.raises(ValueError):
            qdnn.make_network(7, h=2, w=2)

    def test_bench_qdnn_comparison(self):
        from repro.bench.appbench import bench_qdnn

        comp = bench_qdnn(h=12, w=12, n_out=3)
        assert comp.outputs_match
        assert comp.speedup > 1
        assert comp.instruction_reduction > 0.9
        assert comp.baseline_total_nj > 0 and comp.cc_total_nj > 0

    def test_qdnn_point_is_plain_data(self):
        import json

        from repro.bench.points import app_point

        doc = app_point("qdnn", scale=0.5)
        json.dumps(doc)  # JSON-serializable, like every point result
        assert doc["app"] == "qdnn"
        assert doc["outputs_match"] is True
        assert doc["speedup"] > 1
