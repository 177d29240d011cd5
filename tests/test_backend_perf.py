"""Performance contract of the packed fast-path backend (pytest-benchmark).

The packed backend exists to make simulation fast; this file pins the
speedup so a regression that silently falls back to per-bit circuit
evaluation fails loudly.

* At the backend layer - ``op_batch`` of each backend's sub-array class
  (:data:`repro.sram.SUBARRAYS`) over a 16 KB cc_xor's worth of row
  operations - packed must be **>= 5x** faster than bit-exact (in practice
  it is orders of magnitude faster).
* Machine-level end-to-end 16 KB cc_xor timings are *recorded* for both
  backends (no ratio assert there: the simulated controller's tag/LRU/
  coherence bookkeeping is backend-invariant by design and dominates the
  machine-level wall clock).  Each run also records, in the benchmark's
  ``extra_info``, the best machine-level time, the best packed 16 KB
  ``op_batch`` time and their ratio: the controller's overhead over the
  kernel, which the project aims to keep within 5x.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.params import BACKENDS, BLOCK_SIZE, small_test_machine
from repro.sram import SUBARRAYS

KB16 = 16 * 1024
BLOCKS = KB16 // BLOCK_SIZE  # 256 row operations = one 16 KB cc_xor
ROWS_A = list(range(BLOCKS))
ROWS_B = list(range(BLOCKS, 2 * BLOCKS))
ROWS_DEST = list(range(2 * BLOCKS, 3 * BLOCKS))


def _subarray(backend: str):
    sub = SUBARRAYS[backend](3 * BLOCKS, BLOCK_SIZE * 8)
    rng = np.random.default_rng(42)
    for row in (*ROWS_A, *ROWS_B):
        sub.write_block(row, rng.integers(0, 256, BLOCK_SIZE,
                                          dtype=np.uint8).tobytes())
    return sub


def _batch(sub):
    return sub.op_batch("xor", ROWS_A, ROWS_B, ROWS_DEST)


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_packed_5x_faster_at_backend_layer():
    """The headline ratio: 16 KB of xor row ops, packed vs bit-exact."""
    subs = {be: _subarray(be) for be in BACKENDS}
    # Warm up and check the backends agree before timing them.
    results = {be: _batch(sub) for be, sub in subs.items()}
    assert results["bitexact"] == results["packed"]
    t_bitexact = _best_of(lambda: _batch(subs["bitexact"]))
    t_packed = _best_of(lambda: _batch(subs["packed"]))
    ratio = t_bitexact / t_packed
    print(f"\nop_batch 16KB xor: bitexact {t_bitexact * 1e3:.2f} ms, "
          f"packed {t_packed * 1e3:.2f} ms, speedup {ratio:.1f}x")
    assert ratio >= 5.0, (
        f"packed backend only {ratio:.1f}x faster than bit-exact "
        f"({t_packed * 1e3:.2f} ms vs {t_bitexact * 1e3:.2f} ms)"
    )
    # Timing must not have perturbed the accounting: the same statistics
    # on both backends.
    assert subs["bitexact"].stats == subs["packed"].stats


@pytest.mark.parametrize("backend", BACKENDS)
def test_benchmark_opbatch_16kb_xor(benchmark, backend):
    """Record the backend-layer batch time for both backends."""
    sub = _subarray(backend)
    benchmark(_batch, sub)


@pytest.mark.parametrize("backend", BACKENDS)
def test_benchmark_machine_16kb_cc_xor(benchmark, backend):
    """Record the end-to-end machine time for both backends, and its ratio
    to one packed 16 KB ``op_batch`` (no timing assert: controller
    bookkeeping dominates and is backend-invariant)."""
    m = ComputeCacheMachine(small_test_machine(), backend=backend)
    a, b, c = m.arena.alloc_colocated(KB16, 3)
    rng = np.random.default_rng(7)
    m.load(a, rng.integers(0, 256, KB16, dtype=np.uint8).tobytes())
    m.load(b, rng.integers(0, 256, KB16, dtype=np.uint8).tobytes())
    instr = cc_ops.cc_xor(a, b, c, KB16)
    result = benchmark.pedantic(lambda: m.cc(instr), rounds=3,
                                warmup_rounds=1, iterations=1)
    assert result.result_bytes == b"" and result.pieces == KB16 // 4096
    machine_s = _best_of(lambda: m.cc(instr), repeats=3)
    packed = _subarray("packed")
    op_batch_s = _best_of(lambda: _batch(packed))
    benchmark.extra_info.update(
        machine_ms=machine_s * 1e3, packed_op_batch_ms=op_batch_s * 1e3,
        machine_over_op_batch=machine_s / op_batch_s)
