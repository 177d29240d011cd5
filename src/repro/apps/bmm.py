"""Bit-matrix multiplication over GF(2) (Sections V and VI-B).

``C = A x B`` where element ops are AND/XOR: ``C[i][j] = XOR_k (A[i][k] &
B[k][j])`` - the kernel behind error-correcting codes, cryptography,
bioinformatics, and FFTs, important enough that Cray had a BMM instruction
and x86 has CLMUL.

**Baseline** - the paper's optimized comparator: blocked multiplication
using x86 ``CLMUL``-style instructions.  ``B`` is pre-transposed, so
``C[i][j] = parity(A_row_i & BT_row_j)``; each inner product runs over
128-bit chunks (load + clmul + fold).

**Compute Cache version** - ``BT`` lives packed in the L1 Compute Cache,
two 256-bit rows per 64-byte block.  For each output row, the A-row block
(``[A_row_i | A_row_i]``) is broadcast into each data partition through the
key-table datapath, and one ``cc_clmul256`` instruction produces the entire
C row: each block operation emits two inner-product bits from its
XOR-reduction tree.  One CC instruction replaces ~1500 baseline
instructions, which is where the paper's 98% instruction reduction and
3.2x speedup come from; the matrix reuse (BT read 256 times) is the cache
locality that makes L1 the right home.

Matrices are dense numpy bit arrays; results are verified against a numpy
GF(2) reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.isa import cc_clmul_bcast
from ..cpu.program import Instr
from ..machine import ComputeCacheMachine
from ..params import BLOCK_SIZE
from .common import AppResult, StreamRunner, fresh_machine

ROW_BITS_DEFAULT = 256


@dataclass(frozen=True)
class BMMWorkload:
    """Two n x n bit matrices (n a multiple of 128, up to 512)."""

    n: int
    a: np.ndarray  # (n, n) uint8 of 0/1
    b: np.ndarray

    @property
    def row_bytes(self) -> int:
        return self.n // 8


def make_matrices(seed: int, n: int = ROW_BITS_DEFAULT) -> BMMWorkload:
    if n not in (64, 128, 256):
        raise ValueError(
            "matrix dimension must be 64, 128, or 256 (a cc_clmul lane width)"
        )
    rng = np.random.default_rng(seed)
    return BMMWorkload(
        n=n,
        a=rng.integers(0, 2, size=(n, n), dtype=np.uint8),
        b=rng.integers(0, 2, size=(n, n), dtype=np.uint8),
    )


def reference_bmm(workload: BMMWorkload) -> np.ndarray:
    """GF(2) matrix product via numpy."""
    return (workload.a.astype(np.uint32) @ workload.b.astype(np.uint32) & 1).astype(
        np.uint8
    )


def _pack_row(bits: np.ndarray) -> bytes:
    return np.packbits(bits).tobytes()


def run_bmm_baseline(workload: BMMWorkload,
                     machine: ComputeCacheMachine | None = None) -> AppResult:
    m = machine or fresh_machine()
    n = workload.n
    row_bytes = workload.row_bytes
    bt = workload.b.T.copy()
    a_base = m.arena.alloc_page_aligned(n * row_bytes)
    bt_base = m.arena.alloc_page_aligned(n * row_bytes)
    c_base = m.arena.alloc_page_aligned(n * row_bytes)
    for i in range(n):
        m.load(a_base + i * row_bytes, _pack_row(workload.a[i]))
        m.load(bt_base + i * row_bytes, _pack_row(bt[i]))

    runner = StreamRunner(m, "bmm-base")
    snap = m.snapshot_energy()
    c = np.zeros((n, n), dtype=np.uint8)
    chunks = row_bytes // 16  # 128-bit CLMUL chunks

    for i in range(n):
        # A row loads once per output row (register-resident across j).
        for off in range(0, row_bytes, 16):
            runner.emit(Instr.simd_load(a_base + i * row_bytes + off, 16))
        for j in range(n):
            for off in range(0, row_bytes, 16):
                runner.emit(Instr.simd_load(bt_base + j * row_bytes + off, 16))
                runner.emit(Instr.simd_op())   # pclmulqdq-style AND+fold
            for _ in range(chunks - 1):
                runner.emit(Instr.scalar())    # xor-fold partial products
            runner.emit(Instr.scalar())        # parity extract
            runner.emit(Instr.branch())        # loop
        c[i] = np.bitwise_xor.reduce(bt & workload.a[i], axis=1)
        runner.emit(Instr.store(c_base + i * row_bytes, _pack_row(c[i])))
    return runner.result(
        "bmm", "baseline", m.energy_since(snap), output=c, n=n,
    )


def run_bmm_cc(workload: BMMWorkload,
               machine: ComputeCacheMachine | None = None) -> AppResult:
    m = machine or fresh_machine()
    n = workload.n
    row_bytes = workload.row_bytes
    lanes_per_block = BLOCK_SIZE // row_bytes          # BT rows per block
    blocks = n // lanes_per_block
    bt = workload.b.T.copy()

    bt_packed = m.arena.alloc_page_aligned(blocks * BLOCK_SIZE)
    stage = m.arena.alloc_page_aligned(BLOCK_SIZE)     # broadcast A-row block
    c_base = m.arena.alloc_page_aligned(n * max(row_bytes, 8))
    packed_bt = b"".join(
        b"".join(_pack_row(bt[b * lanes_per_block + lane])
                 for lane in range(lanes_per_block))
        for b in range(blocks)
    )
    m.load(bt_packed, packed_bt)

    runner = StreamRunner(m, "bmm-cc")
    snap = m.snapshot_energy()
    # Keep BT resident in L1 for the whole multiplication (matrix reuse).
    m.touch_range(bt_packed, blocks * BLOCK_SIZE)
    c = np.zeros((n, n), dtype=np.uint8)

    for i in range(n):
        a_block = _pack_row(workload.a[i]) * lanes_per_block
        runner.emit(Instr.store(stage, a_block))       # stage [Arow | Arow]
        res = runner.cc(
            cc_clmul_bcast(bt_packed, stage, c_base + i * row_bytes,
                           blocks * BLOCK_SIZE, lane_bits=workload.n)
        )
        bits = int.from_bytes(res.result_bytes, "little")
        for j in range(n):
            c[i, j] = (bits >> j) & 1
    return runner.result(
        "bmm", "cc", m.energy_since(snap), output=c, n=n,
        cc_instructions=n,
    )


def run_bmm(workload: BMMWorkload, variant: str = "cc",
            machine: ComputeCacheMachine | None = None) -> AppResult:
    """Run one BMM variant ("baseline" or "cc")."""
    if variant == "baseline":
        return run_bmm_baseline(workload, machine)
    if variant == "cc":
        return run_bmm_cc(workload, machine)
    raise ValueError(f"unknown BMM variant {variant!r}")
