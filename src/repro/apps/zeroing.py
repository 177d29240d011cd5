"""Bulk zeroing (Section V): ``cc_buz`` as a memory-safety primitive.

"Our copy primitive can also be employed in bulk zeroing which is an
important primitive required for memory safety [20]."  Managed runtimes
(the paper cites Yang et al., *Why Nothing Matters: The Impact of
Zeroing*) zero every allocated object; kernels zero pages handed to user
space.  This application models an allocator that must zero freshly-served
regions:

* **Baseline** - ``memset``-style loops (scalar 8-byte or SIMD 32-byte
  stores of zero);
* **Compute Cache** - one ``cc_buz`` per region: the data latch is reset
  and driven onto the bit-lines, zeroing a block per sub-array cycle with
  no core stores, no write-allocate fetches (the destination is fully
  overwritten), and no cache pollution.

Zeroed regions are verified to actually read as zero through the coherent
hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.isa import cc_buz
from ..cpu.program import Instr, Program
from ..machine import ComputeCacheMachine
from ..params import BLOCK_SIZE, PAGE_SIZE
from .common import AppResult, StreamRunner, fresh_machine


@dataclass(frozen=True)
class ZeroingWorkload:
    """An allocation trace: sizes of regions the allocator must zero."""

    region_sizes: tuple[int, ...]

    @property
    def total_bytes(self) -> int:
        return sum(self.region_sizes)


def make_allocation_trace(seed: int, n_regions: int = 32,
                          max_blocks: int = 64) -> ZeroingWorkload:
    """Object/page-sized allocations of 1 to ``max_blocks`` blocks,
    log-uniform like real heaps."""
    rng = np.random.default_rng(seed)
    log_hi = np.log(max_blocks + 1)
    sizes = tuple(
        int(np.exp(rng.uniform(0.0, log_hi))) * BLOCK_SIZE
        for _ in range(n_regions)
    )
    return ZeroingWorkload(region_sizes=sizes)


def _stage_regions(m: ComputeCacheMachine, workload: ZeroingWorkload,
                   rng: np.random.Generator) -> list[int]:
    """Dirty regions (freed memory still holds old data)."""
    addrs = []
    for size in workload.region_sizes:
        addr = m.arena.alloc(size, align=BLOCK_SIZE)
        m.load(addr, rng.integers(1, 256, size, dtype=np.uint8).tobytes())
        addrs.append(addr)
    return addrs


def run_zeroing_baseline(workload: ZeroingWorkload, simd: bool = True,
                         machine: ComputeCacheMachine | None = None,
                         seed: int = 17) -> AppResult:
    m = machine or fresh_machine()
    rng = np.random.default_rng(seed)
    addrs = _stage_regions(m, workload, rng)
    runner = StreamRunner(m, "zeroing-base")
    snap = m.snapshot_energy()
    step = 32 if simd else 8
    for addr, size in zip(addrs, workload.region_sizes):
        for off in range(0, size, step):
            if simd:
                runner.emit(Instr.simd_store(addr + off, bytes(step)))
            else:
                runner.emit(Instr.store(addr + off, bytes(step)))
            runner.emit(Instr.scalar())
            runner.emit(Instr.branch())
    runner.flush()
    for addr, size in zip(addrs, workload.region_sizes):
        assert m.peek(addr, size) == bytes(size)
    return runner.result(
        "zeroing", "base32" if simd else "base", m.energy_since(snap),
        output=len(addrs), bytes_zeroed=workload.total_bytes,
    )


def run_zeroing_cc(workload: ZeroingWorkload,
                   machine: ComputeCacheMachine | None = None,
                   seed: int = 17) -> AppResult:
    m = machine or fresh_machine()
    rng = np.random.default_rng(seed)
    addrs = _stage_regions(m, workload, rng)
    runner = StreamRunner(m, "zeroing-cc", chunk=1 << 30)
    snap = m.snapshot_energy()
    for addr, size in zip(addrs, workload.region_sizes):
        # cc_buz takes regions up to 16 KB; larger ones chunk.
        for off in range(0, size, 16 * 1024):
            piece = min(16 * 1024, size - off)
            runner.emit(Instr.cc_op(cc_buz(addr + off, piece)))
    runner.flush()
    for addr, size in zip(addrs, workload.region_sizes):
        assert m.peek(addr, size) == bytes(size)
    return runner.result(
        "zeroing", "cc", m.energy_since(snap),
        output=len(addrs), bytes_zeroed=workload.total_bytes,
    )


def run_zeroing(workload: ZeroingWorkload, variant: str = "cc",
                machine: ComputeCacheMachine | None = None) -> AppResult:
    """Run one bulk-zeroing variant ("base", "base32", or "cc")."""
    if variant == "base":
        return run_zeroing_baseline(workload, simd=False, machine=machine)
    if variant == "base32":
        return run_zeroing_baseline(workload, simd=True, machine=machine)
    if variant == "cc":
        return run_zeroing_cc(workload, machine=machine)
    raise ValueError(f"unknown zeroing variant {variant!r}")


def page_zero_cost(variant: str) -> tuple[float, float]:
    """(cycles, nJ) to zero one fresh 4 KB page - the fork/mmap number."""
    m = fresh_machine()
    addr = m.arena.alloc_page_aligned(PAGE_SIZE)
    snap = m.snapshot_energy()
    if variant == "cc":
        res = m.run(Program("z", [Instr.cc_op(cc_buz(addr, PAGE_SIZE))]))
    else:
        step = 32 if variant == "base32" else 8
        prog = Program("z")
        for off in range(0, PAGE_SIZE, step):
            prog.append(Instr.simd_store(addr + off, bytes(step)) if step == 32
                        else Instr.store(addr + off, bytes(step)))
            prog.append(Instr.scalar())
            prog.append(Instr.branch())
        res = m.run(prog)
    return res.cycles, m.energy_since(snap).total_nj()
