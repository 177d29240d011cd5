"""STREAM-style bandwidth workloads over the multi-cluster topology.

The classic STREAM suite (McCalpin) - ``copy``, ``scale``, ``add``,
``triad`` - plus ``gather``/``scatter`` irregular-access variants, run as
*real* programs on every core of a machine at once:

* **scalar** - Base_32 SIMD instruction streams through
  :class:`~repro.cpu.multicore.MulticoreRunner`, one private array set per
  core, so the cores contend for the shared sliced L3 and (on a
  multi-cluster :class:`~repro.params.TopologyConfig`) pay inter-cluster
  hops for remotely-homed pages;
* **cc** - the same kernels lowered to Compute Cache instructions
  (``cc_copy`` for copy, bit-serial ``cc_mul``/``cc_add`` in 32-bit lanes
  for scale/add/triad), which execute inside the L3 slices and replace
  per-block data movement with one control round-trip per operand page.

Every run is verified element-exact against a numpy reference, and the
four STREAM kernels obey an analytic traffic model: with arrays warmed
into L3 and streamed once, the bytes filled into L1-D equal exactly
``{copy,scale: 2, add,triad: 3} x N`` per core
(:func:`stream_traffic_bytes`, pinned by ``tests/test_streambw.py``).

``placement`` chooses the NUMA experiment: ``"local"`` homes each core's
arrays on its own ring stop; ``"hub"`` homes *all* pages on cluster 0's
slices, so scaling the cluster count drives the scalar variant into the
bandwidth wall while CC-in-L3 latency stays flat - the crossover the
``repro bench streambw`` sweep measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.isa import cc_add, cc_copy, cc_mul
from ..cpu.multicore import MulticoreResult, MulticoreRunner
from ..cpu.program import Instr, Program
from ..errors import AddressError, DataCorruptionError
from ..machine import ComputeCacheMachine
from ..params import BLOCK_SIZE, PAGE_SIZE
from .common import AppResult

STREAM_KERNELS = ("copy", "scale", "add", "triad")
"""The four classic STREAM kernels (CC-lowerable, analytic traffic model)."""

KERNELS = STREAM_KERNELS + ("gather", "scatter")
"""All bandwidth kernels; gather/scatter are scalar-only (irregular
accesses have no page-granular CC lowering)."""

SCALE_K = 2654435761
"""The ``scale``/``triad`` multiplier (Knuth's odd constant; arithmetic is
mod 2^32 in both the numpy reference and the bit-serial CC lanes)."""

ELEM_BITS = 32
"""STREAM elements are 32-bit unsigned lanes."""

GRANULE = 32
"""Bytes per scalar-variant SIMD load/store (Base_32)."""

_ELEM = 4  # bytes per uint32 element

#: Read+write streams per kernel, in units of one array length N
#: (McCalpin's counting: write-allocate traffic for the stored array is
#: folded into its single stream because the arrays start L3-resident).
STREAM_FACTORS = {"copy": 2, "scale": 2, "add": 3, "triad": 3,
                  "gather": 3, "scatter": 3}


@dataclass(frozen=True)
class StreamBuffers:
    """One core's array set (page-aligned, mutually page-offset-colocated)."""

    a: int
    b: int
    c: int
    k: int      # SCALE_K broadcast plane (CC scale/triad operand)
    t: int      # temporary plane (CC triad intermediate)
    idx: int    # permutation indices (gather/scatter)
    nbytes: int


def stream_traffic_bytes(kernel: str, words: int) -> int:
    """Analytic bytes moved per core for one kernel pass.

    For the four STREAM kernels this is exact at block granularity:
    every source array is read once and every destination array is
    write-allocated once, all from L3 (``tests/test_streambw.py`` asserts
    the traced L1-D fill bytes equal this number).  For gather/scatter it
    counts the index stream plus one read and one write stream; actual
    block traffic depends on the permutation's locality.
    """
    if kernel not in KERNELS:
        raise ValueError(f"unknown stream kernel {kernel!r}")
    return STREAM_FACTORS[kernel] * words * _ELEM


def scalar_instructions_per_granule(kernel: str) -> int:
    """Instruction count per 32-byte granule of the scalar variant (the
    issue-bound term of the scalar roofline)."""
    return {"copy": 4, "scale": 5, "add": 6, "triad": 7,
            "gather": 5 * (GRANULE // _ELEM),
            "scatter": 5 * (GRANULE // _ELEM)}[kernel]


def _references(kernel: str, a, b, c, idx):
    """Numpy-exact expected contents of (dest_name, dest_array)."""
    k = np.uint32(SCALE_K)
    if kernel == "copy":
        return "c", a.copy()
    if kernel == "scale":
        return "b", (c * k).astype(np.uint32)
    if kernel == "add":
        return "c", (a + b).astype(np.uint32)
    if kernel == "triad":
        return "a", (b + c * k).astype(np.uint32)
    if kernel == "gather":
        return "b", a[idx].copy()
    if kernel == "scatter":
        out = np.zeros_like(a)
        out[idx] = a
        return "b", out
    raise ValueError(f"unknown stream kernel {kernel!r}")


# -- program generation ----------------------------------------------------------------


def _overhead(prog: Program) -> None:
    prog.append(Instr.scalar())
    prog.append(Instr.branch())


def scalar_program(kernel: str, bufs: StreamBuffers, ref: np.ndarray,
                   idx: np.ndarray, core: int) -> Program:
    """The Base_32 instruction stream of one kernel pass on one core.

    Stores carry literal numpy-exact result bytes (the core's SIMD ALU
    model only tracks timing for arithmetic), so memory ends bit-identical
    to the reference while every load/store moves real blocks.
    """
    prog = Program(f"streambw-{kernel}-scalar@{core}")
    n = bufs.nbytes
    ref_bytes = ref.tobytes()
    if kernel == "copy":
        for off in range(0, n, GRANULE):
            prog.append(Instr.simd_load(bufs.a + off, GRANULE))
            prog.append(Instr.simd_store_copy(bufs.c + off, bufs.a + off, GRANULE))
            _overhead(prog)
    elif kernel == "scale":
        for off in range(0, n, GRANULE):
            prog.append(Instr.simd_load(bufs.c + off, GRANULE))
            prog.append(Instr.simd_op())  # vpmulld
            prog.append(Instr.simd_store(bufs.b + off, ref_bytes[off:off + GRANULE]))
            _overhead(prog)
    elif kernel == "add":
        for off in range(0, n, GRANULE):
            prog.append(Instr.simd_load(bufs.a + off, GRANULE))
            prog.append(Instr.simd_load(bufs.b + off, GRANULE))
            prog.append(Instr.simd_op())  # vpaddd
            prog.append(Instr.simd_store(bufs.c + off, ref_bytes[off:off + GRANULE]))
            _overhead(prog)
    elif kernel == "triad":
        for off in range(0, n, GRANULE):
            prog.append(Instr.simd_load(bufs.b + off, GRANULE))
            prog.append(Instr.simd_load(bufs.c + off, GRANULE))
            prog.append(Instr.simd_op())  # vpmulld
            prog.append(Instr.simd_op())  # vpaddd
            prog.append(Instr.simd_store(bufs.a + off, ref_bytes[off:off + GRANULE]))
            _overhead(prog)
    elif kernel == "gather":
        for i in range(len(idx)):
            prog.append(Instr.load(bufs.idx + _ELEM * i, _ELEM, streaming=True))
            prog.append(Instr.load(bufs.a + _ELEM * int(idx[i]), _ELEM,
                                   dependent=True))
            prog.append(Instr.store(bufs.b + _ELEM * i,
                                    ref_bytes[_ELEM * i:_ELEM * (i + 1)]))
            _overhead(prog)
    elif kernel == "scatter":
        for i in range(len(idx)):
            prog.append(Instr.load(bufs.idx + _ELEM * i, _ELEM, streaming=True))
            prog.append(Instr.load(bufs.a + _ELEM * i, _ELEM, streaming=True))
            dest = _ELEM * int(idx[i])
            prog.append(Instr.store(bufs.b + dest,
                                    ref_bytes[dest:dest + _ELEM]))
            _overhead(prog)
    else:
        raise ValueError(f"unknown stream kernel {kernel!r}")
    return prog


def cc_program(kernel: str, bufs: StreamBuffers, core: int) -> Program:
    """One kernel pass lowered to page-granular CC instructions."""
    if kernel not in STREAM_KERNELS:
        raise ValueError(f"kernel {kernel!r} has no CC lowering")
    prog = Program(f"streambw-{kernel}-cc@{core}")
    for off in range(0, bufs.nbytes, PAGE_SIZE):
        size = min(PAGE_SIZE, bufs.nbytes - off)
        if kernel == "copy":
            prog.append(Instr.cc_op(cc_copy(bufs.a + off, bufs.c + off, size)))
        elif kernel == "scale":
            prog.append(Instr.cc_op(
                cc_mul(bufs.c + off, bufs.k + off, bufs.b + off, size, ELEM_BITS)))
        elif kernel == "add":
            prog.append(Instr.cc_op(
                cc_add(bufs.a + off, bufs.b + off, bufs.c + off, size, ELEM_BITS)))
        else:  # triad: t = k * c, then a = b + t
            prog.append(Instr.cc_op(
                cc_mul(bufs.c + off, bufs.k + off, bufs.t + off, size, ELEM_BITS)))
            prog.append(Instr.cc_op(
                cc_add(bufs.b + off, bufs.t + off, bufs.a + off, size, ELEM_BITS)))
    return prog


# -- machine staging -------------------------------------------------------------------


def _hub_slices(machine: ComputeCacheMachine) -> list[int]:
    """Cluster 0's L3 slices (the hub of the ``"hub"`` placement).

    Falls back to all slices on a plain flat ring (the sweep's 1-cluster
    equivalence check runs the workload on an unclustered interconnect).
    """
    spc = getattr(machine.hierarchy.ring, "stops_per_cluster",
                  machine.config.ring.stops)
    return list(range(spc))


def stage_workload(machine: ComputeCacheMachine, kernel: str, words: int,
                   seed: int, placement: str) -> tuple[list[StreamBuffers],
                                                       list[dict[str, np.ndarray]]]:
    """Allocate, place, backdoor-load, and L3-warm every core's arrays.

    Returns per-core buffers and per-core input arrays.  Pages are homed
    *before* any traffic so the placement policy (not first touch)
    decides NUMA homes: ``"local"`` puts a core's pages on its own ring
    stop, ``"hub"`` round-robins every page over cluster 0's slices.
    """
    if words <= 0 or (words * _ELEM) % BLOCK_SIZE:
        raise AddressError(
            f"words={words} must make arrays a positive multiple of "
            f"{BLOCK_SIZE} bytes"
        )
    if placement not in ("local", "hub"):
        raise ValueError(f"unknown placement {placement!r}")
    config = machine.config
    nbytes = words * _ELEM
    hub = _hub_slices(machine)
    all_bufs: list[StreamBuffers] = []
    all_arrays: list[dict[str, np.ndarray]] = []
    for core in range(config.cores):
        addrs = machine.arena.alloc_colocated(nbytes, 6)
        bufs = StreamBuffers(*addrs, nbytes=nbytes)
        rng = np.random.default_rng([seed, core])
        arrays = {
            "a": rng.integers(0, 1 << 32, words, dtype=np.uint32),
            "b": rng.integers(0, 1 << 32, words, dtype=np.uint32),
            "c": rng.integers(0, 1 << 32, words, dtype=np.uint32),
            "k": np.full(words, SCALE_K, dtype=np.uint32),
            "idx": rng.permutation(words).astype(np.uint32),
        }
        # Home every page first (placement beats first touch), then load.
        for i, addr in enumerate(addrs):
            for page_no, page in enumerate(range(addr, addr + nbytes, PAGE_SIZE)):
                if placement == "hub":
                    machine.place_page(page, hub[(core + i + page_no) % len(hub)])
                else:
                    machine.place_page(page, core % config.ring.stops)
        for name, addr in (("a", bufs.a), ("b", bufs.b), ("c", bufs.c),
                           ("k", bufs.k), ("idx", bufs.idx)):
            machine.load(addr, arrays[name].tobytes())
        for addr in _warm_set(kernel, bufs):
            machine.warm_l3(addr, nbytes, core=core)
        all_bufs.append(bufs)
        all_arrays.append(arrays)
    return all_bufs, all_arrays


def _warm_set(kernel: str, bufs: StreamBuffers) -> tuple[int, ...]:
    """Arrays a kernel touches (sources and write-allocated destinations);
    the CC triad temporary is excluded - it is fully overwritten and CC
    destination fills skip the fetch."""
    return {
        "copy": (bufs.a, bufs.c),
        "scale": (bufs.c, bufs.b, bufs.k),
        "add": (bufs.a, bufs.b, bufs.c),
        "triad": (bufs.b, bufs.c, bufs.a, bufs.k),
        "gather": (bufs.idx, bufs.a, bufs.b),
        "scatter": (bufs.idx, bufs.a, bufs.b),
    }[kernel]


def measured_fill_bytes(machine: ComputeCacheMachine, level: str = "L1-D") -> int:
    """Bytes filled into ``level`` since the tracer was last cleared."""
    if machine.tracer is None:
        raise ValueError("machine has no event tracer")
    return BLOCK_SIZE * sum(
        1 for e in machine.tracer.events
        if e.kind == "cache.fill" and e.level == level
    )


# -- the measured run ------------------------------------------------------------------


def run_streambw(kernel: str, machine: ComputeCacheMachine, *,
                 variant: str = "scalar", words: int = 4096,
                 placement: str = "local", seed: int = 107,
                 chunk: int = 64) -> AppResult:
    """One verified bandwidth measurement on every core of ``machine``.

    Stages per-core array sets (:func:`stage_workload`), runs the kernel
    on all cores through :class:`MulticoreRunner`, verifies every core's
    destination array against the numpy reference, and reports aggregate
    bandwidth as analytic-bytes / makespan.  The machine must be fresh
    (clean arena and caches).
    """
    if kernel not in KERNELS:
        raise ValueError(f"unknown stream kernel {kernel!r}")
    if variant not in ("scalar", "cc"):
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "cc" and kernel not in STREAM_KERNELS:
        raise ValueError(f"kernel {kernel!r} has no CC lowering")
    config = machine.config
    all_bufs, all_arrays = stage_workload(machine, kernel, words, seed, placement)

    refs = []
    programs: dict[int, Program] = {}
    for core in range(config.cores):
        arrays, bufs = all_arrays[core], all_bufs[core]
        dest_name, ref = _references(kernel, arrays["a"], arrays["b"],
                                     arrays["c"], arrays["idx"])
        refs.append((dest_name, ref))
        if variant == "scalar":
            programs[core] = scalar_program(kernel, bufs, ref,
                                            arrays["idx"], core)
        else:
            programs[core] = cc_program(kernel, bufs, core)

    if machine.tracer is not None:
        machine.tracer.clear()  # staging traffic is not part of the measurement
    before = machine.snapshot_energy()
    result: MulticoreResult = MulticoreRunner(machine, chunk=chunk).run(programs)
    energy = machine.energy_since(before)

    for core in range(config.cores):
        dest_name, ref = refs[core]
        dest = getattr(all_bufs[core], dest_name)
        got = machine.peek(dest, all_bufs[core].nbytes)
        if got != ref.tobytes():
            raise DataCorruptionError(
                f"streambw {kernel}/{variant} mismatch on core {core}"
            )

    per_core_bytes = stream_traffic_bytes(kernel, words)
    total_bytes = per_core_bytes * config.cores
    makespan = result.makespan
    topology = config.topology
    stats = {
        "kernel": kernel,
        "variant": variant,
        "words": words,
        "placement": placement,
        "clusters": topology.clusters,
        "cores": config.cores,
        "makespan": makespan,
        "bytes": total_bytes,
        "bytes_per_cycle": total_bytes / makespan if makespan else 0.0,
        "aggregate_ipc": result.aggregate_ipc,
        "verified": True,
    }
    for cluster, span in result.cluster_makespans(
            topology.clusters, config.cores // topology.clusters).items():
        stats[f"cluster{cluster}_makespan"] = span
    if machine.tracer is not None:
        stats["l1_fill_bytes"] = measured_fill_bytes(machine)
        topo_stats = getattr(machine.hierarchy.ring, "topo_stats", None)
        stats["topo_hops"] = (topo_stats.inter_flit_hops
                              if topo_stats is not None else 0)
    return AppResult(
        app="streambw", variant=f"{kernel}-{variant}", cycles=makespan,
        instructions=result.total_instructions, energy=energy,
        output=None, stats=stats,
    )
