"""Parameter sweeps beyond the paper's fixed 4 KB operating point.

The paper evaluates 4 KB operands on one machine; these sweeps map out the
design space around that point:

* :func:`operand_size_sweep` - where the CC advantage grows/saturates as
  operands scale from one block to the 16 KB ISA limit;
* :func:`partition_parallelism_sweep` - how the number of block partitions
  (sub-arrays) bounds in-place throughput, the crossover that motivates
  hundreds of sub-arrays per LLC;
* :func:`wordline_activation_sweep` - circuit headroom: multi-row
  activation up to the 64-word-line limit Jeloka et al. demonstrated.

The two simulation-backed sweeps (operand size, partition parallelism)
submit their grid through :mod:`repro.bench.runner` — pass ``runner=``
for parallel/cached execution; the analytic sweeps (word-line, NoC) run
inline since each costs microseconds.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..config_io import config_to_dict
from ..errors import ActivationLimitError
from ..params import sandybridge_8core
from ..sram import BitCellArray
from .microbench import _resolve_runner, kernel_point_spec
from .points import measurement_from_point


def operand_size_sweep(kernel: str = "logical",
                       runner=None,
                       backend: str | None = None,
                       seed: int | None = None) -> list[dict[str, float]]:
    """CC-vs-Base_32 gain as a function of operand size, from one block to
    the ISA's 16 KB operand limit."""
    runner = _resolve_runner(runner)
    sizes = (64, 256, 1024, 4096, 16384)
    docs = runner.run([kernel_point_spec(kernel, config, size,
                                         backend=backend, seed=seed)
                       for size in sizes for config in ("base32", "cc")])
    rows = []
    for i, size in enumerate(sizes):
        base = measurement_from_point(docs[2 * i])
        cc = measurement_from_point(docs[2 * i + 1])
        rows.append({
            "size": size,
            "base32_cycles": base.cycles,
            "cc_cycles": cc.cycles,
            "throughput_gain": base.steady_cycles / cc.steady_cycles,
            "dynamic_saving": 1 - cc.dynamic.total() / base.dynamic.total(),
        })
    return rows


def partition_parallelism_sweep(runner=None, backend: str | None = None,
                                seed: int | None = None) -> list[dict[str, float]]:
    """In-place makespan of a 4 KB CC copy vs the number of block
    partitions per L3 bank (1, 2 or 4).

    More partitions = more sub-arrays computing concurrently; with few
    partitions the per-partition serial chain (14 cycles per op) dominates.
    Each machine variant is one runner point whose cache key covers the
    modified config document.
    """
    runner = _resolve_runner(runner)
    variants = []
    for bps in (1, 2, 4):
        base_cfg = sandybridge_8core()
        l3 = replace(base_cfg.l3_slice, bps_per_bank=bps)
        variants.append((bps, l3, replace(base_cfg, l3_slice=l3)))
    docs = runner.run([
        kernel_point_spec("copy", "cc", 4096, machine=config_to_dict(cfg),
                          backend=backend, seed=seed)
        for _, _, cfg in variants
    ])
    rows = []
    for (bps, l3, _), doc in zip(variants, docs):
        cc = measurement_from_point(doc)
        rows.append({
            "bps_per_bank": bps,
            "partitions": l3.num_partitions,
            "cc_compute_cycles": cc.steady_cycles,
            "throughput_bytes_per_cycle": cc.throughput_bytes_per_cycle,
        })
    return rows


def wordline_activation_sweep() -> list[dict[str, object]]:
    """Multi-row AND/NOR correctness up to the activation limit, on a
    512-column array.

    Jeloka et al. measured no corruption up to 64 simultaneous word-lines;
    the model enforces the same limit (:class:`BitCellArray`'s
    ``max_activated``) and this sweep demonstrates both the correct
    algebra below it and the hard stop above it.
    """
    rng = np.random.default_rng(2024)
    arr = BitCellArray(rows=66, cols=512)
    limit = arr.max_activated
    rows_out: list[dict[str, object]] = []
    for n in (2, 4, 8, 16, 32, 64):
        data = rng.integers(0, 2, size=(n, arr.cols)).astype(bool)
        for i in range(n):
            arr.write_row(i, data[i])
        bl, blb = arr.activate(list(range(n)))
        ok = bool(
            (bl == data.all(axis=0)).all() and (blb == ~data.any(axis=0)).all()
        )
        rows_out.append({"rows_activated": n, "algebra_exact": ok})
    over_limit = False
    try:
        arr.activate(list(range(limit + 1)))
    except ActivationLimitError:
        over_limit = True
    rows_out.append({"rows_activated": limit + 1, "algebra_exact": None,
                     "rejected": over_limit})
    return rows_out


def noc_distance_sweep() -> list[dict[str, float]]:
    """Ring energy/latency vs hop distance on the Table IV ring - the
    data-movement term CC eliminates entirely for L3-resident operands."""
    from ..cache.ring import RingInterconnect

    cfg = sandybridge_8core()
    ring = RingInterconnect(cfg.ring)
    rows = []
    for distance in range(cfg.ring.stops // 2 + 1):
        rows.append({
            "hops": distance,
            "block_latency_cycles": ring.latency(0, distance, data=True),
            "block_energy_pj": ring.block_transfer_energy(0, distance),
        })
    return rows
