"""Micro-benchmark harness: copy / compare / search / logical (Section VI-D).

Reproduces Figures 3, 7(a-c) and 8(a-b), and Tables I, III and V.

Methodology (matching the paper's): operands are 4 KB, resident in L3
(`CC_L3`), and each kernel is also run with 32-byte SIMD (`Base_32`) and -
for Figure 3 - a scalar core.  Throughput for the CC configurations uses
the steady-state bottleneck (back-to-back independent CC instructions
overlap: the shared command bus and sub-array occupancy limit the pipeline,
while per-instruction decode/notify overheads amortize away); baseline
throughput uses measured end-to-end cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import isa
from ..cpu import simd
from ..cpu.program import Program
from ..energy.accounting import Component, EnergyLedger
from ..energy.tables import (
    CACHE_ACCESS_ENERGY_PJ,
    CACHE_IC_ENERGY_PJ,
    CC_OP_ENERGY_PJ,
)
from ..machine import ComputeCacheMachine
from ..params import BLOCK_SIZE, MachineConfig, sandybridge_8core, validate_table3
from .points import measurement_from_point
from .runner import Point, PointRunner

KERNELS = ("copy", "compare", "search", "logical")
OPERAND_BYTES = 4096


def _resolve_runner(runner: PointRunner | None) -> PointRunner:
    """Default runner: serial, uncached — same behavior as the historical
    inline loops.  Pass an explicit :class:`~repro.bench.runner.PointRunner`
    (the CLI does) for parallelism and cached results."""
    return runner if runner is not None else PointRunner()


def kernel_point_spec(kernel: str, config: str, size: int,
                      level: str = "L3",
                      machine: dict | None = None,
                      backend: str | None = None,
                      seed: int | None = None) -> Point:
    """The :class:`~repro.bench.runner.Point` descriptor for one
    (kernel, configuration) micro-benchmark cell.

    ``backend`` and ``seed`` enter the kwargs only when overridden, so
    default-run cache keys are unchanged by their existence.
    """
    kwargs: dict = {"kernel": kernel, "config": config, "size": size,
                    "level": level}
    if machine is not None:
        kwargs["machine"] = machine
    if backend is not None:
        kwargs["backend"] = backend
    if seed is not None:
        kwargs["seed"] = seed
    return Point("kernel", kwargs,
                 label=f"{kernel}/{config}@{level}/{size}B")


@dataclass
class KernelMeasurement:
    """One (kernel, configuration) measurement."""

    kernel: str
    config: str
    cycles: float
    steady_cycles: float
    instructions: int
    dynamic: EnergyLedger
    total_energy_nj: float = 0.0
    bytes_processed: int = OPERAND_BYTES

    @property
    def throughput_bytes_per_cycle(self) -> float:
        return self.bytes_processed / self.steady_cycles


def _stage_operands(m: ComputeCacheMachine, count: int, size: int,
                    seed: int = 42) -> list[int]:
    rng = np.random.default_rng(seed)
    addrs = m.arena.alloc_colocated(size, count)
    for addr in addrs:
        m.load(addr, rng.integers(0, 256, size, dtype=np.uint8).tobytes())
    for addr in addrs:
        m.warm_l3(addr, size)
    return addrs


def _baseline_program(kernel: str, a: int, b: int, c: int, size: int) -> Program:
    if kernel == "copy":
        return simd.simd_copy(a, c, size)
    if kernel == "compare":
        return simd.simd_compare(a, b, size)
    if kernel == "search":
        return simd.simd_search(a, b, size)
    if kernel == "logical":
        return simd.simd_or(a, b, c, size)
    raise ValueError(f"unknown kernel {kernel!r}")


def _scalar_program(kernel: str, a: int, b: int, c: int, size: int) -> Program:
    if kernel == "copy":
        return simd.scalar_copy(a, c, size)
    if kernel == "compare":
        return simd.scalar_compare(a, b, size)
    if kernel == "search":
        return simd.scalar_search(a, b, size)
    if kernel == "logical":
        return simd.scalar_or(a, b, c, size)
    raise ValueError(f"unknown kernel {kernel!r}")


def _cc_instruction(kernel: str, a: int, b: int, c: int, size: int):
    if kernel == "copy":
        return isa.cc_copy(a, c, size)
    if kernel == "compare":
        # cc_cmp is capped at 512 B per instruction; issue a burst.
        return [isa.cc_cmp(a + off, b + off, 512) for off in range(0, size, 512)]
    if kernel == "search":
        return isa.cc_search(a, b, size)
    if kernel == "logical":
        return isa.cc_or(a, b, c, size)
    raise ValueError(f"unknown kernel {kernel!r}")


def run_kernel(kernel: str, config: str, size: int = OPERAND_BYTES,
               level: str = "L3",
               machine_config: MachineConfig | None = None,
               backend: str | None = None,
               seed: int = 42) -> KernelMeasurement:
    """Measure one kernel in one configuration.

    ``config`` is one of ``scalar``, ``base32``, ``cc`` (in-place) or
    ``cc_near`` (forced near-place).  ``level`` places the operands at L1,
    L2, or L3 before measuring (Figure 8(b)).  ``backend`` overrides the
    execution backend; ``seed`` drives the operand-staging data.
    """
    m = ComputeCacheMachine(machine_config or sandybridge_8core(),
                            backend=backend)
    a, b, c = _stage_operands(m, 3, size, seed=seed)
    if level in ("L1", "L2"):
        for addr in (a, b, c):
            m.touch_range(addr, size, for_write=(addr == c))
        if level == "L2":
            for addr in (a, b, c):
                for block in range(addr, addr + size, 64):
                    m.hierarchy.cc_prepare(0, "L2", block, is_dest=False)
    snap = m.snapshot_energy()

    if config == "scalar":
        res = m.run(_scalar_program(kernel, a, b, c, size))
        cycles = steady = res.cycles
        instructions = res.instructions
    elif config == "base32":
        res = m.run(_baseline_program(kernel, a, b, c, size))
        cycles = steady = res.cycles
        instructions = res.instructions
    elif config in ("cc", "cc_near"):
        instrs = _cc_instruction(kernel, a, b, c, size)
        if not isinstance(instrs, list):
            instrs = [instrs]
        force_near = config == "cc_near"
        results = [
            m.cc(ins, force_level=level if level != "L3" else None,
                 force_nearplace=force_near)
            for ins in instrs
        ]
        cycles = sum(r.cycles for r in results)
        # Steady state: independent CC instructions pipeline; the command
        # bus / sub-array occupancy (compute phase) is the bottleneck.
        steady = max(sum(r.compute_cycles for r in results), 1.0)
        instructions = len(instrs)
        m.ledger.add("core", instructions * m.config.core.epi_cc)
    else:
        raise ValueError(f"unknown configuration {config!r}")

    dyn = m.energy_since(snap)
    total = m.total_energy(dyn, cycles)
    return KernelMeasurement(
        kernel=kernel, config=config, cycles=cycles, steady_cycles=steady,
        instructions=instructions, dynamic=dyn,
        total_energy_nj=total.total, bytes_processed=size,
    )


# -- Figure 7: throughput + dynamic + total energy, Base_32 vs CC_L3 ------------------


def figure7(size: int = OPERAND_BYTES,
            runner: PointRunner | None = None,
            backend: str | None = None,
            seed: int | None = None) -> dict[str, dict[str, KernelMeasurement]]:
    """All four kernels in Base_32 and CC_L3 (Figures 7a, 7b, 7c)."""
    runner = _resolve_runner(runner)
    cells = [(kernel, config) for kernel in KERNELS
             for config in ("base32", "cc")]
    docs = runner.run([kernel_point_spec(k, c, size, backend=backend, seed=seed)
                       for k, c in cells])
    out: dict[str, dict[str, KernelMeasurement]] = {}
    for (kernel, config), doc in zip(cells, docs):
        out.setdefault(kernel, {})[config] = measurement_from_point(doc)
    return out


def figure7_summary(results: dict[str, dict[str, KernelMeasurement]]) -> dict[str, float]:
    """Headline numbers: mean throughput gain and dynamic-energy saving."""
    gains, savings = [], []
    for kernel in KERNELS:
        base, cc = results[kernel]["base32"], results[kernel]["cc"]
        gains.append(base.steady_cycles / cc.steady_cycles)
        savings.append(1 - cc.dynamic.total() / base.dynamic.total())
    return {
        "mean_throughput_gain": float(np.mean(gains)),
        "mean_dynamic_saving": float(np.mean(savings)),
        "min_throughput_gain": float(min(gains)),
        "mean_total_energy_ratio": float(np.mean([
            results[k]["base32"].total_energy_nj / results[k]["cc"].total_energy_nj
            for k in KERNELS
        ])),
    }


# -- Figure 8(a): in-place vs near-place -----------------------------------------------


def figure8a_inplace_vs_nearplace(size: int = OPERAND_BYTES,
                                  runner: PointRunner | None = None,
                                  backend: str | None = None,
                                  seed: int | None = None,
                                  ) -> dict[str, dict[str, KernelMeasurement]]:
    runner = _resolve_runner(runner)
    cells = [(kernel, config) for kernel in KERNELS
             for config in ("cc", "cc_near")]
    docs = runner.run([kernel_point_spec(k, c, size, backend=backend, seed=seed)
                       for k, c in cells])
    out: dict[str, dict[str, KernelMeasurement]] = {}
    for (kernel, config), doc in zip(cells, docs):
        key = "inplace" if config == "cc" else "nearplace"
        out.setdefault(kernel, {})[key] = measurement_from_point(doc)
    return out


# -- Figure 8(b): savings by compute level ----------------------------------------------


def figure8b_levels(size: int = OPERAND_BYTES,
                    runner: PointRunner | None = None,
                    backend: str | None = None,
                    seed: int | None = None,
                    ) -> dict[str, dict[str, dict[str, float]]]:
    """Dynamic-energy savings of CC vs Base_32 with operands resident at
    each cache level; per-component savings in pJ (Figure 8(b)'s bars)."""
    runner = _resolve_runner(runner)
    cells = [(kernel, level, config) for kernel in KERNELS
             for level in ("L3", "L2", "L1") for config in ("base32", "cc")]
    docs = runner.run([kernel_point_spec(k, c, size, level=lvl,
                                         backend=backend, seed=seed)
                       for k, lvl, c in cells])
    meas = {cell: measurement_from_point(doc) for cell, doc in zip(cells, docs)}
    out: dict[str, dict[str, dict[str, float]]] = {}
    for kernel in KERNELS:
        out[kernel] = {}
        for level in ("L3", "L2", "L1"):
            base = meas[(kernel, level, "base32")]
            cc = meas[(kernel, level, "cc")]
            out[kernel][level] = {
                "savings_by_component": cc.dynamic.diff(base.dynamic),
                "total_savings_pj": base.dynamic.total() - cc.dynamic.total(),
                "savings_fraction": 1 - cc.dynamic.total() / base.dynamic.total(),
            }
    return out


# -- Figure 3 (top): energy proportions for bulk compare ----------------------------------


def figure3_energy_proportions(size: int = OPERAND_BYTES,
                               runner: PointRunner | None = None,
                               backend: str | None = None,
                               seed: int | None = None,
                               ) -> dict[str, dict[str, float]]:
    """Core vs data-movement dynamic-energy split for a bulk compare on a
    scalar core, a SIMD core, and a Compute Cache."""
    runner = _resolve_runner(runner)
    configs = ("scalar", "base32", "cc")
    docs = runner.run([kernel_point_spec("compare", c, size,
                                         backend=backend, seed=seed)
                       for c in configs])
    out = {}
    for config, doc in zip(configs, docs):
        meas = measurement_from_point(doc)
        total = meas.dynamic.total()
        out[config] = {
            "core_fraction": meas.dynamic.core() / total,
            "data_movement_fraction": meas.dynamic.data_movement() / total,
            "total_nj": total / 1000.0,
        }
    return out


# -- Tables ---------------------------------------------------------------------------------


def table1_rows() -> list[dict[str, float | str]]:
    """Table I: per-read H-tree vs data-array energy."""
    return [
        {
            "cache": level,
            "cache-ic (h-tree) pJ": CACHE_IC_ENERGY_PJ[level],
            "cache-access pJ": CACHE_ACCESS_ENERGY_PJ[level],
            "h-tree fraction": CACHE_IC_ENERGY_PJ[level]
            / (CACHE_IC_ENERGY_PJ[level] + CACHE_ACCESS_ENERGY_PJ[level]),
        }
        for level in ("L1-D", "L2", "L3-slice")
    ]


def table3_rows(config: MachineConfig | None = None) -> list[dict[str, int | str]]:
    """Table III: geometry and operand-locality constraints."""
    cfg = config or sandybridge_8core()
    rows = []
    for name, level in zip(Component.LEVELS, (cfg.l1d, cfg.l2, cfg.l3_slice)):
        rows.append({
            "cache": name,
            "banks": level.banks,
            "BP": level.bps_per_bank,
            "block size": BLOCK_SIZE,
            "min address bits match": level.min_locality_bits,
        })
    assert {r["cache"]: r["min address bits match"] for r in rows} == validate_table3(cfg)
    return rows


def table5_rows() -> list[dict[str, float | str]]:
    """Table V: cache energy per 64-byte block operation."""
    rows = []
    for level in ("L3-slice", "L2", "L1-D"):
        row: dict[str, float | str] = {"cache": level}
        row.update(CC_OP_ENERGY_PJ[level])
        rows.append(row)
    return rows

