"""Checkpointing benchmark harness: Figures 10 and 11.

Runs the six SPLASH-2 profiles with no checkpointing, scalar (Base),
Base_32 SIMD, and CC_L3 page-copy engines; reports per-benchmark overhead
(Figure 10) and total energy including leakage over the measured runtime
(Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..apps.checkpoint import CheckpointRun, run_checkpoint
from ..apps.splash import BENCHMARKS, PROFILES
from ..machine import ComputeCacheMachine
from ..params import sandybridge_8core

ENGINES = ("base", "base32", "cc")


@dataclass
class CheckpointComparison:
    """All engines for one benchmark profile."""

    benchmark: str
    runs: dict[str, CheckpointRun]

    def overhead(self, engine: str) -> float:
        return self.runs[engine].overhead

    def total_energy_nj(self, engine: str) -> float:
        run = self.runs[engine]
        m = ComputeCacheMachine(sandybridge_8core())
        return m.total_energy(run.energy, run.total_cycles).total


def run_benchmark(name: str, intervals: int = 2,
                  backend: str | None = None) -> CheckpointComparison:
    prof = replace(PROFILES[name], intervals=intervals)
    runs = {}
    for engine in ("none",) + ENGINES:
        m = ComputeCacheMachine(sandybridge_8core(), backend=backend)
        runs[engine] = run_checkpoint(prof, engine, m)
    return CheckpointComparison(benchmark=name, runs=runs)


def _checkpoint_points(intervals: int, runner,
                       backend: str | None = None) -> list[dict]:
    """One ``checkpoint`` runner point per benchmark; each point carries
    both the Figure 10 overheads and the Figure 11 energies, so
    regenerating both figures (or re-running one with a warm cache)
    simulates every profile once."""
    from .microbench import _resolve_runner
    from .runner import Point

    runner = _resolve_runner(runner)
    extra = {"backend": backend} if backend is not None else {}
    return runner.run([
        Point("checkpoint", {"benchmark": name, "intervals": intervals,
                             **extra},
              label=f"checkpoint:{name}x{intervals}")
        for name in BENCHMARKS
    ])


def figure10_overheads(intervals: int = 2, runner=None,
                       backend: str | None = None) -> dict[str, dict[str, float]]:
    """Figure 10: checkpointing performance overhead (%) per benchmark."""
    docs = _checkpoint_points(intervals, runner, backend=backend)
    return {doc["benchmark"]: doc["overheads"] for doc in docs}


def figure11_energy(intervals: int = 2, runner=None,
                    backend: str | None = None) -> dict[str, dict[str, float]]:
    """Figure 11: total energy (nJ) per benchmark, including no_chkpt."""
    docs = _checkpoint_points(intervals, runner, backend=backend)
    return {doc["benchmark"]: doc["energy"] for doc in docs}


def summarize_overheads(overheads: dict[str, dict[str, float]]) -> dict[str, float]:
    """Geomean-free summary: arithmetic-mean overhead per engine (the
    paper quotes averages: Base_32 ~30%, CC ~6%) plus the worst case."""
    out = {}
    for engine in ENGINES:
        values = [overheads[b][engine] for b in overheads]
        out[f"avg_{engine}"] = sum(values) / len(values)
        out[f"max_{engine}"] = max(values)
    return out
