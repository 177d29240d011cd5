"""Multi-core workload execution: interleaved programs over shared caches.

The paper's machine is an 8-core CMP; its applications are data-parallel
(Phoenix MapReduce workloads, SPLASH-2).  :class:`MulticoreRunner` executes
one program per core with interleaved progress, so programs contend for the
shared L3, exercise the coherence protocol, and finish on their own clocks;
the *makespan* is the slowest core, as in any parallel section.

Interleaving granularity is a parameter: a chunk of instructions from each
core in round-robin order.  The model is conservative about interference -
shared-resource contention appears through real cache/dir/ring state, not
through added queuing terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cpu.core_model import RunResult
from ..cpu.program import Program
from ..errors import ReproError
from ..machine import ComputeCacheMachine


@dataclass
class MulticoreResult:
    """Per-core results plus parallel-section aggregates."""

    per_core: dict[int, RunResult]

    @property
    def makespan(self) -> float:
        """Parallel-section completion time (slowest core).

        An empty parallel section (no programs) and all-empty programs
        both complete in zero cycles - the aggregates below are guarded so
        neither degenerate case divides by zero.
        """
        return max((r.cycles for r in self.per_core.values()), default=0.0)

    @property
    def total_instructions(self) -> int:
        return sum(r.instructions for r in self.per_core.values())

    @property
    def aggregate_ipc(self) -> float:
        return self.total_instructions / self.makespan if self.makespan else 0.0

    def cluster_makespans(self, clusters: int, cores_per_cluster: int) -> dict[int, float]:
        """Slowest core per cluster (``core // cores_per_cluster``).

        The per-cluster view of the parallel section on a multi-cluster
        topology (:class:`~repro.params.TopologyConfig`); clusters that ran
        no program report 0.0.
        """
        spans = {cluster: 0.0 for cluster in range(clusters)}
        for core, result in self.per_core.items():
            cluster = core // cores_per_cluster
            spans[cluster] = max(spans[cluster], result.cycles)
        return spans


@dataclass
class _CoreState:
    program: Program
    cursor: int = 0
    result: RunResult | None = None

    @property
    def done(self) -> bool:
        return self.cursor >= len(self.program.instructions)


class MulticoreRunner:
    """Round-robin interleaved execution of per-core programs."""

    def __init__(self, machine: ComputeCacheMachine, chunk: int = 64) -> None:
        if chunk < 1:
            raise ReproError("interleave chunk must be positive")
        self.machine = machine
        self.chunk = chunk

    def run(self, programs: dict[int, Program]) -> MulticoreResult:
        """Execute ``{core_id: program}`` with interleaved progress."""
        for core in programs:
            if not 0 <= core < self.machine.config.cores:
                raise ReproError(f"core {core} outside this machine")
        states = {core: _CoreState(program) for core, program in programs.items()}
        partials: dict[int, list[RunResult]] = {core: [] for core in programs}

        while any(not s.done for s in states.values()):
            for core, state in states.items():
                if state.done:
                    continue
                chunk = state.program.instructions[
                    state.cursor : state.cursor + self.chunk
                ]
                state.cursor += len(chunk)
                piece = Program(f"{state.program.name}@{core}", list(chunk))
                partials[core].append(self.machine.run(piece, core=core))

        per_core = {
            core: _merge(state.program.name, partials[core])
            for core, state in states.items()
        }
        return MulticoreResult(per_core=per_core)


def _merge(name: str, pieces: list[RunResult]) -> RunResult:
    merged = RunResult(name=name)
    for piece in pieces:
        merged.cycles += piece.cycles
        merged.instructions += piece.instructions
        merged.loads += piece.loads
        merged.stores += piece.stores
        merged.simd_ops += piece.simd_ops
        merged.scalar_ops += piece.scalar_ops
        merged.cc_instructions += piece.cc_instructions
        merged.stall_cycles += piece.stall_cycles
        merged.cc_cycles += piece.cc_cycles
        merged.fences += piece.fences
        merged.cc_results.extend(piece.cc_results)
    return merged

