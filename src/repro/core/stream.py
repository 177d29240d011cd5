"""The RMO overlap view of a stream of CC instructions (Section IV-G).

:class:`CCInstructionStream` runs a sequence of CC instructions one at a
time through :meth:`ComputeCacheController.execute`, so its per-instruction
:class:`~repro.core.controller.CCResult` values, statistics, energy and
events are those of issuing each instruction on its own.  On top it
reports an *overlapped* machine-cycle model: :class:`StreamResult` carries
both the serial sum of per-instruction latencies and the RMO-overlap
makespan, in which controller occupancy serializes and sub-array work
overlaps — the same model :class:`~repro.cpu.core_model.CoreModel`
applies, via :class:`CCOccupancyTimeline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .controller import CCResult, ComputeCacheController


@dataclass
class CCOccupancyTimeline:
    """The RMO overlap model for CC work (Section IV-G), shared by
    :class:`~repro.cpu.core_model.CoreModel` and the stream.

    The (single, per-core) CC controller is busy for each instruction's
    *occupancy* (decode + command-bus issue + serial near-place time);
    later instructions queue behind that, while sub-array execution
    completes in the background and overlaps freely.
    """

    busy_until: float = 0.0
    last_completion: float = 0.0

    def issue(self, now: float, occupancy_cycles: float,
              total_cycles: float) -> float:
        """Issue one CC instruction at ``now``; returns its start cycle."""
        start = max(now, self.busy_until)
        self.busy_until = start + max(occupancy_cycles, 1.0)
        self.last_completion = max(self.last_completion, start + total_cycles)
        return start

    @property
    def drain_target(self) -> float:
        """Cycle by which all issued CC work has completed."""
        return max(self.busy_until, self.last_completion)


@dataclass
class StreamResult:
    """Outcome of one :meth:`CCInstructionStream.execute` call."""

    results: list[CCResult] = field(default_factory=list)
    """Per-instruction results, in issue order."""
    serial_cycles: float = 0.0
    """Sum of per-instruction latencies (the serial model)."""
    overlapped_cycles: float = 0.0
    """RMO-overlap makespan: occupancy serializes, sub-array work
    overlaps (see :class:`CCOccupancyTimeline`)."""

    @property
    def instructions(self) -> int:
        return len(self.results)



class CCInstructionStream:
    """Issues a stream of CC instructions through one controller and
    reports their serial and RMO-overlapped cycle counts."""

    def __init__(self, controller: ComputeCacheController) -> None:
        self.controller = controller

    def execute(self, instrs, force_level: str | None = None,
                force_nearplace: bool = False) -> StreamResult:
        """Run a sequence of CC instructions one at a time; returns the
        per-instruction results plus the overlap accounting."""
        out = StreamResult(results=[
            self.controller.execute(instr, force_level=force_level,
                                    force_nearplace=force_nearplace)
            for instr in instrs
        ])
        out.serial_cycles = sum(r.cycles for r in out.results)
        timeline = CCOccupancyTimeline()
        for res in out.results:
            timeline.issue(0.0, res.occupancy_cycles, res.cycles)
        out.overlapped_cycles = timeline.drain_target
        return out
