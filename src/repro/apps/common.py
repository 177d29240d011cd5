"""Shared application-layer plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cpu.program import Instr, Program
from ..energy.accounting import EnergyLedger
from ..machine import ComputeCacheMachine
from ..params import MachineConfig, sandybridge_8core


@dataclass
class AppResult:
    """Outcome of one application run (one variant)."""

    app: str
    variant: str
    cycles: float
    instructions: int
    energy: EnergyLedger
    output: object = None
    stats: dict = field(default_factory=dict)

    @property
    def energy_nj(self) -> float:
        return self.energy.total_nj()


def fresh_machine(config: MachineConfig | None = None) -> ComputeCacheMachine:
    """A new machine for one measured run (clean caches + ledger)."""
    return ComputeCacheMachine(config or sandybridge_8core())


class StreamRunner:
    """Executes instruction streams in bounded chunks.

    Applications generate millions of abstract instructions; buffering them
    all would be wasteful.  The runner flushes to the core model whenever
    the buffer reaches ``chunk`` instructions and accumulates totals.
    """

    def __init__(self, machine: ComputeCacheMachine, name: str,
                 core: int = 0, chunk: int = 4096) -> None:
        self.machine = machine
        self.name = name
        self.core = core
        self.chunk = chunk
        self._buffer: list[Instr] = []
        self.cycles = 0.0
        self.instructions = 0
        self.cc_results = []

    def emit(self, instr: Instr) -> None:
        self._buffer.append(instr)
        if len(self._buffer) >= self.chunk:
            self.flush()

    def emit_many(self, instrs: list[Instr]) -> None:
        for instr in instrs:
            self.emit(instr)

    def flush(self) -> None:
        if not self._buffer:
            return
        res = self.machine.run(Program(self.name, self._buffer), core=self.core)
        self.cycles += res.cycles
        self.instructions += res.instructions
        self.cc_results.extend(res.cc_results)
        self._buffer = []

    def cc(self, instr) -> "object":
        """Execute a CC instruction synchronously (flushes the buffer first)
        and return its :class:`~repro.core.controller.CCResult` - needed
        when control flow depends on the result mask."""
        self.flush()
        res = self.machine.run(
            Program(self.name, [Instr.cc_op(instr)]), core=self.core
        )
        self.cycles += res.cycles
        self.instructions += res.instructions
        self.cc_results.extend(res.cc_results)
        return res.cc_results[-1]

    def result(self, app: str, variant: str, energy: EnergyLedger,
               output: object = None, **stats) -> AppResult:
        self.flush()
        return AppResult(
            app=app, variant=variant, cycles=self.cycles,
            instructions=self.instructions, energy=energy, output=output,
            stats=dict(stats),
        )


def pad_to_slot(word: bytes, slot: int = 64) -> bytes:
    """Pad a word into a fixed 64-byte CAM slot (zero-padded)."""
    if len(word) >= slot:
        word = word[: slot - 1]
    return word + bytes(slot - len(word))


def lanes16(values: np.ndarray, plane_bytes: int) -> bytes:
    """Zero-extend values into little-endian 16-bit lanes, block-padded."""
    raw = np.ascontiguousarray(values, dtype=np.uint16).astype("<u2").tobytes()
    return raw + bytes(plane_bytes - len(raw))
