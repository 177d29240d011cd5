"""Abstract instruction streams for the core timing model.

A :class:`Program` is a sequence of :class:`Instr`.  The stream carries only
what the timing/energy model needs: the kind of each instruction and, for
memory operations, its address/size.  Data movement happens for real (the
core model routes loads/stores through the cache hierarchy), so programs
compute real results while being cheap to synthesize in benchmarks.

Instructions are frozen, so the factories of the kinds that carry no
operands (:meth:`Instr.scalar`, :meth:`~Instr.branch`,
:meth:`~Instr.simd_op`, :meth:`~Instr.fence`) each return one shared
instance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..core.isa import CCInstruction


class InstrKind(enum.Enum):
    SCALAR_OP = "scalar-op"
    LOAD = "load"
    STORE = "store"
    SIMD_LOAD = "simd-load"
    SIMD_STORE = "simd-store"
    SIMD_OP = "simd-op"
    BRANCH = "branch"
    CC = "cc"
    FENCE = "fence"


@dataclass(frozen=True)
class Instr:
    """One abstract instruction.

    A store may carry literal ``data``, or a ``src_addr`` meaning "store the
    value previously loaded from there" (register contents in hardware) -
    which is how copy kernels stay functionally exact without the generator
    knowing memory contents.
    """

    kind: InstrKind
    addr: int = 0
    size: int = 0
    data: bytes | None = None
    src_addr: int | None = None
    src2_addr: int | None = None
    alu: str | None = None
    cc: CCInstruction | None = None
    dependent: bool = False
    """Loads on a serial dependence chain (e.g. binary-search probes or
    pointer chasing) expose their full miss latency - no memory-level
    parallelism hides it."""
    streaming: bool = False
    """Sequential loads a stride prefetcher covers: no stall is charged
    (the data arrives ahead of use), but the cache traffic and energy are
    still real."""

    @staticmethod
    def scalar() -> "Instr":
        return _SCALAR_OP

    @staticmethod
    def branch() -> "Instr":
        return _BRANCH

    @staticmethod
    def load(addr: int, size: int = 8, dependent: bool = False,
             streaming: bool = False) -> "Instr":
        return Instr(InstrKind.LOAD, addr=addr, size=size, dependent=dependent,
                     streaming=streaming)

    @staticmethod
    def store(addr: int, data: bytes) -> "Instr":
        return Instr(InstrKind.STORE, addr=addr, size=len(data), data=data)

    @staticmethod
    def store_copy(addr: int, src_addr: int, size: int) -> "Instr":
        return Instr(InstrKind.STORE, addr=addr, size=size, src_addr=src_addr)

    @staticmethod
    def simd_load(addr: int, size: int = 32) -> "Instr":
        return Instr(InstrKind.SIMD_LOAD, addr=addr, size=size)

    @staticmethod
    def simd_store(addr: int, data: bytes) -> "Instr":
        return Instr(InstrKind.SIMD_STORE, addr=addr, size=len(data), data=data)

    @staticmethod
    def simd_store_copy(addr: int, src_addr: int, size: int = 32) -> "Instr":
        return Instr(InstrKind.SIMD_STORE, addr=addr, size=size, src_addr=src_addr)

    @staticmethod
    def simd_store_op(addr: int, src_addr: int, src2_addr: int, alu: str,
                      size: int = 32) -> "Instr":
        """Store the result of ``alu`` over two previously-loaded values."""
        return Instr(InstrKind.SIMD_STORE, addr=addr, size=size,
                     src_addr=src_addr, src2_addr=src2_addr, alu=alu)

    @staticmethod
    def simd_op() -> "Instr":
        return _SIMD_OP

    @staticmethod
    def cc_op(cc: CCInstruction) -> "Instr":
        return Instr(InstrKind.CC, cc=cc)

    @staticmethod
    def fence() -> "Instr":
        return _FENCE


_SCALAR_OP = Instr(InstrKind.SCALAR_OP)
_BRANCH = Instr(InstrKind.BRANCH)
_SIMD_OP = Instr(InstrKind.SIMD_OP)
_FENCE = Instr(InstrKind.FENCE)


@dataclass
class Program:
    """A named instruction stream."""

    name: str
    instructions: list[Instr] = field(default_factory=list)

    def append(self, instr: Instr) -> None:
        self.instructions.append(instr)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)
