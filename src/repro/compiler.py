"""Compiler support for Compute Caches (Section IV-C's anticipated layer).

"Compiler and dynamic memory allocators could be extended to optimize for
this property [operand locality] in future."  This module is that
extension: given an element-wise vector computation over arrays, it

1. **plans the layout** - allocates the arrays co-located (same page
   offset) so every block pair shares bit-lines at every cache level;
2. **tiles the operation** - splits it into CC instructions respecting the
   ISA limits (16 KB general, 512 B for ``cc_cmp``) and page boundaries
   (avoiding run-time pipeline exceptions entirely);
3. **emits** the instruction sequence, ready to run or to disassemble.

The planner is deliberately conservative: if a caller brings pre-placed
arrays whose offsets cannot satisfy locality, it still compiles (the
hardware's near-place path keeps it correct) but reports the operand-
locality diagnosis so the programmer can fix the allocation - mirroring
how a real toolchain would surface the paper's alignment requirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .alloc import Arena
from .cache.locality import check_operand_locality
from .core import isa
from .core.isa import CCInstruction, Opcode
from .energy.accounting import Component
from .errors import ISAError
from .machine import ComputeCacheMachine
from .params import BLOCK_SIZE, PAGE_SIZE, MachineConfig, sandybridge_8core

_TILE_LIMIT = {
    Opcode.CMP: 512,
}
_DEFAULT_TILE = PAGE_SIZE  # page tiles never raise the span exception


@dataclass(frozen=True)
class ArrayRef:
    """A named array operand with its placed base address."""

    name: str
    addr: int
    size: int


@dataclass
class VectorPlan:
    """A compiled element-wise operation: layout + instruction tiles."""

    op: Opcode
    arrays: dict[str, ArrayRef]
    instructions: list[CCInstruction]
    locality_satisfied: bool
    diagnostics: list[str] = field(default_factory=list)

    @property
    def tile_count(self) -> int:
        return len(self.instructions)

    def run(self, machine: ComputeCacheMachine, core: int = 0) -> list:
        """Execute the plan; returns the per-tile CCResults."""
        return [machine.cc(instr, core=core) for instr in self.instructions]

    def listing(self) -> str:
        """Human-readable assembly listing of the plan."""
        from .asm import format_instruction

        header = [f"; {self.op.value} over " + ", ".join(
            f"{ref.name}@{ref.addr:#x}[{ref.size}]" for ref in self.arrays.values()
        )]
        if not self.locality_satisfied:
            header.append("; WARNING: operand locality NOT satisfied -> near-place")
        return "\n".join(header + [format_instruction(i) for i in self.instructions])


class VectorCompiler:
    """Plans element-wise CC computations with locality-aware layout."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config or sandybridge_8core()

    # -- layout -----------------------------------------------------------------

    def place_arrays(self, arena: Arena, names: list[str], size: int) -> dict[str, ArrayRef]:
        """Allocate ``names`` co-located: the allocator half of IV-C."""
        if size % BLOCK_SIZE:
            raise ISAError(f"array size {size} must be block-aligned")
        addrs = arena.alloc_colocated(size, len(names))
        return {
            name: ArrayRef(name=name, addr=addr, size=size)
            for name, addr in zip(names, addrs)
        }

    def diagnose_locality(self, refs: list[ArrayRef]) -> tuple[bool, list[str]]:
        """Check every corresponding block tuple at every cache level."""
        diagnostics: list[str] = []
        ok = True
        levels = (self.config.l1d, self.config.l2, self.config.l3_slice)
        for name, level in zip(Component.LEVELS, levels):
            for off in range(0, refs[0].size, BLOCK_SIZE):
                addrs = [r.addr + off for r in refs]
                if not check_operand_locality(addrs, level):
                    ok = False
                    diagnostics.append(
                        f"{name}: blocks at +{off:#x} do not share a "
                        f"partition (low {level.min_locality_bits} bits differ)"
                    )
                    break  # one diagnosis per level suffices
        return ok, diagnostics

    # -- tiling ------------------------------------------------------------------

    def _tile_sizes(self, op: Opcode, base_addrs: list[int], size: int) -> list[tuple[int, int]]:
        """(offset, length) tiles obeying ISA limits and page boundaries."""
        limit = _TILE_LIMIT.get(op, _DEFAULT_TILE)
        tiles = []
        offset = 0
        while offset < size:
            length = min(limit, size - offset)
            # Shrink to the nearest page boundary of any operand so no tile
            # ever spans a page (compile-time exception avoidance).
            for base in base_addrs:
                addr = base + offset
                to_boundary = PAGE_SIZE - (addr % PAGE_SIZE)
                length = min(length, to_boundary)
            tiles.append((offset, length))
            offset += length
        return tiles

    # -- compilation ---------------------------------------------------------------

    def compile_elementwise(self, op: Opcode, a: ArrayRef, b: ArrayRef | None,
                            dest: ArrayRef | None) -> VectorPlan:
        """Compile ``dest[i] = a[i] <op> b[i]`` (or unary/compare forms)."""
        refs = [r for r in (a, b, dest) if r is not None]
        sizes = {r.size for r in refs}
        if len(sizes) != 1:
            raise ISAError(f"array sizes differ: { {r.name: r.size for r in refs} }")
        size = sizes.pop()
        ok, diagnostics = self.diagnose_locality(refs)

        builders = {
            Opcode.AND: lambda o, n: isa.cc_and(a.addr + o, b.addr + o, dest.addr + o, n),
            Opcode.OR: lambda o, n: isa.cc_or(a.addr + o, b.addr + o, dest.addr + o, n),
            Opcode.XOR: lambda o, n: isa.cc_xor(a.addr + o, b.addr + o, dest.addr + o, n),
            Opcode.COPY: lambda o, n: isa.cc_copy(a.addr + o, dest.addr + o, n),
            Opcode.NOT: lambda o, n: isa.cc_not(a.addr + o, dest.addr + o, n),
            Opcode.BUZ: lambda o, n: isa.cc_buz(a.addr + o, n),
            Opcode.CMP: lambda o, n: isa.cc_cmp(a.addr + o, b.addr + o, n),
        }
        builder = builders.get(op)
        if builder is None:
            raise ISAError(f"compile_elementwise does not handle {op.value}")
        base_addrs = [r.addr for r in refs]
        instructions = [builder(off, length)
                        for off, length in self._tile_sizes(op, base_addrs, size)]
        return VectorPlan(op=op, arrays={r.name: r for r in refs},
                          instructions=instructions, locality_satisfied=ok,
                          diagnostics=diagnostics)



def compile_and_run(machine: ComputeCacheMachine, op: Opcode,
                    inputs: dict[str, bytes], size: int | None = None) -> VectorPlan:
    """One-call convenience: place, load, compile, and execute.

    ``inputs`` maps array names to initial contents; a ``dest`` array is
    added automatically for ops that produce one.
    """
    sizes = {len(v) for v in inputs.values()}
    if size is None:
        if len(sizes) != 1:
            raise ISAError("inputs must share a size (or pass size=)")
        size = sizes.pop()
    compiler = VectorCompiler(machine.config)
    names = list(inputs)
    needs_dest = op not in (Opcode.BUZ, Opcode.CMP, Opcode.SEARCH)
    if needs_dest:
        names.append("dest")
    refs = compiler.place_arrays(machine.arena, names, size)
    for name, data in inputs.items():
        machine.load(refs[name].addr, data)
    a = refs[list(inputs)[0]]
    b = refs[list(inputs)[1]] if len(inputs) > 1 else None
    dest = refs.get("dest")
    plan = compiler.compile_elementwise(op, a, b, dest)
    plan.run(machine)
    return plan
