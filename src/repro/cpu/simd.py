"""Baseline kernel generators: scalar and Base_32 (32-byte SIMD).

These synthesize the instruction streams a compiler would emit for the
paper's four micro-benchmark kernels - copy, compare, search, logical OR -
in two flavours:

* **scalar** - word-at-a-time (Figure 3's scalar core);
* **Base_32** - 32-byte SIMD loads/stores and vector ops, the paper's
  baseline comparator (Section VI-D).

Each generator returns a :class:`~repro.cpu.program.Program` whose loads
and stores reference real addresses, so running it against the hierarchy
both produces correct data movement and yields the kernel's result.
"""

from __future__ import annotations

from ..errors import AddressError
from ..params import WORD_SIZE
from .program import Instr, InstrKind, Program

SIMD_WIDTH = 32
LOOP_OVERHEAD_INSTRS = 2
"""Per-iteration bookkeeping (index update + branch)."""


def _check(size: int, granule: int) -> None:
    if size <= 0 or size % granule:
        raise AddressError(f"kernel size {size} is not a positive multiple of {granule}")


def _loop_overhead(program: Program) -> None:
    program.append(Instr.scalar())
    program.append(Instr.branch())


# -- scalar kernels (word at a time) ------------------------------------------------


def scalar_copy(src: int, dest: int, size: int) -> Program:
    """``memcpy`` with 8-byte loads/stores."""
    _check(size, WORD_SIZE)
    program = Program(f"scalar-copy-{size}")
    for off in range(0, size, WORD_SIZE):
        program.append(Instr.load(src + off, WORD_SIZE))
        program.append(Instr.store_copy(dest + off, src + off, WORD_SIZE))
        _loop_overhead(program)
    return program


def scalar_compare(a: int, b: int, size: int) -> Program:
    """``memcmp``-style equality with 8-byte loads."""
    _check(size, WORD_SIZE)
    program = Program(f"scalar-compare-{size}")
    for off in range(0, size, WORD_SIZE):
        program.append(Instr.load(a + off, WORD_SIZE))
        program.append(Instr.load(b + off, WORD_SIZE))
        program.append(Instr.scalar())  # cmp
        _loop_overhead(program)
    return program


def scalar_search(data: int, key: int, size: int, key_bytes: int = 64) -> Program:
    """Scan ``data`` for a 64-byte key, word at a time."""
    _check(size, key_bytes)
    program = Program(f"scalar-search-{size}")
    for off in range(0, key_bytes, WORD_SIZE):
        program.append(Instr.load(key + off, WORD_SIZE))  # key into registers
    for off in range(0, size, WORD_SIZE):
        program.append(Instr.load(data + off, WORD_SIZE))
        program.append(Instr.scalar())  # cmp with key word
        _loop_overhead(program)
    return program


def scalar_or(a: int, b: int, dest: int, size: int) -> Program:
    """Word-at-a-time bitwise OR."""
    _check(size, WORD_SIZE)
    program = Program(f"scalar-or-{size}")
    for off in range(0, size, WORD_SIZE):
        program.append(Instr.load(a + off, WORD_SIZE))
        program.append(Instr.load(b + off, WORD_SIZE))
        program.append(Instr.scalar())  # or
        program.append(Instr(InstrKind.STORE, addr=dest + off, size=WORD_SIZE,
                             src_addr=a + off, src2_addr=b + off, alu="or"))
        _loop_overhead(program)
    return program


# -- Base_32 kernels ------------------------------------------------------------------


def simd_copy(src: int, dest: int, size: int) -> Program:
    """32-byte SIMD ``memcpy`` (the Base_32 copy kernel)."""
    _check(size, SIMD_WIDTH)
    program = Program(f"simd-copy-{size}")
    for off in range(0, size, SIMD_WIDTH):
        program.append(Instr.simd_load(src + off, SIMD_WIDTH))
        program.append(Instr.simd_store_copy(dest + off, src + off, SIMD_WIDTH))
        _loop_overhead(program)
    return program


def simd_compare(a: int, b: int, size: int) -> Program:
    """32-byte SIMD equality compare (PCMPEQ-style) of two buffers."""
    _check(size, SIMD_WIDTH)
    program = Program(f"simd-compare-{size}")
    for off in range(0, size, SIMD_WIDTH):
        program.append(Instr.simd_load(a + off, SIMD_WIDTH))
        program.append(Instr.simd_load(b + off, SIMD_WIDTH))
        program.append(Instr.simd_op())  # pcmpeq
        program.append(Instr.scalar())  # movemask / accumulate
        _loop_overhead(program)
    return program


def simd_search(data: int, key: int, size: int, key_bytes: int = 64) -> Program:
    """Search for a 64-byte key: the key lives in two SIMD registers, so
    the steady state is one load + two compares per 32 bytes of data."""
    _check(size, SIMD_WIDTH)
    program = Program(f"simd-search-{size}")
    for off in range(0, key_bytes, SIMD_WIDTH):
        program.append(Instr.simd_load(key + off, SIMD_WIDTH))
    for off in range(0, size, SIMD_WIDTH):
        program.append(Instr.simd_load(data + off, SIMD_WIDTH))
        program.append(Instr.simd_op())  # pcmpeq with key half
        program.append(Instr.scalar())  # movemask / merge
        _loop_overhead(program)
    return program


def simd_or(a: int, b: int, dest: int, size: int) -> Program:
    """32-byte SIMD bitwise OR of two buffers into a third."""
    _check(size, SIMD_WIDTH)
    program = Program(f"simd-or-{size}")
    for off in range(0, size, SIMD_WIDTH):
        program.append(Instr.simd_load(a + off, SIMD_WIDTH))
        program.append(Instr.simd_load(b + off, SIMD_WIDTH))
        program.append(Instr.simd_op())  # por
        program.append(Instr.simd_store_op(dest + off, a + off, b + off, "or", SIMD_WIDTH))
        _loop_overhead(program)
    return program
