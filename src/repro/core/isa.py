"""The Compute Cache instruction set (Table II).

=============  ====  ====  ====  ====  ========================================
Opcode         Src1  Src2  Dest  Size  Description
=============  ====  ====  ====  ====  ========================================
``cc_copy``    a     --    b     n     ``b[i] = a[i]``
``cc_buz``     a     --    --    n     ``a[i] = 0``
``cc_cmp``     a     b     r     n     ``r[i] = (a[i] == b[i])``
``cc_search``  a     k     r     n     ``r[i] = (a[i] == k)``
``cc_and``     a     b     c     n     ``c[i] = a[i] & b[i]``
``cc_or``      a     b     c     n     ``c[i] = a[i] | b[i]``
``cc_xor``     a     b     c     n     ``c[i] = a[i] ^ b[i]``
``cc_clmulX``  a     b     c     n     ``c_i = XOR_j(a[j] & b[j])``, X-bit lanes
``cc_not``     a     --    b     n     ``b[i] = ~a[i]``
``cc_addW``    a     b     c     n     ``c[i] = a[i] + b[i] mod 2^W`` (bit-serial)
``cc_mulW``    a     b     c     n     ``c[i] = a[i] * b[i] mod 2^W`` (bit-serial)
``cc_reduceW`` a     --    r     n     ``r = sum_i a[i] mod 2^64`` (bit-serial)
=============  ====  ====  ====  ====  ========================================

Operands are register-indirect addresses; sizes are immediates up to 16 KB.
``cc_cmp``/``cc_search`` are limited to 64 words (512 bytes) so the result
fits a 64-bit register; the search key is fixed at 64 bytes (smaller keys
are duplicated or padded by software, Section IV-A).

Instructions are classified CC-R (read-only: ``cc_cmp``, ``cc_search``,
``cc_reduce``) or CC-RW (the rest).  In the paper the class sets how the
vector LSQ orders an instruction (Section IV-H).  This model has no LSQ,
because each instruction's memory effects are complete before the next
one issues; here the class (``Opcode.reads_only``) decides whether the
instruction returns its result in the result register.

The arithmetic tier (``cc_add``/``cc_mul``/``cc_reduce``) follows the
Neural Cache successor design (arXiv 1805.03718): operands are treated as
dense vectors of ``W``-bit unsigned integers (``W`` in 8/16/32, selected by
``elem_bits``) laid out bit-serially (transposed) inside each sub-array, so
the bit-line logic computes one result bit-plane per step.  All arithmetic
wraps modulo ``2^W`` (numpy unsigned semantics); ``cc_reduce`` accumulates
the element sum modulo ``2^64`` into the 64-bit result register.  Layout
conversion between the row-major cache layout and the bit-serial layout is
charged by the controller's transpose unit (:mod:`repro.core.transpose`).
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, replace

from ..errors import ISAError
from ..params import BLOCK_SIZE, PAGE_SIZE, WORD_SIZE


class Opcode(enum.Enum):
    """CC opcodes (Table II)."""

    COPY = "cc_copy"
    BUZ = "cc_buz"
    CMP = "cc_cmp"
    SEARCH = "cc_search"
    AND = "cc_and"
    OR = "cc_or"
    XOR = "cc_xor"
    CLMUL = "cc_clmul"
    NOT = "cc_not"
    ADD = "cc_add"
    MUL = "cc_mul"
    REDUCE = "cc_reduce"

    @property
    def reads_only(self) -> bool:
        """CC-R instructions only read memory (Section IV-H)."""
        return self in (Opcode.CMP, Opcode.SEARCH, Opcode.REDUCE)

    @property
    def operand_count(self) -> int:
        """Number of memory operands (including any destination)."""
        if self in (Opcode.BUZ, Opcode.REDUCE):
            return 1
        if self in (Opcode.COPY, Opcode.NOT, Opcode.CMP, Opcode.SEARCH):
            return 2
        return 3

    @property
    def is_arith(self) -> bool:
        """Bit-serial arithmetic tier (Neural Cache): transposed operands."""
        return self in (Opcode.ADD, Opcode.MUL, Opcode.REDUCE)

    @property
    def subarray_op(self) -> str:
        """The sub-array operation implementing this opcode: its mnemonic
        without ``cc_``."""
        return self.value.removeprefix("cc_")


MAX_OPERAND_BYTES = 16 * 1024
CMP_MAX_BYTES = 64 * WORD_SIZE
"""cc_cmp compares at word granularity: 64 words (512 bytes) fill the
64-bit result register."""
SEARCH_KEY_BYTES = 64
SEARCH_MAX_BYTES = 64 * SEARCH_KEY_BYTES
"""cc_search matches at key granularity (64-byte keys): 64 keys (4 KB)
fill the 64-bit result register."""
CLMUL_LANES = (64, 128, 256)
ARITH_ELEM_BITS = (8, 16, 32)
"""Element widths the bit-serial arithmetic tier supports (``elem_bits``)."""


@dataclass(frozen=True)
class CCInstruction:
    """One decoded CC instruction.

    ``src1``/``src2``/``dest`` are byte addresses (register-indirect in
    hardware); ``size`` is the vector length in bytes; ``lane_bits`` selects
    the ``cc_clmul`` variant (64/128/256).
    """

    opcode: Opcode
    src1: int
    size: int
    src2: int | None = None
    dest: int | None = None
    lane_bits: int | None = None
    elem_bits: int | None = None
    """Element width (8/16/32) of the bit-serial arithmetic tier
    (``cc_add``/``cc_mul``/``cc_reduce``); ``None`` for all other opcodes."""
    broadcast_src2: bool = False
    """cc_clmul variant used by BMM: ``src2`` is a single 64-byte block
    replicated into each data partition through the search-key datapath,
    and every block of ``src1`` is multiplied against it.  (For cc_search
    this behaviour is implied; Table II's BMM usage needs the same
    broadcast, which we expose explicitly.)"""

    def __post_init__(self) -> None:
        self.validate()

    # -- validation (ISA rules of Section IV-A) -----------------------------------

    def validate(self) -> None:
        op = self.opcode
        if self.size <= 0:
            raise ISAError(f"{op.value}: size must be positive, got {self.size}")
        if self.size % BLOCK_SIZE:
            raise ISAError(
                f"{op.value}: operand size {self.size} must be a multiple of the "
                f"{BLOCK_SIZE}-byte cache block"
            )
        if self.size > MAX_OPERAND_BYTES:
            raise ISAError(
                f"{op.value}: operand size {self.size} exceeds the {MAX_OPERAND_BYTES}-byte "
                "ISA limit"
            )
        if op is Opcode.CMP and self.size > CMP_MAX_BYTES:
            raise ISAError(
                f"{op.value}: size {self.size} exceeds the 64-word ({CMP_MAX_BYTES}-byte)"
                " limit that lets the result fit a 64-bit register"
            )
        if op is Opcode.SEARCH and self.size > SEARCH_MAX_BYTES:
            raise ISAError(
                f"{op.value}: size {self.size} exceeds the 64-key ({SEARCH_MAX_BYTES}-byte)"
                " limit that lets the result fit a 64-bit register"
            )
        if op is Opcode.CLMUL:
            if self.lane_bits not in CLMUL_LANES:
                raise ISAError(
                    f"cc_clmul lane width must be one of {CLMUL_LANES}, got {self.lane_bits}"
                )
        elif self.lane_bits is not None:
            raise ISAError(f"{op.value} does not take a lane width")
        if op.is_arith:
            if self.elem_bits not in ARITH_ELEM_BITS:
                raise ISAError(
                    f"{op.value} element width must be one of {ARITH_ELEM_BITS}, "
                    f"got {self.elem_bits}"
                )
        elif self.elem_bits is not None:
            raise ISAError(f"{op.value} does not take an element width")
        if self.broadcast_src2 and op is not Opcode.CLMUL:
            raise ISAError(f"{op.value} does not support src2 broadcast")
        needed = op.operand_count
        have = 1 + (self.src2 is not None) + (self.dest is not None)
        if needed != have:
            raise ISAError(f"{op.value} takes {needed} memory operands, got {have}")
        for name, addr in self.operands().items():
            if addr < 0:
                raise ISAError(
                    f"{op.value}: operand {name}={addr} is negative"
                )
            if op is Opcode.CLMUL and name == "dest":
                # The clmul destination receives packed inner-product bits
                # (a normal store by the controller); word alignment suffices.
                if addr % WORD_SIZE:
                    raise ISAError(
                        f"{op.value}: dest={addr:#x} is not {WORD_SIZE}-byte aligned"
                    )
                continue
            if addr % BLOCK_SIZE:
                raise ISAError(
                    f"{op.value}: operand {name}={addr:#x} is not {BLOCK_SIZE}-byte aligned"
                )

    # -- structure ----------------------------------------------------------------

    def operands(self) -> dict[str, int]:
        """All memory operand base addresses, keyed by role."""
        ops = {"src1": self.src1}
        if self.src2 is not None:
            ops["src2"] = self.src2
        if self.dest is not None:
            ops["dest"] = self.dest
        return ops

    @property
    def num_blocks(self) -> int:
        """Cache blocks covered by each full-size operand."""
        return self.size // BLOCK_SIZE

    @property
    def key_is_fixed_block(self) -> bool:
        """src2 is a single 64-byte broadcast block, not a full vector:
        always true for cc_search, opt-in for cc_clmul (BMM)."""
        return self.opcode is Opcode.SEARCH or self.broadcast_src2

    @property
    def clmul_result_bytes(self) -> int:
        """Bytes of packed inner-product bits cc_clmul stores at ``dest``:
        one bit per ``lane_bits`` lane of ``src1``, lane 0 in bit 0."""
        lanes = self.size * 8 // self.lane_bits
        return (lanes + 7) // 8

    def vector_ranges(self) -> Iterator[tuple[str, int, int]]:
        """``(role, base, length)`` of each vector operand, in operand
        order: ``size`` bytes each, except the fixed 64-byte key of
        cc_search and broadcast cc_clmul.  cc_clmul's destination receives
        packed result bits through a plain store and is not one of them."""
        yield "src1", self.src1, self.size
        if self.src2 is not None:
            yield "src2", self.src2, SEARCH_KEY_BYTES if self.key_is_fixed_block else self.size
        if self.dest is not None and self.opcode is not Opcode.CLMUL:
            yield "dest", self.dest, self.size

    def block_operands(self) -> list[tuple[int, bool]]:
        """``(address, is_dest)`` of each operand of the instruction's
        first block op, from :meth:`vector_ranges`; block op ``k`` has
        them moved by ``k`` blocks.  The fixed key of cc_search and
        broadcast cc_clmul is staged once per piece, not an operand, and
        cc_buz's one operand is its destination."""
        return [(base, role == "dest" or self.opcode is Opcode.BUZ)
                for role, base, _length in self.vector_ranges()
                if not (role == "src2" and self.key_is_fixed_block)]

    def spans_page_boundary(self) -> bool:
        """True if any vector operand crosses a page (Section IV-D)."""
        return any(base // PAGE_SIZE != (base + length - 1) // PAGE_SIZE
                   for _, base, length in self.vector_ranges())

    def split_at(self, offset: int) -> tuple["CCInstruction", "CCInstruction"]:
        """Split into two instructions at a byte offset (exception handler)."""
        if offset <= 0 or offset >= self.size or offset % BLOCK_SIZE:
            raise ISAError(f"cannot split a {self.size}-byte operand at offset {offset}")
        if self.opcode is Opcode.CLMUL:
            new_dest = self.dest  # the packed result is written once, whole
        elif self.dest is None:
            new_dest = None
        else:
            new_dest = self.dest + offset
        first = replace(self, size=offset)
        second = replace(
            self,
            src1=self.src1 + offset,
            src2=(self.src2 if self.key_is_fixed_block or self.src2 is None
                  else self.src2 + offset),
            dest=new_dest,
            size=self.size - offset,
        )
        return first, second


# -- convenience constructors -----------------------------------------------------


def cc_copy(src: int, dest: int, size: int) -> CCInstruction:
    return CCInstruction(Opcode.COPY, src1=src, dest=dest, size=size)


def cc_buz(addr: int, size: int) -> CCInstruction:
    return CCInstruction(Opcode.BUZ, src1=addr, size=size)


def cc_cmp(a: int, b: int, size: int) -> CCInstruction:
    return CCInstruction(Opcode.CMP, src1=a, src2=b, size=size)


def cc_search(data: int, key: int, size: int) -> CCInstruction:
    return CCInstruction(Opcode.SEARCH, src1=data, src2=key, size=size)


def cc_and(a: int, b: int, dest: int, size: int) -> CCInstruction:
    return CCInstruction(Opcode.AND, src1=a, src2=b, dest=dest, size=size)


def cc_or(a: int, b: int, dest: int, size: int) -> CCInstruction:
    return CCInstruction(Opcode.OR, src1=a, src2=b, dest=dest, size=size)


def cc_xor(a: int, b: int, dest: int, size: int) -> CCInstruction:
    return CCInstruction(Opcode.XOR, src1=a, src2=b, dest=dest, size=size)


def cc_not(src: int, dest: int, size: int) -> CCInstruction:
    return CCInstruction(Opcode.NOT, src1=src, dest=dest, size=size)


def cc_clmul(a: int, b: int, dest: int, size: int, lane_bits: int = 64) -> CCInstruction:
    return CCInstruction(
        Opcode.CLMUL, src1=a, src2=b, dest=dest, size=size, lane_bits=lane_bits
    )


def cc_clmul_bcast(a: int, b_block: int, dest: int, size: int,
                   lane_bits: int = 256) -> CCInstruction:
    """BMM variant: multiply every block of ``a`` against one broadcast
    64-byte block (replicated per partition like a search key)."""
    return CCInstruction(
        Opcode.CLMUL, src1=a, src2=b_block, dest=dest, size=size,
        lane_bits=lane_bits, broadcast_src2=True,
    )


def cc_add(a: int, b: int, dest: int, size: int, elem_bits: int = 8) -> CCInstruction:
    """Element-wise bit-serial addition: ``dest[i] = a[i] + b[i] mod 2^W``."""
    return CCInstruction(
        Opcode.ADD, src1=a, src2=b, dest=dest, size=size, elem_bits=elem_bits
    )


def cc_mul(a: int, b: int, dest: int, size: int, elem_bits: int = 8) -> CCInstruction:
    """Element-wise bit-serial multiplication: ``dest[i] = a[i] * b[i] mod 2^W``."""
    return CCInstruction(
        Opcode.MUL, src1=a, src2=b, dest=dest, size=size, elem_bits=elem_bits
    )


def cc_reduce(src: int, size: int, elem_bits: int = 8) -> CCInstruction:
    """Sum-reduce a vector of ``W``-bit elements into the 64-bit result
    register: ``r = sum_i src[i] mod 2^64``."""
    return CCInstruction(Opcode.REDUCE, src1=src, size=size, elem_bits=elem_bits)
