"""Vectorized packed-byte kernels (the ``packed`` execution backend).

All kernels operate on 2-D ``uint8`` arrays of shape ``(n_ops, row_bytes)``
— one row per simple vector operation — so a CC instruction's worth of
block operations is one numpy call, not a Python loop.  1-D inputs are
treated as a single row.

:func:`block_op` is the one definition of what each sub-array operation
computes: the packed sub-arrays, the near-place logic unit and the core's
RISC fallback all run it; :func:`check_block_op` is the one check of its
arguments, which the bit-exact circuit model shares.  The row kernels it
calls take those arguments as checked; only a row that is not whole
chunks (``equality_mask``) or lanes (``clmul_mask``) is checked again.

Conventions (shared with the bit-exact circuit model):

* equality masks put word 0 (the lowest-addressed word) in bit 0
  (``np.packbits(..., bitorder="little")``);
* clmul lane masks put lane 0 in bit 0 and are returned as little-endian
  packed bytes, zero-padded to a whole byte.
"""

from __future__ import annotations

import numpy as np

from ..errors import AddressError, ISAError
from ..params import BLOCK_SIZE, WORD_SIZE

POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
"""Per-byte popcount lookup table (clmul's XOR-reduction tree)."""

LOGICAL_KERNELS = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
}

ARITH_DTYPES = {8: "<u1", 16: "<u2", 32: "<u4"}
"""Little-endian unsigned element views for the bit-serial arithmetic tier:
element 0 occupies the lowest-addressed bytes of the row."""
ARITH_ELEM_BITS = tuple(ARITH_DTYPES)
"""Element widths of the arithmetic ops (``cc_add``/``cc_mul``/``cc_reduce``)."""
ARITH_OPS = frozenset({"add", "mul", "reduce"})
"""Bit-serial arithmetic operations: their cost scales with the step count
(:func:`repro.sram.timing.arith_steps`)."""
CLMUL_LANES = (64, 128, 256)
"""Lane widths of ``cc_clmul``."""

ROW_OPS = frozenset({"and", "or", "xor", "not", "copy", "buz", "add", "mul"})
"""Operations that produce one row per operand row (written to a destination)."""
TWO_OPERAND_OPS = frozenset({"and", "or", "xor", "cmp", "search", "clmul", "add", "mul"})
BLOCK_OPS = ROW_OPS | {"cmp", "search", "clmul", "reduce"}
"""Every compute operation of a sub-array."""


def _as_matrix(arr: np.ndarray) -> np.ndarray:
    """View a kernel operand as ``(n_rows, row_bytes)``."""
    a = np.asarray(arr, dtype=np.uint8)
    return a.reshape(1, -1) if a.ndim == 1 else a


def logical_rows(op: str, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Bulk bitwise kernel over packed rows: and/or/xor/not/copy/buz.

    ``a`` and ``b`` are ``(n, row_bytes)`` (or 1-D single-row) uint8 arrays;
    the result has ``a``'s shape.  ``buz`` ignores the operand values and
    returns zeros; ``copy`` returns a copy of ``a``.
    """
    a = _as_matrix(a)
    if op == "buz":
        return np.zeros_like(a)
    if op == "copy":
        return a.copy()
    if op == "not":
        return ~a
    return LOGICAL_KERNELS[op](a, _as_matrix(b))


def pack_flags(flags: np.ndarray) -> np.ndarray:
    """Pack per-chunk boolean flags into integer masks, chunk 0 -> bit 0.

    ``flags`` is ``(n, k)`` with ``k <= 64``; returns ``(n,)`` uint64 masks.
    This replaces the bit-exact model's per-word Python loop
    (``for i, bit in enumerate(equal): mask |= 1 << i``).
    """
    flags = np.asarray(flags, dtype=bool)
    if flags.ndim == 1:
        flags = flags.reshape(1, -1)
    n, k = flags.shape
    if k > 64:
        raise AddressError(f"mask of {k} chunks does not fit a 64-bit register")
    packed = np.packbits(flags, axis=1, bitorder="little")
    out = np.zeros((n, 8), dtype=np.uint8)
    out[:, : packed.shape[1]] = packed
    return out.view("<u8").ravel()


def equality_mask(a: np.ndarray, b: np.ndarray, chunk_bytes: int) -> np.ndarray:
    """Per-chunk equality of packed rows: ``(n,)`` uint64 masks.

    Bit *i* of row *r*'s mask is set iff chunk *i* (``chunk_bytes`` wide,
    chunk 0 lowest-addressed) of ``a[r]`` equals that of ``b[r]`` — the
    wired-NOR word-equality reduction of ``cc_cmp``/``cc_search``, computed
    on packed bytes.
    """
    a, b = _as_matrix(a), _as_matrix(b)
    n, width = a.shape
    if width % chunk_bytes:
        raise AddressError(
            f"row of {width} bytes is not divisible by chunk size {chunk_bytes}"
        )
    differs = (a != b).reshape(n, width // chunk_bytes, chunk_bytes).any(axis=2)
    return pack_flags(~differs)


def clmul_mask(a: np.ndarray, b: np.ndarray, lane_bits: int) -> np.ndarray:
    """Carry-less multiply: per-lane parity of popcount(a & b).

    Returns ``(n,)`` uint64 masks with lane 0 in bit 0 — the XOR-reduction
    tree of ``cc_clmul`` evaluated with a byte-popcount table instead of
    per-bit expansion.
    """
    a, b = _as_matrix(a), _as_matrix(b)
    n, width = a.shape
    lane_bytes = lane_bits // 8
    if width % lane_bytes:
        raise AddressError(
            f"row of {width} bytes is not divisible by lane size {lane_bytes}"
        )
    counts = POPCOUNT8[a & b].reshape(n, width // lane_bytes, lane_bytes)
    parity = counts.sum(axis=2, dtype=np.uint32) & 1
    return pack_flags(parity.astype(bool))


def _elem_view(a: np.ndarray, elem_bits: int) -> np.ndarray:
    """View packed rows as ``(n, n_elems)`` unsigned elements."""
    return np.ascontiguousarray(_as_matrix(a)).view(ARITH_DTYPES[elem_bits])


def arith_rows(op: str, a: np.ndarray, b: np.ndarray, elem_bits: int) -> np.ndarray:
    """Element-wise bit-serial arithmetic over packed rows: add/mul.

    ``a`` and ``b`` are ``(n, row_bytes)`` (or 1-D single-row) uint8 arrays
    interpreted as little-endian ``elem_bits``-wide unsigned integers; the
    result wraps modulo ``2^elem_bits`` (numpy unsigned semantics) and is
    returned re-packed as uint8 with ``a``'s matrix shape.
    """
    ea = _elem_view(a, elem_bits)
    eb = _elem_view(b, elem_bits)
    out = ea + eb if op == "add" else ea * eb
    return out.view(np.uint8)


def reduce_rows(a: np.ndarray, elem_bits: int) -> np.ndarray:
    """Per-row element sum modulo ``2^64``: ``(n,)`` uint64 accumulators.

    The bit-serial reduction tree of ``cc_reduce`` evaluated as one numpy
    sum per packed row (zero-extended elements, 64-bit wraparound).
    """
    ea = _elem_view(a, elem_bits)
    return ea.astype(np.uint64).sum(axis=1, dtype=np.uint64)


def check_block_op(op: str, row_bits: int, has_b: bool,
                   lane_bits: int | None = None, elem_bits: int | None = None) -> None:
    """Raise :class:`~repro.errors.ISAError` unless ``op`` is a sub-array
    compute operation that can run on rows of ``row_bits``: a second
    operand where it takes one, a clmul lane width of :data:`CLMUL_LANES`,
    and an arithmetic element width of :data:`ARITH_ELEM_BITS` that
    divides the row."""
    if op not in BLOCK_OPS:
        raise ISAError(f"unknown sub-array operation {op!r}")
    if op in TWO_OPERAND_OPS and not has_b:
        raise ISAError(f"{op} needs a second operand")
    if op == "clmul" and lane_bits not in CLMUL_LANES:
        raise ISAError(f"cc_clmul lane width must be "
                       f"{'/'.join(map(str, CLMUL_LANES))}, got {lane_bits}")
    if op in ARITH_OPS:
        if elem_bits not in ARITH_DTYPES:
            raise ISAError(f"arithmetic element width must be "
                           f"{'/'.join(map(str, ARITH_ELEM_BITS))}, got {elem_bits}")
        if row_bits % elem_bits:
            raise ISAError(f"{row_bits}-bit row is not divisible into {elem_bits}-bit elements")


def block_op(op: str, a: np.ndarray, b: np.ndarray | None = None,
             lane_bits: int | None = None,
             elem_bits: int | None = None) -> tuple[np.ndarray | None, list]:
    """One sub-array operation over packed rows: ``(out, results)``.

    ``a`` and ``b`` are ``(n, row_bytes)`` (or 1-D single-row) uint8
    arrays; ``b`` is the second operand row of each tuple (the key row of
    ``search`` and broadcast ``clmul``).  ``out`` holds the ``(n,
    row_bytes)`` rows a destination receives, or is None for the ops that
    write none (``cmp``, ``search``, ``clmul``, ``reduce``).  ``results``
    has one entry per row, as ``op_batch`` returns it: the result
    ``bytes`` of a data-producing op, ``None`` for ``buz``, the word
    (``cmp``) or key (``search``) equality mask, the packed lane
    parities of ``clmul`` and the 64-bit element sum of ``reduce``.
    """
    a = _as_matrix(a)
    check_block_op(op, a.shape[1] * 8, b is not None, lane_bits, elem_bits)
    if op in ("add", "mul"):
        out = arith_rows(op, a, b, elem_bits)
    elif op in ROW_OPS:
        out = logical_rows(op, a, b)
        if op == "buz":
            return out, [None] * len(out)
    elif op in ("cmp", "search"):
        chunk_bytes = WORD_SIZE if op == "cmp" else BLOCK_SIZE
        return None, equality_mask(a, b, chunk_bytes).tolist()
    elif op == "clmul":
        nbytes = (a.shape[1] * 8 // lane_bits + 7) // 8
        return None, [m.to_bytes(nbytes, "little")
                      for m in clmul_mask(a, b, lane_bits).tolist()]
    else:
        return None, reduce_rows(a, elem_bits).tolist()
    return out, [row.tobytes() for row in out]

