"""Bit-level helpers shared by the SRAM, cache, and application layers.

The simulator stores rows as numpy ``uint8`` byte arrays; the bit-exact
circuit unpacks the rows it activates into numpy ``bool`` arrays (one
element per bit-cell).  These helpers pack such bits back into bytes and
implement the word-granularity reductions the compute-cache circuits
perform (wired-NOR equality, XOR-reduction for carry-less multiply).

Bit order convention: bits are big-endian within a byte (``numpy.unpackbits``
default), which matches a left-to-right layout of bit-lines in a sub-array
row.  All round-trips are exact; the specific order only matters for lane
extraction, which consistently uses the same order.  Reduction masks use the
opposite, little-endian convention: word/lane 0 (the lowest-addressed)
occupies bit 0 of the mask.

Zero-length inputs are uniformly valid: every helper treats an empty byte
string (or empty bit vector) as the identity and returns an empty result
(or a zero mask) instead of raising.  :class:`AddressError` is reserved for
genuinely malformed inputs - mismatched operand lengths, partial bytes, or
ranges that do not divide into words/lanes.
"""

from __future__ import annotations

import numpy as np

from .errors import AddressError
from .kernels import pack_flags


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a bool array of bits (length divisible by 8) back into bytes."""
    if bits.size % 8:
        raise AddressError(f"bit vector length {bits.size} is not a whole number of bytes")
    return np.packbits(bits.astype(np.uint8)).tobytes()


def word_equality_mask(xor_bits: np.ndarray, word_bits: int = 64) -> int:
    """Wired-NOR the per-bit XOR results into a per-word equality mask.

    The circuit combines the bit-wise XOR outputs of one word with a
    wired-NOR (Section IV-B): the word compares equal iff every XOR bit is
    zero.  Returns an integer with bit ``i`` set iff word ``i`` matched;
    word 0 is the lowest-addressed word and occupies bit 0.
    """
    if xor_bits.size % word_bits:
        raise AddressError(
            f"xor vector of {xor_bits.size} bits is not divisible by word size {word_bits}"
        )
    if xor_bits.size == 0:
        return 0
    words = xor_bits.reshape(-1, word_bits)
    equal = ~words.any(axis=1)
    return int(pack_flags(equal)[0])


def xor_reduce_lanes(and_bits: np.ndarray, lane_bits: int) -> np.ndarray:
    """XOR-reduce each ``lane_bits``-wide lane of an AND result to one bit.

    Implements the XOR-reduction tree added to each sub-array for the
    ``cc_clmul`` operation (Section IV-B): for every lane,
    ``c_i = XOR over j of (a[j] & b[j])``.
    """
    if and_bits.size % lane_bits:
        raise AddressError(
            f"AND vector of {and_bits.size} bits is not divisible by lane size {lane_bits}"
        )
    lanes = and_bits.reshape(-1, lane_bits)
    return np.bitwise_xor.reduce(lanes.astype(np.uint8), axis=1).astype(bool)


def parity(value: int) -> int:
    """Parity (XOR-reduction) of an arbitrary-precision integer."""
    return bin(value).count("1") & 1


def bytes_xor(a: bytes, b: bytes) -> bytes:
    """Byte-wise XOR of two equal-length byte strings (``b"" ^ b"" == b""``)."""
    if len(a) != len(b):
        raise AddressError("XOR operands differ in length")
    if not a:
        return b""
    return (
        np.frombuffer(a, dtype=np.uint8) ^ np.frombuffer(b, dtype=np.uint8)
    ).tobytes()


def bytes_and(a: bytes, b: bytes) -> bytes:
    """Byte-wise AND of two equal-length byte strings (empty in, empty out)."""
    if len(a) != len(b):
        raise AddressError("AND operands differ in length")
    if not a:
        return b""
    return (
        np.frombuffer(a, dtype=np.uint8) & np.frombuffer(b, dtype=np.uint8)
    ).tobytes()


def bytes_or(a: bytes, b: bytes) -> bytes:
    """Byte-wise OR of two equal-length byte strings (empty in, empty out)."""
    if len(a) != len(b):
        raise AddressError("OR operands differ in length")
    if not a:
        return b""
    return (
        np.frombuffer(a, dtype=np.uint8) | np.frombuffer(b, dtype=np.uint8)
    ).tobytes()
