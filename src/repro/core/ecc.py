"""Error detection and correction for Compute Caches (Section IV-I).

A real SECDED Hamming(72, 64) code protects each 64-bit word: 7 Hamming
parity bits plus one overall parity bit give single-error correction and
double-error detection.  The code is *linear* - ``ECC(a ^ b) = ECC(a) ^
ECC(b)`` - which is exactly the property the paper's XOR-check scheme
exploits for in-place logical operations.

The paper gives each CC operation an ECC scheme: ``cc_copy`` copies the
source's ECC, ``cc_buz`` installs the ECC of the zero block, ``cc_cmp``/
``cc_search`` compare the operands' ECCs alongside their data, and a
logical op either reads out ``a XOR b`` and verifies ``ECC(a XOR b) ==
ECC(a) XOR ECC(b)`` at the ECC logic unit (:func:`xor_check`) or leaves
the common path untouched and relies on idle-cycle scrubbing, the
paper's preference (soft errors are rare: 0.7-7 errors/year).  This
module is the code and the XOR check; the scrub sweep is
:class:`~repro.core.scrub.ScrubService`.  The copy, zero and compare
schemes are not modelled.
"""

from __future__ import annotations

from ..bitops import bytes_xor, parity
from ..errors import ECCError
from ..params import WORD_SIZE

_DATA_BITS = 64
_HAMMING_PARITY_BITS = 7  # covers up to 120 data bits; 64 fits
_HAMMING_MASK = (1 << _HAMMING_PARITY_BITS) - 1
_DATA_POSITIONS = [
    pos for pos in range(1, 200) if pos & (pos - 1)
][:_DATA_BITS]
_POSITION_TO_DATA_BIT = {pos: i for i, pos in enumerate(_DATA_POSITIONS)}


def _build_masks() -> list[int]:
    """For each Hamming parity bit, the mask over the 64 data bits it covers.

    Data bits occupy the non-power-of-two codeword positions 3,5,6,7,9,...;
    parity bit *p* (at position ``2**p``) covers every codeword position with
    bit *p* set.
    """
    masks = []
    for p in range(_HAMMING_PARITY_BITS):
        mask = 0
        for i, position in enumerate(_DATA_POSITIONS):
            if position & (1 << p):
                mask |= 1 << i
        masks.append(mask)
    return masks


_PARITY_MASKS = _build_masks()


def encode_word(data: int) -> int:
    """8-bit check value (7 Hamming bits + overall parity) for a 64-bit word."""
    check = 0
    for p, mask in enumerate(_PARITY_MASKS):
        check |= parity(data & mask) << p
    overall = parity(data) ^ parity(check)
    return check | (overall << _HAMMING_PARITY_BITS)


def check_word(data: int, check: int) -> int:
    """The word ``data`` was written as, given its check byte.

    Textbook SECDED decode: the Hamming syndrome locates a flipped bit and
    the *whole-codeword* parity (data + Hamming bits + overall bit, even by
    construction) distinguishes single from double errors.  A single flipped
    data bit is corrected; a flipped check bit leaves ``data`` as it is.
    Raises :class:`ECCError` on an uncorrectable (double-bit) error.
    """
    hamming_stored = check & _HAMMING_MASK
    overall_stored = (check >> _HAMMING_PARITY_BITS) & 1
    syndrome = (hamming_stored ^ encode_word(data)) & _HAMMING_MASK
    codeword_parity = parity(data) ^ parity(hamming_stored) ^ overall_stored
    if codeword_parity == 0:
        if syndrome:
            # Even total parity with a non-zero syndrome: two bits flipped.
            raise ECCError(f"uncorrectable double-bit error (syndrome {syndrome:#x})")
        return data
    # Odd total parity: exactly one bit flipped.  A zero syndrome means the
    # overall-parity bit was hit, a power-of-two one a Hamming bit: either
    # way the data is intact.
    data_bit = _POSITION_TO_DATA_BIT.get(syndrome)
    return data if data_bit is None else data ^ (1 << data_bit)


def encode_block(data: bytes) -> bytes:
    """One check byte per 64-bit word: 8 ECC bytes per 64-byte block."""
    if len(data) % WORD_SIZE:
        raise ECCError(f"block of {len(data)} bytes is not whole words")
    return bytes(encode_word(int.from_bytes(data[i : i + WORD_SIZE], "little"))
                 for i in range(0, len(data), WORD_SIZE))


def check_block(data: bytes, ecc: bytes) -> bytes:
    """Check every word of ``data`` against ``ecc``; returns the corrected
    data, or raises :class:`ECCError` on an uncorrectable word."""
    if len(ecc) * WORD_SIZE != len(data):
        raise ECCError("ECC length does not match data length")
    return b"".join(
        check_word(int.from_bytes(data[i * WORD_SIZE : (i + 1) * WORD_SIZE], "little"),
                   check).to_bytes(WORD_SIZE, "little")
        for i, check in enumerate(ecc))


def xor_check(xor_data: bytes, ecc_a: bytes, ecc_b: bytes) -> bytes:
    """XOR-linearity check for in-place logical ops.

    Verifies ``ECC(a XOR b) == ECC(a) XOR ECC(b)`` and returns the
    recomputed ECC of the XOR (the logic unit reuses the machinery to
    produce the result's ECC).  Each check costs extra transfers to the
    ECC logic unit, which is why scrubbing is the preferred policy.
    """
    computed = encode_block(xor_data)
    if computed != bytes_xor(ecc_a, ecc_b):
        raise ECCError("XOR-linearity ECC check failed: operand bit error detected")
    return computed
