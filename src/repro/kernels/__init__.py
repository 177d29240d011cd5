"""Packed-word fast-path kernels for the Compute Cache functional model.

The bit-exact backend simulates every CC operation through the modeled
circuit: bytes are unpacked into per-bit ``bool`` arrays, bit-lines are
sensed, and masks are assembled bit by bit.  That is the right model for
circuit-level experiments but an 8x memory blow-up and the hot path of
every benchmark.  This package provides the *packed* backend: every
sub-array operation expressed as a vectorized numpy kernel over packed
``uint8`` rows — no bit unpacking anywhere — proven bit-exact against the
circuit model by the differential-equivalence harness
(``tests/test_backend_equivalence.py`` and the ``validate`` battery).
:func:`~repro.kernels.packed.block_op` is what every sub-array operation
computes, wherever it runs: in the packed sub-arrays, at the near-place
logic unit, or as the core's RISC fallback.
"""

from .packed import (
    POPCOUNT8,
    PackedCellArray,
    arith_rows,
    block_op,
    check_block_op,
    clmul_mask,
    equality_mask,
    logical_rows,
    pack_flags,
    reduce_rows,
)

__all__ = [
    "POPCOUNT8",
    "PackedCellArray",
    "arith_rows",
    "block_op",
    "check_block_op",
    "clmul_mask",
    "equality_mask",
    "logical_rows",
    "pack_flags",
    "reduce_rows",
]
