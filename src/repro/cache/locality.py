"""Operand-locality predicates (Section IV-C, Table III).

In-place computation requires all operands of a block-level operation to be
stored in the same block partition (rows sharing bit-lines).  With the
geometry of :mod:`repro.cache.geometry`, that reduces to a pure address
check: the low ``min_locality_bits`` bits (offset + bank-select +
partition-select) of every operand address must agree.

``min_locality_bits`` is 8 / 10 / 12 for the paper's L1-D / L2 / L3-slice,
so 4 KB page alignment (12 matching low bits) satisfies all levels at once -
this is the property the compiler/allocator relies on, and a binary compiled
for N matching bits stays correct on any cache requiring <= N.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import OperandLocalityError
from ..params import CacheLevelConfig


def partitions_match(addr_a: int, addr_b: int, config: CacheLevelConfig) -> bool:
    """True iff two block addresses map to the same block partition."""
    mask = (1 << config.min_locality_bits) - 1
    return (addr_a & mask) == (addr_b & mask)


def check_operand_locality(
    addrs: Sequence[int], config: CacheLevelConfig, strict: bool = False
) -> bool:
    """Check that every address shares a block partition with the first.

    With ``strict`` a failure raises :class:`OperandLocalityError` naming
    the offending operand; otherwise the predicate simply returns False and
    the controller falls back to near-place execution.
    """
    if not addrs:
        return True
    base = addrs[0]
    for addr in addrs[1:]:
        if not partitions_match(base, addr, config):
            if strict:
                mask = (1 << config.min_locality_bits) - 1
                raise OperandLocalityError(
                    f"operand {addr:#x} (low bits {addr & mask:#x}) does not share a "
                    f"block partition with {base:#x} (low bits {base & mask:#x}): "
                    f"{config.min_locality_bits} low address bits must match"
                )
            return False
    return True

