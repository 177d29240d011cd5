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

from ..params import CacheLevelConfig


def partitions_match(addr_a: int, addr_b: int, config: CacheLevelConfig) -> bool:
    """True iff two block addresses map to the same block partition."""
    mask = (1 << config.min_locality_bits) - 1
    return (addr_a & mask) == (addr_b & mask)


def check_operand_locality(addrs: Sequence[int], config: CacheLevelConfig) -> bool:
    """Whether every address shares a block partition with the first (the
    controller runs an op whose operands do not near-place)."""
    return all(partitions_match(addrs[0], addr, config) for addr in addrs[1:])
