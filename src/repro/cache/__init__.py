"""Cache hierarchy substrate: geometry, coherence, and interconnects.

This package builds the conventional three-level hierarchy of Table IV -
private L1/L2, shared NUCA L3 slices on a ring, directory MESI coherence,
and a flat DRAM backing store - with the operand-locality-aware geometry of
Section IV-C: all ways of a set map to one block partition, and bank/
partition-select bits come from the low set-index bits, so page-aligned
operands always share bit-lines.

Data is physically stored in :class:`~repro.sram.ComputeSubarray` instances
(one per block partition), which is what lets the CC controller compute on
cached data in place.  Tags, states, LRU stamps and pins sit in flat
per-level lists with a block-number index (:mod:`repro.cache.set_assoc`).
"""

from .block import MESIState
from .cache import CacheLevel
from .geometry import AddressParts, CacheGeometry
from .hierarchy import CacheHierarchy
from .locality import check_operand_locality, partitions_match
from .memory import MainMemory
from .prefetch import StridePrefetcher
from .ring import RingInterconnect

__all__ = [
    "MESIState",
    "CacheLevel",
    "AddressParts",
    "CacheGeometry",
    "CacheHierarchy",
    "check_operand_locality",
    "partitions_match",
    "MainMemory",
    "StridePrefetcher",
    "RingInterconnect",
]
