"""Operand-locality-aware cache geometry (Section IV-C, Figure 5).

The geometry maps a set to its block partition and a (set, way) pair to a
physical sub-array row:

* the *low* set-index bits select the bank, the next bits select the block
  partition within the bank (Figure 5(b));
* the remaining set-index bits select the row group inside the partition;
* **all ways of a set map to the same block partition** (Figure 5(a)), so
  operand locality never depends on run-time way choice.

Consequently two addresses map to the same block partition iff their low
``offset_bits + bank_bits + bp_bits`` address bits agree - the Table III
"minimum address bits match" rule that lets software guarantee operand
locality with page alignment alone.  The set index itself is the cache
level's (:meth:`~repro.cache.cache.CacheLevel.set_of`).

Each block partition is realized by one sub-array of the machine's backend
(:data:`~repro.sram.SUBARRAYS`) whose rows each hold one cache block; any
two blocks of a partition can be computed on in place.  On both backends
the sub-arrays of one level are views of one shared ``(partitions, rows,
BLOCK_SIZE)`` uint8 block, the level's one row store.

The cache level moves a line's bytes itself, without a sub-array call:
``lines`` is the row store as flat bytes, and ``low_sets`` maps a set's low
(bank and partition-select) bits to its partition's byte offset and
statistics.  Line ``(set, way)`` is the ``BLOCK_SIZE`` bytes at that offset
plus ``((set >> row_shift) * ways + way) * BLOCK_SIZE``, the row
:meth:`CacheGeometry.slot` names.
"""

from __future__ import annotations

from ..params import BLOCK_SIZE, CacheLevelConfig
from ..sram import SUBARRAYS, ComputeSubarray, PackedSubarray


class CacheGeometry:
    """The physical sub-array grid of one cache level."""

    def __init__(self, config: CacheLevelConfig, backend: str = "bitexact") -> None:
        self._offset_bits = config.offset_bits
        self.low_set_mask = config.num_partitions - 1
        self.row_shift = config.bank_bits + config.bp_bits
        self._ways = config.ways
        # One extra row per sub-array is reserved for cc_search key
        # replication: the key must share bit-lines with the data it is
        # compared against, so each block partition holds its own copy.
        self.key_row = config.blocks_per_partition
        # The backend's sub-array class builds the level's partitions on
        # one block (so a packed batch spanning partitions is one kernel
        # call).
        self.subarrays = SUBARRAYS[backend].level(
            config.num_partitions, config.blocks_per_partition + 1, BLOCK_SIZE * 8)
        # A set's flat (bank-major) partition id, by its low set-index bits:
        # the bank, then the block partition within the bank.
        self._partition_by_low_set = [
            (low & (config.banks - 1)) * config.bps_per_bank + (low >> config.bank_bits)
            for low in range(config.num_partitions)
        ]
        self.lines = memoryview(self.subarrays[0].block).cast("B")
        partition_bytes = (config.blocks_per_partition + 1) * BLOCK_SIZE
        self.low_sets = [(partition * partition_bytes, self.subarrays[partition].stats)
                         for partition in self._partition_by_low_set]

    def partition_of(self, addr: int) -> int:
        """Flat block-partition id an address maps to."""
        return self._partition_by_low_set[(addr >> self._offset_bits) & self.low_set_mask]

    def slot(self, set_index: int, way: int) -> tuple[ComputeSubarray | PackedSubarray, int]:
        """``(sub-array, row)`` of an in-range (set, way).

        All ways of a set sit in consecutive rows of the set's partition,
        implementing the way->partition mapping of Figure 5(a).
        """
        return (self.subarrays[self._partition_by_low_set[set_index & self.low_set_mask]],
                (set_index >> self.row_shift) * self._ways + way)

    def write_key(self, partition: int, key: bytes) -> int:
        """Replicate a search key into a partition's reserved key row.

        Returns the key row index so the caller can issue the in-place
        search against it.
        """
        self.subarrays[partition].write_block(self.key_row, key)
        return self.key_row
