"""Operand-locality-aware cache geometry (Section IV-C, Figure 5).

The geometry maps an address to (set, bank, block partition) and a
(set, way) pair to a physical sub-array row:

* the block offset is the low ``offset_bits`` of the address;
* the *low* set-index bits select the bank, the next bits select the block
  partition within the bank (Figure 5(b));
* the remaining set-index bits select the row group inside the partition;
* **all ways of a set map to the same block partition** (Figure 5(a)), so
  operand locality never depends on run-time way choice.

Consequently two addresses map to the same block partition iff their low
``offset_bits + bank_bits + bp_bits`` address bits agree - the Table III
"minimum address bits match" rule that lets software guarantee operand
locality with page alignment alone.

Each block partition is realized by one sub-array of the machine's backend
(:data:`~repro.sram.SUBARRAYS`) whose rows each hold one cache block; any
two blocks of a partition can be computed on in place.  The ``packed``
sub-arrays of one level are views of one shared ``(partitions, rows,
block_size)`` uint8 block.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AddressError
from ..params import CacheLevelConfig
from ..sram import SUBARRAYS, ComputeSubarray, PackedSubarray


@dataclass(frozen=True)
class AddressParts:
    """Decoded address fields for one cache level."""

    addr: int
    tag: int
    set_index: int
    offset: int
    bank: int
    bp: int
    row_group: int

    @property
    def partition(self) -> int:
        """Flat block-partition id: bank-major ordering."""
        return self.bank * self._bps_per_bank + self.bp

    # populated by CacheGeometry.decode via object.__setattr__-free trick:
    # store bps_per_bank alongside to keep the dataclass frozen and simple.
    _bps_per_bank: int = 1


class CacheGeometry:
    """Address decoding plus the physical sub-array grid of one cache level."""

    def __init__(self, config: CacheLevelConfig, backend: str = "bitexact") -> None:
        self.config = config
        # Decode is on the critical path of every cache access and every CC
        # block operation; precompute the field masks/shifts once and
        # memoize decoded addresses (the config is frozen, so decode is
        # pure and the cache can never go stale).
        self._offset_mask = config.block_size - 1
        self._offset_bits = config.offset_bits
        self._set_mask = config.sets - 1
        self._tag_shift = config.offset_bits + config.set_index_bits
        self._bank_mask = config.banks - 1
        self._bp_shift = config.bank_bits
        self._bp_mask = config.bps_per_bank - 1
        self._rg_shift = config.bank_bits + config.bp_bits
        self._low_set_mask = config.num_partitions - 1
        self._ways = config.ways
        self._bps_per_bank = config.bps_per_bank
        self._decode_cache: dict[int, AddressParts] = {}
        # One extra row per sub-array is reserved for cc_search key
        # replication: the key must share bit-lines with the data it is
        # compared against, so each block partition holds its own copy.
        self.key_row = config.blocks_per_partition
        # The backend's sub-array class builds the level's partitions
        # (packed ones share one block, so a batch spanning partitions is
        # one kernel call).
        self.subarrays = SUBARRAYS[backend].level(
            config.num_partitions, config.blocks_per_partition + 1, config.block_size * 8)
        # A set's sub-array, by its low set-index bits (bank, then bp).
        self._subarray_by_low_set = [
            self.subarrays[(low & self._bank_mask) * self._bps_per_bank + (low >> self._bp_shift)]
            for low in range(config.num_partitions)
        ]

    # -- address decode -------------------------------------------------------

    def decode(self, addr: int) -> AddressParts:
        """Split an address into tag/set/offset/bank/partition fields."""
        parts = self._decode_cache.get(addr)
        if parts is not None:
            return parts
        if addr < 0:
            raise AddressError(f"negative address {addr:#x}")
        set_index = (addr >> self._offset_bits) & self._set_mask
        parts = AddressParts(
            addr=addr,
            tag=addr >> self._tag_shift,
            set_index=set_index,
            offset=addr & self._offset_mask,
            bank=set_index & self._bank_mask,
            bp=(set_index >> self._bp_shift) & self._bp_mask,
            row_group=set_index >> self._rg_shift,
            _bps_per_bank=self._bps_per_bank,
        )
        self._decode_cache[addr] = parts
        return parts

    def partition_of(self, addr: int) -> int:
        """Flat block-partition id an address maps to."""
        return self.decode(addr).partition

    def row_of(self, set_index: int, way: int) -> int:
        """Physical sub-array row of (set, way).

        All ways of a set sit in consecutive rows of the set's partition,
        implementing the way->partition mapping of Figure 5(a).
        """
        if not 0 <= way < self._ways:
            raise AddressError(f"way {way} outside 0..{self._ways - 1}")
        return (set_index >> self._rg_shift) * self._ways + way

    # -- physical data plane ----------------------------------------------------

    def locate(self, addr: int, way: int) -> tuple[ComputeSubarray | PackedSubarray, int]:
        """``(sub-array, row)`` of a resident block - the handle the CC
        controller uses to issue in-place operations."""
        parts = self.decode(addr)
        row = self.row_of(parts.set_index, way)
        return self.subarrays[parts.partition], row

    def slot(self, set_index: int, way: int) -> tuple[ComputeSubarray | PackedSubarray, int]:
        """``(sub-array, row)`` of an in-range (set, way); no address decode."""
        return (self._subarray_by_low_set[set_index & self._low_set_mask],
                (set_index >> self._rg_shift) * self._ways + way)

    def write_key(self, partition: int, key: bytes) -> int:
        """Replicate a search key into a partition's reserved key row.

        Returns the key row index so the caller can issue the in-place
        search against it.
        """
        self.subarrays[partition].write_block(self.key_row, key)
        return self.key_row
