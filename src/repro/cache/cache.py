"""One cache level: tag array + compute sub-arrays + H-tree + accounting.

:class:`CacheLevel` is the mechanical container the coherence protocol and
the CC controllers manipulate.  It stores block data physically in compute
sub-arrays (one per block partition), charges Table-V energies to the
machine's :class:`~repro.energy.EnergyLedger`, and exposes the
``(sub-array, row)`` handles in-place computation needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bitops import bits_to_bytes
from ..energy.accounting import EnergyLedger
from ..energy.mcpat import charge_cache_read, charge_cache_write
from ..errors import AddressError, CoherenceError
from ..params import BLOCK_SIZE, CacheLevelConfig
from ..sram import ComputeSubarray
from .block import MESIState
from .geometry import CacheGeometry
from .htree import HTree
from .mshr import MSHRFile
from .set_assoc import SetAssociativeArray


@dataclass
class Eviction:
    """A victim block pushed out by a fill."""

    addr: int
    data: bytes
    dirty: bool


@dataclass
class CacheLevelStats:
    reads: int = 0
    writes: int = 0
    fills: int = 0
    writebacks_out: int = 0
    cc_inplace_ops: int = 0
    cc_nearplace_ops: int = 0


class CacheLevel:
    """A single cache (an L1, an L2, or one L3 NUCA slice)."""

    def __init__(
        self,
        config: CacheLevelConfig,
        ledger: EnergyLedger,
        commands_per_cycle: int = 1,
        mshr_capacity: int = 16,
        wordline_underdrive: bool = True,
        backend: str = "bitexact",
        tracer=None,
        unit: int = 0,
    ) -> None:
        self.config = config
        self.name = config.name
        self.ledger = ledger
        self.tracer = tracer
        self.unit = unit
        self.tags = SetAssociativeArray(config)
        self._way_of = self.tags.index.get
        self._offset_bits = config.offset_bits
        self._set_bits = self.tags.set_index_bits
        self._set_mask = self.tags.sets - 1
        self.geometry = CacheGeometry(
            config, wordline_underdrive=wordline_underdrive, backend=backend
        )
        self.htree = HTree(config.name, commands_per_cycle=commands_per_cycle,
                           tracer=tracer, unit=unit)
        self.mshrs = MSHRFile(capacity=mshr_capacity)
        self.stats = CacheLevelStats()
        self.epoch = 0
        """Residency epoch: bumped on every fill and invalidate.  The CC
        controller's memoized level-selection (and the stream scheduler's
        residency preflight caches) are valid only while the epochs of all
        caches are unchanged — any counter that could stale them moves this
        number.  State-only transitions (MESI up/downgrades) do not bump it;
        consumers that depend on writability must re-probe."""

    # -- presence -----------------------------------------------------------------

    def _block(self, addr: int) -> int:
        """Block number (the tag store's index key) of a block address."""
        if addr % BLOCK_SIZE:
            raise AddressError(f"{self.name}: unaligned block address {addr:#x}")
        if addr < 0:
            raise AddressError(f"negative address {addr:#x}")
        return addr >> self._offset_bits

    def _line(self, addr: int) -> tuple[int, int | None]:
        """``(set_index, way)`` of a block address; way None if absent."""
        block = self._block(addr)
        return block & self._set_mask, self._way_of(block)

    def _resident(self, addr: int, what: str) -> tuple[int, int]:
        set_index, way = self._line(addr)
        if way is None:
            raise CoherenceError(f"{self.name}: {what} absent block {addr:#x}")
        return set_index, way

    def lookup(self, addr: int) -> int | None:
        """Tag lookup (counted); returns the way or None."""
        block = self._block(addr)
        way = self.tags.lookup(block & self._set_mask, block >> self._set_bits)
        if self.tracer is not None:
            self.tracer.emit("cache.lookup", level=self.name, unit=self.unit,
                             addr=addr, outcome="hit" if way is not None else "miss")
        return way

    def probe(self, addr: int) -> int | None:
        """Uncounted presence check (coherence probes, CC level selection)."""
        return self._way_of(self._block(addr))

    def contains(self, addr: int) -> bool:
        return self._way_of(self._block(addr)) is not None

    def state_of(self, addr: int) -> MESIState:
        set_index, way = self._line(addr)
        return MESIState.INVALID if way is None else self.tags.state(set_index, way)

    def set_state(self, addr: int, state: MESIState) -> None:
        self.tags.set_state(*self._resident(addr, "state change on"), state)

    # -- data plane ----------------------------------------------------------------

    def read_block(self, addr: int, charge: bool = True) -> bytes:
        """Read a resident block (conventional access: array + H-tree)."""
        set_index, way = self._resident(addr, "read of")
        self.tags.touch(set_index, way)
        self.stats.reads += 1
        self.htree.record_transfer()
        if self.tracer is not None:
            self.tracer.emit("cache.read", level=self.name, unit=self.unit,
                             addr=addr)
        if charge:
            charge_cache_read(self.ledger, self.name)
        sub, row = self.geometry.slot(set_index, way)
        return sub.read_block(row)

    def write_block(self, addr: int, data: bytes, dirty: bool = True, charge: bool = True) -> None:
        """Write a resident block; marks it MODIFIED unless ``dirty=False``."""
        set_index, way = self._resident(addr, "write to")
        if dirty:
            self.tags.set_state(set_index, way, MESIState.MODIFIED)
        self.tags.touch(set_index, way)
        self.stats.writes += 1
        self.htree.record_transfer()
        if self.tracer is not None:
            self.tracer.emit("cache.write", level=self.name, unit=self.unit,
                             addr=addr)
        if charge:
            charge_cache_write(self.ledger, self.name)
        sub, row = self.geometry.slot(set_index, way)
        sub.write_block(row, data)

    def fill(self, addr: int, data: bytes, state: MESIState) -> Eviction | None:
        """Allocate a block, evicting the LRU victim if needed.

        Returns the eviction (with its data and dirtiness) so the caller -
        the coherence engine - can write it back or drop it.
        """
        block = self._block(addr)
        if self._way_of(block) is not None:
            raise CoherenceError(f"{self.name}: double fill of block {addr:#x}")
        tags, set_index = self.tags, block & self._set_mask
        way = tags.victim_way(set_index)
        sub, row = self.geometry.slot(set_index, way)
        victim_state = tags.state(set_index, way)
        eviction = None
        if victim_state is not MESIState.INVALID:
            victim_block = tags.tag(set_index, way) << self._set_bits | set_index
            victim_addr = victim_block << self._offset_bits
            eviction = Eviction(victim_addr, sub.read_block(row), victim_state.dirty)
            if eviction.dirty:
                self.stats.writebacks_out += 1
                if self.tracer is not None:
                    self.tracer.emit("cache.writeback", level=self.name,
                                     unit=self.unit, addr=victim_addr)
        tags.install(set_index, way, block >> self._set_bits, state)
        sub.write_block(row, data)
        self.stats.fills += 1
        self.epoch += 1
        if self.tracer is not None:
            self.tracer.emit("cache.fill", level=self.name, unit=self.unit,
                             addr=addr)
        charge_cache_write(self.ledger, self.name)
        return eviction

    def invalidate(self, addr: int) -> tuple[bytes, bool] | None:
        """Remove a block; returns ``(data, dirty)`` if it was present."""
        set_index, way = self._line(addr)
        if way is None:
            return None
        sub, row = self.geometry.slot(set_index, way)
        data = sub.read_block(row)
        dirty = self.tags.state(set_index, way).dirty
        self.tags.invalidate(set_index, way)
        self.epoch += 1
        return data, dirty

    def peek_block(self, addr: int) -> bytes:
        """Read a resident block without touching LRU, stats, or energy
        (verification backdoor)."""
        sub, row = self.geometry.slot(*self._resident(addr, "peek of"))
        if sub.is_packed:
            return sub.cells.read_row_bytes(row)
        return bits_to_bytes(sub.cells.read_row(row))

    # -- CC support -------------------------------------------------------------

    def locate(self, addr: int) -> tuple[ComputeSubarray, int]:
        """``(sub-array, row)`` of a resident block for in-place compute."""
        return self.geometry.slot(*self._resident(addr, "locate of"))

    def pin(self, addr: int, owner: int) -> None:
        self.tags.pin(*self._resident(addr, "pin of"), owner)

    def unpin(self, addr: int) -> None:
        set_index, way = self._line(addr)
        if way is not None:
            self.tags.unpin(set_index, way)

    def is_pinned(self, addr: int) -> bool:
        set_index, way = self._line(addr)
        return way is not None and self.tags.pin_owner(set_index, way) is not None

    # -- debugging / inclusion audits ----------------------------------------------

    def resident_addresses(self) -> list[int]:
        """Addresses of all valid blocks, set-major and way-minor
        (inclusion-invariant checks, scrubbing, fault-strike selection)."""
        return [
            (tag << self._set_bits | set_index) << self._offset_bits
            for set_index, _way, tag in self.tags.valid_entries()
        ]
