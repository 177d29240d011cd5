"""One cache level: its lines, compute sub-arrays and accounting.

:class:`CacheLevel` is the mechanical container the coherence protocol and
the CC controllers manipulate.  It owns the level's address split: a block
address's block number is ``addr >> offset_bits``, and the block number
modulo ``sets`` is its set index.  It owns the level's lines too:
the block number, MESI state, LRU stamp and pin owner (``None`` while
unpinned) of every line sit in flat lists indexed by ``set_index * ways +
way``, and one dict maps the block number of every valid line to its way,
so a probe is one dict lookup.  Address entry points check a block address
once (aligned, non-negative); the ``(set_index, way)`` lines they derive
are used unchecked.

Replacement is true LRU.  Lines pinned by the CC controller are excluded
from victim selection and promoted to MRU while their operation waits for
missing operands (Section IV-E); the operand lines of a piece that has
nothing to fetch are promoted the same way without a pin.

Block data sits in compute sub-arrays (one per block partition, see
:class:`~repro.cache.geometry.CacheGeometry`), all views of the level's one
row store.  A read, write, fill, eviction, invalidate or peek moves a
line's bytes as one slice of that store: the byte offset comes from the
set index, the geometry's per-low-set partition table and two shifts, and
the partition's :class:`~repro.sram.SubarrayStats` count the read or write
inline, as a sub-array call would.  A conventional read or write moves the
block over the level's H-tree (an ``htree.transfer`` event; in-place work
never does, Table I), so ``stats.reads + stats.writes`` is the level's
H-tree transfer count.  The level charges Table-V energies to
the machine's :class:`~repro.energy.EnergyLedger` under its name and
exposes the ``(sub-array, row)`` handles in-place computation needs
(:meth:`CacheLevel.locate`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..energy.accounting import EnergyLedger
from ..energy.mcpat import charge_cache_read, charge_cache_write
from ..errors import AddressError, CoherenceError, PinnedLineError
from ..params import BLOCK_SIZE, CacheLevelConfig
from ..sram import ComputeSubarray, PackedSubarray, SubarrayStats
from .block import MESIState
from .geometry import CacheGeometry

INVALID = MESIState.INVALID


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


@dataclass
class TagStats:
    """Tag-store counters: counted lookups, their hits, evictions of a
    valid line, and pinned ways a victim choice passed over."""

    lookups: int = 0
    hits: int = 0
    evictions: int = 0
    pinned_evictions_avoided: int = 0


class CacheLevel:
    """A single cache (an L1, an L2, or one L3 NUCA slice).

    ``name`` is the level's key in the energy tables (``L1-D``, ``L2`` or
    ``L3-slice``)."""

    def __init__(
        self,
        name: str,
        config: CacheLevelConfig,
        ledger: EnergyLedger,
        backend: str = "bitexact",
        tracer=None,
        unit: int = 0,
    ) -> None:
        self.name = name
        self.config = config
        self.ledger = ledger
        self.tracer = tracer
        self.unit = unit
        self.ways = config.ways
        self._offset_bits = config.offset_bits
        self._set_mask = config.sets - 1
        lines = config.blocks
        self._block_at = [0] * lines
        self._state = [INVALID] * lines
        self._lru = [0] * lines
        self._owner: list[int | None] = [None] * lines
        self._index: dict[int, int] = {}
        """Block number -> way, for valid lines only."""
        self._way_of = self._index.get
        self._clock = 0
        self.tag_stats = TagStats()
        self.geometry = CacheGeometry(config, backend)
        self._lines = self.geometry.lines
        self._low_sets = self.geometry.low_sets
        self._low_set_mask = self.geometry.low_set_mask
        self._row_shift = self.geometry.row_shift
        self.stats = CacheLevelStats()
        self.epoch = 0
        """Residency epoch: bumped on every fill and invalidate.  The CC
        controller's memoized level-selection is valid only while the
        epochs of all caches are unchanged — any counter that could stale
        it moves this number.  State-only transitions (MESI up/downgrades)
        do not bump it; consumers that depend on writability must
        re-probe."""

    # -- presence -----------------------------------------------------------------

    def _block(self, addr: int) -> int:
        """Block number (the line index's key) of a block address."""
        if addr % BLOCK_SIZE:
            raise AddressError(f"{self.name}: unaligned block address {addr:#x}")
        if addr < 0:
            raise AddressError(f"negative address {addr:#x}")
        return addr >> self._offset_bits

    def set_of(self, addr: int) -> int:
        """Set index of a block address."""
        return self._block(addr) & self._set_mask

    def _line(self, addr: int) -> tuple[int, int | None]:
        """``(set_index, way)`` of a block address; way None if absent."""
        block = self._block(addr)
        return block & self._set_mask, self._way_of(block)

    def _resident(self, addr: int, what: str) -> tuple[int, int]:
        set_index, way = self._line(addr)
        if way is None:
            raise CoherenceError(f"{self.name}: {what} absent block {addr:#x}")
        return set_index, way

    def lookup(self, addr: int) -> tuple[int, int, MESIState] | None:
        """Tag lookup (counted); returns a hit line's ``(set_index, way,
        state)`` - the handle :meth:`read_line` takes - or None."""
        set_index, way = self._line(addr)
        self.tag_stats.lookups += 1
        if self.tracer is not None:
            self.tracer.emit("cache.lookup", level=self.name, unit=self.unit,
                             addr=addr, outcome="hit" if way is not None else "miss")
        if way is None:
            return None
        self.tag_stats.hits += 1
        return set_index, way, self._state[set_index * self.ways + way]

    def probe(self, addr: int) -> int | None:
        """Uncounted lookup: the way holding a block address, or None."""
        return self._way_of(self._block(addr))

    def contains(self, addr: int) -> bool:
        return self._way_of(self._block(addr)) is not None

    def state_of(self, addr: int) -> MESIState:
        set_index, way = self._line(addr)
        return INVALID if way is None else self._state[set_index * self.ways + way]

    def set_state(self, addr: int, state: MESIState) -> None:
        self.set_line_state(*self._resident(addr, "state change on"), state)

    def set_line_state(self, set_index: int, way: int, state: MESIState) -> None:
        """:meth:`set_state` of the line a :meth:`lookup` found: a valid
        line moves to another valid state (:meth:`invalidate` drops one)."""
        if state is INVALID:
            raise CoherenceError(f"{self.name}: set {set_index} way {way}: "
                                 "invalidate a line instead of setting it INVALID")
        self._state[set_index * self.ways + way] = state

    def resident_lines(self, addrs, writable: bool = False) -> list[tuple[int, int]] | None:
        """Uncounted lookup of block addresses: the ``(set_index, way)`` of
        each, or None when one is absent, or not writable when
        ``writable``."""
        lines = []
        ways, mask, way_of, states = self.ways, self._set_mask, self._way_of, self._state
        for addr in addrs:
            block = self._block(addr)
            way = way_of(block)
            if way is None:
                return None
            set_index = block & mask
            if writable and not states[set_index * ways + way].writable:
                return None
            lines.append((set_index, way))
        return lines

    # -- data plane ----------------------------------------------------------------

    def _row(self, set_index: int, way: int) -> tuple[int, SubarrayStats]:
        """Byte offset of line ``(set_index, way)`` in the row store, and
        the statistics of the partition that holds it."""
        base, stats = self._low_sets[set_index & self._low_set_mask]
        return base + (((set_index >> self._row_shift) * self.ways + way)
                       << self._offset_bits), stats

    def _check_size(self, data: bytes) -> None:
        if len(data) != BLOCK_SIZE:
            raise AddressError(f"{self.name}: block of {len(data)} bytes does not "
                               f"fill a {BLOCK_SIZE}-byte line")

    def read_block(self, addr: int, charge: bool = True) -> bytes:
        """Read a resident block (conventional access: array + H-tree)."""
        return self.read_line(addr, *self._resident(addr, "read of"), charge)

    def read_line(self, addr: int, set_index: int, way: int,
                  charge: bool = True) -> bytes:
        """:meth:`read_block` of the block at ``addr`` that a
        :meth:`lookup` found in ``(set_index, way)``."""
        self._clock += 1
        self._lru[set_index * self.ways + way] = self._clock
        self.stats.reads += 1
        if self.tracer is not None:
            self.tracer.emit("htree.transfer", level=self.name, unit=self.unit)
            self.tracer.emit("cache.read", level=self.name, unit=self.unit,
                             addr=addr)
        if charge:
            charge_cache_read(self.ledger, self.name)
        at, stats = self._row(set_index, way)
        stats.reads += 1
        return self._lines[at:at + BLOCK_SIZE].tobytes()

    def write_block(self, addr: int, data: bytes, dirty: bool = True, charge: bool = True) -> None:
        """Write a resident block; marks it MODIFIED unless ``dirty=False``.
        A ``data`` that is not one block raises before anything changes."""
        self._check_size(data)
        set_index, way = self._resident(addr, "write to")
        slot = set_index * self.ways + way
        if dirty:
            self._state[slot] = MESIState.MODIFIED
        self._clock += 1
        self._lru[slot] = self._clock
        self.stats.writes += 1
        if self.tracer is not None:
            self.tracer.emit("htree.transfer", level=self.name, unit=self.unit)
            self.tracer.emit("cache.write", level=self.name, unit=self.unit,
                             addr=addr)
        if charge:
            charge_cache_write(self.ledger, self.name)
        at, stats = self._row(set_index, way)
        self._lines[at:at + BLOCK_SIZE] = data
        stats.writes += 1

    def _victim(self, set_index: int) -> int:
        """LRU victim way among unpinned ways; an invalid way wins at once."""
        base = set_index * self.ways
        states = self._state[base:base + self.ways]
        if INVALID in states:
            return states.index(INVALID)
        free = [(self._lru[slot], slot - base) for slot in range(base, base + self.ways)
                if self._owner[slot] is None]
        if not free:
            raise PinnedLineError(f"{self.name}: all {self.ways} ways of set "
                                  f"{set_index} are pinned by CC operations")
        self.tag_stats.pinned_evictions_avoided += self.ways - len(free)
        return min(free)[1]

    def fill(self, addr: int, data: bytes, state: MESIState) -> Eviction | None:
        """Allocate a block in the valid ``state``, MRU, evicting the LRU
        unpinned victim if needed.

        Returns the eviction (with its data and dirtiness) so the caller -
        the coherence engine - can write it back or drop it.  A ``data``
        that is not one block raises before anything changes.
        """
        self._check_size(data)
        block = self._block(addr)
        if self._way_of(block) is not None:
            raise CoherenceError(f"{self.name}: double fill of block {addr:#x}")
        set_index = block & self._set_mask
        way = self._victim(set_index)
        slot = set_index * self.ways + way
        at, stats = self._row(set_index, way)
        lines = self._lines
        victim_state = self._state[slot]
        eviction = None
        if victim_state is not INVALID:
            self.tag_stats.evictions += 1
            victim_block = self._block_at[slot]
            del self._index[victim_block]
            victim_addr = victim_block << self._offset_bits
            stats.reads += 1
            eviction = Eviction(victim_addr, lines[at:at + BLOCK_SIZE].tobytes(),
                                victim_state.dirty)
            if eviction.dirty:
                self.stats.writebacks_out += 1
                if self.tracer is not None:
                    self.tracer.emit("cache.writeback", level=self.name,
                                     unit=self.unit, addr=victim_addr)
        self._block_at[slot] = block
        self._state[slot] = state
        self._index[block] = way
        self._clock += 1
        self._lru[slot] = self._clock
        lines[at:at + BLOCK_SIZE] = data
        stats.writes += 1
        self.stats.fills += 1
        self.epoch += 1
        if self.tracer is not None:
            self.tracer.emit("cache.fill", level=self.name, unit=self.unit,
                             addr=addr)
        charge_cache_write(self.ledger, self.name)
        return eviction

    def invalidate(self, addr: int) -> tuple[bytes, bool] | None:
        """Remove a block (INVALID, unpinned); returns ``(data, dirty)`` if
        it was present."""
        set_index, way = self._line(addr)
        if way is None:
            return None
        slot = set_index * self.ways + way
        at, stats = self._row(set_index, way)
        stats.reads += 1
        data = self._lines[at:at + BLOCK_SIZE].tobytes()
        dirty = self._state[slot].dirty
        del self._index[self._block_at[slot]]
        self._state[slot] = INVALID
        self._owner[slot] = None
        self.epoch += 1
        return data, dirty

    def peek_block(self, addr: int) -> bytes:
        """Read a resident block without touching LRU, stats, or energy
        (verification backdoor)."""
        at, _ = self._row(*self._resident(addr, "peek of"))
        return self._lines[at:at + BLOCK_SIZE].tobytes()

    # -- CC support (Section IV-E) ------------------------------------------------

    def locate(self, addr: int) -> tuple[ComputeSubarray | PackedSubarray, int]:
        """``(sub-array, row)`` of a resident block for in-place compute."""
        return self.geometry.slot(*self._resident(addr, "locate of"))

    def pin(self, addr: int, owner: int) -> tuple[int, int]:
        """Pin a resident block for CC instruction ``owner`` and promote it
        to MRU; returns the ``(set_index, way)`` it is pinned in (its row
        is ``geometry.slot(set_index, way)``)."""
        set_index, way = self._resident(addr, "pin of")
        slot = set_index * self.ways + way
        held = self._owner[slot]
        if held is not None and held != owner:
            raise PinnedLineError(f"{self.name}: block {addr:#x} already pinned "
                                  f"by CC instruction {held}")
        self._owner[slot] = owner
        self._clock += 1
        self._lru[slot] = self._clock
        return set_index, way

    def promote(self, lines: list[tuple[int, int]]) -> None:
        """Promote each ``(set_index, way)`` of ``lines`` to MRU in turn,
        one LRU tick each, as :meth:`pin` does, without pinning it."""
        ways, lru, clock = self.ways, self._lru, self._clock
        for set_index, way in lines:
            clock += 1
            lru[set_index * ways + way] = clock
        self._clock = clock

    def unpin(self, addr: int) -> None:
        set_index, way = self._line(addr)
        if way is not None:
            self._owner[set_index * self.ways + way] = None

    def is_pinned(self, addr: int) -> bool:
        set_index, way = self._line(addr)
        return way is not None and self._owner[set_index * self.ways + way] is not None

    # -- debugging / inclusion audits ----------------------------------------------

    def resident_addresses(self) -> list[int]:
        """Addresses of all valid blocks, set-major and way-minor
        (inclusion-invariant checks, scrubbing, fault-strike selection)."""
        return [block << self._offset_bits
                for block, state in zip(self._block_at, self._state)
                if state is not INVALID]
