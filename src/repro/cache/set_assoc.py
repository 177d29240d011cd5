"""Set-associative tag array with LRU replacement and CC pinning.

The tag array is pure metadata: the data plane lives in the sub-arrays
managed by :class:`~repro.cache.geometry.CacheGeometry`.  Replacement is
true LRU.  Lines pinned by the CC controller are excluded from victim
selection and promoted to MRU while their operation waits for missing
operands (Section IV-E).

Tag, MESI state, LRU stamp and pin owner (``None`` while unpinned) are
flat lists indexed by ``set_index * ways + way``, and ``index`` maps the
block number (``tag << set_index_bits | set_index``, i.e. ``addr >>
offset_bits``) of every valid line to its way: a probe is one dict lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AddressError, CoherenceError, PinnedLineError
from ..params import CacheLevelConfig
from .block import MESIState

INVALID = MESIState.INVALID


@dataclass
class SetAssocStats:
    lookups: int = 0
    hits: int = 0
    evictions: int = 0
    pinned_evictions_avoided: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits


class SetAssociativeArray:
    """Tags, states, LRU and pins for one cache level."""

    def __init__(self, config: CacheLevelConfig) -> None:
        self.sets = config.sets
        self.ways = config.ways
        self.set_index_bits = config.set_index_bits
        lines = self.sets * self.ways
        self._tag = [0] * lines
        self._state = [INVALID] * lines
        self._lru = [0] * lines
        self._owner: list[int | None] = [None] * lines
        self.index: dict[int, int] = {}
        """Block number -> way, for valid lines only."""
        self._clock = 0
        self.stats = SetAssocStats()

    # -- lookup -----------------------------------------------------------------

    def _slot(self, set_index: int, way: int) -> int:
        if not 0 <= set_index < self.sets:
            raise AddressError(f"set {set_index} outside 0..{self.sets - 1}")
        if not 0 <= way < self.ways:
            raise AddressError(f"way {way} outside 0..{self.ways - 1}")
        return set_index * self.ways + way

    def lookup(self, set_index: int, tag: int) -> int | None:
        """Return the way holding (set, tag), or None on miss."""
        self.stats.lookups += 1
        way = self.probe(set_index, tag)
        if way is not None:
            self.stats.hits += 1
        return way

    def probe(self, set_index: int, tag: int) -> int | None:
        """Like :meth:`lookup` but without touching statistics (used by
        coherence probes and CC level-selection)."""
        self._slot(set_index, 0)  # range check
        return self.index.get(tag << self.set_index_bits | set_index)

    def tag(self, set_index: int, way: int) -> int:
        return self._tag[self._slot(set_index, way)]

    def state(self, set_index: int, way: int) -> MESIState:
        return self._state[self._slot(set_index, way)]

    def set_state(self, set_index: int, way: int, state: MESIState) -> None:
        """Move a valid line to another valid state (:meth:`invalidate`
        drops a line)."""
        slot = self._slot(set_index, way)
        if INVALID in (state, self._state[slot]):
            raise CoherenceError(f"set {set_index} way {way}: no state change "
                                 f"{self._state[slot].value}->{state.value}")
        self._state[slot] = state

    def pin_owner(self, set_index: int, way: int) -> int | None:
        """The CC instruction pinning (set, way), or None."""
        return self._owner[self._slot(set_index, way)]

    # -- replacement --------------------------------------------------------------

    def touch(self, set_index: int, way: int) -> None:
        """Promote (set, way) to MRU."""
        self._clock += 1
        self._lru[self._slot(set_index, way)] = self._clock

    def victim_way(self, set_index: int) -> int:
        """LRU victim among unpinned ways; invalid ways win immediately."""
        base = self._slot(set_index, 0)
        states = self._state[base:base + self.ways]
        if INVALID in states:
            return states.index(INVALID)
        free = [(self._lru[slot], slot - base) for slot in range(base, base + self.ways)
                if self._owner[slot] is None]
        if not free:
            raise PinnedLineError(f"all {self.ways} ways of set {set_index} "
                                  "are pinned by CC operations")
        self.stats.pinned_evictions_avoided += self.ways - len(free)
        return min(free)[1]

    def install(self, set_index: int, way: int, tag: int, state: MESIState) -> None:
        """Fill (set, way) with a new tag in the given state, MRU position
        (the tag must not be valid in another way of the set)."""
        slot = self._slot(set_index, way)
        block = tag << self.set_index_bits | set_index
        other = self.index.get(block, way)
        if other != way:
            raise CoherenceError(f"set {set_index}: tag {tag:#x} already valid in way {other}")
        if self._state[slot] is not INVALID:
            self.stats.evictions += 1
            del self.index[self._tag[slot] << self.set_index_bits | set_index]
        self._tag[slot] = tag
        self._state[slot] = state
        self._owner[slot] = None
        if state is not INVALID:
            self.index[block] = way
        self.touch(set_index, way)

    def invalidate(self, set_index: int, way: int) -> None:
        """Drop (set, way): INVALID, unpinned, out of the index."""
        slot = self._slot(set_index, way)
        if self._state[slot] is not INVALID:
            del self.index[self._tag[slot] << self.set_index_bits | set_index]
            self._state[slot] = INVALID
        self._owner[slot] = None

    # -- pinning (Section IV-E) -----------------------------------------------------

    def pin(self, set_index: int, way: int, owner: int) -> None:
        """Pin a line for an in-flight CC operation and promote it to MRU."""
        slot = self._slot(set_index, way)
        held = self._owner[slot]
        if held is not None and held != owner:
            raise PinnedLineError(f"set {set_index} way {way} already pinned "
                                  f"by CC instruction {held}")
        self._owner[slot] = owner
        self.touch(set_index, way)

    def unpin(self, set_index: int, way: int) -> None:
        self._owner[self._slot(set_index, way)] = None

    # -- iteration (scrubbing, inclusion checks) -------------------------------------

    def valid_entries(self):
        """Yield ``(set_index, way, tag)`` for every valid line, set-major
        and way-minor (fault injection and scrubbing depend on this order)."""
        for slot, state in enumerate(self._state):
            if state is not INVALID:
                yield *divmod(slot, self.ways), self._tag[slot]
