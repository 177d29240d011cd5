"""A cache level's set-associative line store, driven through block
addresses: LRU, pinning, victim selection, and a differential check of the
level's flat store against the per-entry algorithm it replaced."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.block import MESIState
from repro.cache.cache import CacheLevel, TagStats
from repro.cache.geometry import CacheGeometry
from repro.energy.accounting import EnergyLedger
from repro.errors import AddressError, CoherenceError, PinnedLineError
from repro.params import BLOCK_SIZE, CacheLevelConfig, sandybridge_8core

INVALID, SHARED = MESIState.INVALID, MESIState.SHARED
EXCLUSIVE, MODIFIED = MESIState.EXCLUSIVE, MESIState.MODIFIED


def make_level(size: int = 4 * 1024) -> CacheLevel:
    cfg = CacheLevelConfig(size=size, ways=4, banks=2, bps_per_bank=2, hit_latency=1)
    return CacheLevel("L1-D", cfg, EnergyLedger(), backend="packed")


def addr(level: CacheLevel, set_index: int, tag: int) -> int:
    """The block address of ``tag`` in ``set_index``."""
    return (tag * level.config.sets + set_index) * BLOCK_SIZE


def fill(level: CacheLevel, set_index: int, tag: int, state=SHARED):
    return level.fill(addr(level, set_index, tag), bytes(BLOCK_SIZE), state)


@pytest.fixture
def level():
    return make_level()


class TestLookupInstall:
    def test_miss_then_hit(self, level):
        assert level.lookup(addr(level, 0, 0x10)) is None
        fill(level, 0, 0x10, EXCLUSIVE)
        assert level.lookup(addr(level, 0, 0x10)) == (0, 0, EXCLUSIVE)
        assert level.tag_stats.hits == 1
        assert level.tag_stats.lookups == 2

    def test_probe_uncounted(self, level):
        fill(level, 0, 0x10)
        assert level.probe(addr(level, 0, 0x10)) == 0
        assert level.tag_stats.lookups == 0

    def test_install_evicts_stats(self, level):
        evictions = [fill(level, 0, tag, EXCLUSIVE) for tag in range(5)]
        assert level.tag_stats.evictions == 1
        assert evictions[4].addr == addr(level, 0, 0)


class TestLRU:
    def test_invalid_way_preferred(self, level):
        for tag in range(3):
            fill(level, 0, tag)
        level.invalidate(addr(level, 0, 1))
        fill(level, 0, 7)
        assert level.probe(addr(level, 0, 7)) == 1  # first invalid way, not LRU way 0

    def test_lru_order(self, level):
        for tag in range(4):
            fill(level, 0, tag)
        level.read_block(addr(level, 0, 0))  # way 0 becomes MRU; way 1 is now LRU
        assert fill(level, 0, 4).addr == addr(level, 0, 1)

    def test_touch_changes_victim(self, level):
        for tag in range(4):
            fill(level, 0, tag)
        level.read_block(addr(level, 0, 1))
        level.write_block(addr(level, 0, 0), bytes(BLOCK_SIZE))
        assert fill(level, 0, 4).addr == addr(level, 0, 2)


class TestPinning:
    def test_pinned_way_not_victim(self, level):
        for tag in range(4):
            fill(level, 0, tag)
        level.pin(addr(level, 0, 0), owner=7)
        for tag in (1, 2, 3):
            level.read_block(addr(level, 0, tag))  # way 0 is LRU but pinned
        assert fill(level, 0, 4).addr == addr(level, 0, 1)
        assert level.tag_stats.pinned_evictions_avoided == 1

    def test_all_pinned_raises(self, level):
        for tag in range(4):
            fill(level, 0, tag)
            level.pin(addr(level, 0, tag), owner=1)
        with pytest.raises(PinnedLineError):
            fill(level, 0, 4)

    def test_pin_promotes_to_mru(self, level):
        for tag in range(4):
            fill(level, 0, tag)
        level.pin(addr(level, 0, 0), owner=1)
        level.unpin(addr(level, 0, 0))
        # way 0 was MRU-promoted by the pin
        assert fill(level, 0, 4).addr == addr(level, 0, 1)

    def test_double_pin_same_owner_ok(self, level):
        fill(level, 0, 10)
        assert level.pin(addr(level, 0, 10), owner=1) == (0, 0)
        assert level.pin(addr(level, 0, 10), owner=1) == (0, 0)

    def test_double_pin_other_owner_rejected(self, level):
        fill(level, 0, 10)
        level.pin(addr(level, 0, 10), owner=1)
        with pytest.raises(PinnedLineError):
            level.pin(addr(level, 0, 10), owner=2)

    def test_install_clears_pin(self, level):
        fill(level, 0, 10)
        level.pin(addr(level, 0, 10), owner=1)
        level.invalidate(addr(level, 0, 10))
        fill(level, 0, 11, EXCLUSIVE)  # into the same way
        assert level.probe(addr(level, 0, 11)) == 0
        assert not level.is_pinned(addr(level, 0, 11))


class TestIteration:
    def test_valid_entries(self, level):
        fill(level, 3, 11, MODIFIED)
        fill(level, 0, 10)
        assert level.resident_addresses() == [addr(level, 0, 10), addr(level, 3, 11)]


class TestFlatStore:
    def test_set_state_moves_valid_lines_between_valid_states(self, level):
        block = addr(level, 0, 10)
        fill(level, 0, 10)
        level.set_state(block, MODIFIED)
        assert level.state_of(block) is MODIFIED
        with pytest.raises(CoherenceError):
            level.set_state(block, INVALID)
        with pytest.raises(CoherenceError):
            level.set_state(addr(level, 0, 11), SHARED)
        level.invalidate(block)
        assert level.probe(block) is None

    def test_tag_valid_in_another_way_rejected(self, level):
        fill(level, 0, 10)
        with pytest.raises(CoherenceError):
            fill(level, 0, 10)  # a block is valid in one way only
        assert level.probe(addr(level, 0, 10)) == 0
        assert level.resident_addresses() == [addr(level, 0, 10)]

    def test_table_iv_slice_allocates_no_per_line_objects(self):
        """Building a Table IV slice allocates no more objects than its
        sub-array grid plus a handful: its 32,768 lines are list slots."""
        config = sandybridge_8core().l3_slice
        gc.collect()
        before = len(gc.get_objects())
        geometry = CacheGeometry(config, "packed")
        grid = len(gc.get_objects()) - before
        gc.collect()
        before = len(gc.get_objects())
        level = CacheLevel("L3-slice", config, EnergyLedger(), backend="packed")
        assert len(gc.get_objects()) - before - grid < 64
        assert len(level.geometry.subarrays) == len(geometry.subarrays)
        assert level.resident_addresses() == []


class _ReferenceEntry:
    def __init__(self) -> None:
        self.tag, self.state, self.lru = 0, MESIState.INVALID, 0
        self.pinned, self.pin_owner = False, None


class ReferenceTags:
    """The per-entry tag array the flat store replaced: one object per
    line and a linear scan of the set on every probe."""

    def __init__(self, config: CacheLevelConfig) -> None:
        self.config = config
        self._sets = [[_ReferenceEntry() for _ in range(config.ways)]
                      for _ in range(config.sets)]
        self._clock = 0
        self.stats = TagStats()

    def _entries(self, set_index):
        if not 0 <= set_index < self.config.sets:
            raise AddressError(set_index)
        return self._sets[set_index]

    def entry(self, set_index, way):
        entries = self._entries(set_index)
        if not 0 <= way < self.config.ways:
            raise AddressError(way)
        return entries[way]

    def lookup(self, set_index, tag):
        self.stats.lookups += 1
        way = self.probe(set_index, tag)
        self.stats.hits += way is not None
        return way

    def probe(self, set_index, tag):
        return next((w for w, e in enumerate(self._entries(set_index))
                     if e.state is not MESIState.INVALID and e.tag == tag), None)

    def touch(self, set_index, way):
        self._clock += 1
        self.entry(set_index, way).lru = self._clock

    def victim_way(self, set_index):
        entries = self._entries(set_index)
        for way, e in enumerate(entries):
            if e.state is MESIState.INVALID:
                return way
        candidates = [(e.lru, w) for w, e in enumerate(entries) if not e.pinned]
        if not candidates:
            raise PinnedLineError(set_index)
        self.stats.pinned_evictions_avoided += self.config.ways - len(candidates)
        return min(candidates)[1]

    def install(self, set_index, way, tag, state):
        e = self.entry(set_index, way)
        self.stats.evictions += e.state is not MESIState.INVALID
        e.tag, e.state, e.pinned, e.pin_owner = tag, state, False, None
        self.touch(set_index, way)

    def invalidate(self, set_index, way):
        e = self.entry(set_index, way)
        e.state, e.pinned, e.pin_owner = MESIState.INVALID, False, None

    def pin(self, set_index, way, owner):
        e = self.entry(set_index, way)
        if e.pinned and e.pin_owner != owner:
            raise PinnedLineError(set_index, way)
        e.pinned, e.pin_owner = True, owner
        self.touch(set_index, way)

    def unpin(self, set_index, way):
        e = self.entry(set_index, way)
        e.pinned, e.pin_owner = False, None

    def valid_entries(self):
        for set_index, entries in enumerate(self._sets):
            for way, e in enumerate(entries):
                if e.state is not MESIState.INVALID:
                    yield set_index, way, e.tag


# Most operations hit set 0 of the 4-set, 4-way level, and fills and pins
# dominate, so that long sequences fill the set, pin several of its ways
# and evict around them; twelve tags keep conflicts common.  The reference
# runs what the level does on a fill: probe, victim_way, install.
_SET = st.sampled_from([0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3])
_TAG = st.integers(0, 11)
_FILL = st.tuples(st.just("fill"), _SET, _TAG, st.sampled_from([SHARED, EXCLUSIVE, MODIFIED]))
_PIN = st.tuples(st.just("pin"), _SET, _TAG, st.integers(0, 2))
_OPS = st.one_of(
    _FILL, _FILL, _FILL, _FILL, _PIN, _PIN, _PIN,
    st.tuples(st.sampled_from(["touch", "unpin", "invalidate", "lookup", "probe"]),
              _SET, _TAG),
)


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except PinnedLineError:
        return "raised", PinnedLineError


def _step(level, ref, name, set_index, tag, *arg):
    """Apply one operation to both stores and check that they agree."""
    block = addr(level, set_index, tag)
    way = ref.probe(set_index, tag)
    if name == "fill":
        if way is not None:
            with pytest.raises(CoherenceError):
                level.fill(block, bytes(BLOCK_SIZE), *arg)  # a double fill
            return
        victim = _outcome(ref.victim_way, set_index)
        if victim[0] == "raised":
            with pytest.raises(PinnedLineError):
                level.fill(block, bytes(BLOCK_SIZE), *arg)
            return
        old = ref.entry(set_index, victim[1])
        expected = None if old.state is INVALID else addr(level, set_index, old.tag)
        ref.install(set_index, victim[1], tag, *arg)
        eviction = level.fill(block, bytes(BLOCK_SIZE), *arg)
        assert (eviction and eviction.addr) == expected
        assert level.probe(block) == victim[1]
    elif name == "lookup":
        hit = ref.lookup(set_index, tag)
        expected = None if hit is None else (set_index, hit, ref.entry(set_index, hit).state)
        assert level.lookup(block) == expected
    elif name == "probe":
        assert level.probe(block) == way
    elif way is None:
        if name == "pin":
            with pytest.raises(CoherenceError):
                level.pin(block, *arg)
        elif name == "touch":
            with pytest.raises(CoherenceError):
                level.read_block(block)
        elif name == "unpin":
            level.unpin(block)
        else:
            assert level.invalidate(block) is None
    elif name == "pin":
        pinned = _outcome(ref.pin, set_index, way, *arg)
        expected = (set_index, way) if pinned[0] == "ok" else PinnedLineError
        assert _outcome(level.pin, block, *arg)[1] == expected
    elif name == "touch":
        ref.touch(set_index, way)
        level.read_block(block)
    elif name == "unpin":
        ref.unpin(set_index, way)
        level.unpin(block)
    else:
        ref.invalidate(set_index, way)
        assert level.invalidate(block) is not None


@settings(max_examples=30, deadline=None)
@given(st.lists(_OPS, min_size=100, max_size=150))
def test_flat_store_matches_per_entry_reference(ops):
    level = make_level(size=1024)
    ref = ReferenceTags(level.config)
    for op in ops:
        _step(level, ref, *op)
        assert level.tag_stats == ref.stats
        assert level.resident_addresses() == [
            addr(level, s, t) for s, _, t in ref.valid_entries()]
    for set_index, way, tag in ref.valid_entries():
        e = ref.entry(set_index, way)
        assert level.state_of(addr(level, set_index, tag)) is e.state
        assert level.is_pinned(addr(level, set_index, tag)) == e.pinned
