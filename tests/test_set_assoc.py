"""Tag array tests: LRU, pinning, victim selection, and a differential
check of the flat store against the per-entry algorithm it replaced."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.block import MESIState
from repro.cache.set_assoc import SetAssociativeArray, SetAssocStats
from repro.errors import AddressError, CoherenceError, PinnedLineError
from repro.params import CacheLevelConfig, sandybridge_8core


@pytest.fixture
def tags():
    cfg = CacheLevelConfig(name="T", size=4 * 1024, ways=4, banks=2,
                           bps_per_bank=2, hit_latency=1)
    return SetAssociativeArray(cfg)


class TestLookupInstall:
    def test_miss_then_hit(self, tags):
        assert tags.lookup(0, 0x10) is None
        tags.install(0, 0, 0x10, MESIState.EXCLUSIVE)
        assert tags.lookup(0, 0x10) == 0
        assert tags.stats.hits == 1
        assert tags.stats.misses == 1

    def test_probe_uncounted(self, tags):
        tags.install(0, 0, 0x10, MESIState.SHARED)
        tags.probe(0, 0x10)
        assert tags.stats.lookups == 0

    def test_install_evicts_stats(self, tags):
        for i in range(5):
            way = tags.victim_way(0)
            tags.install(0, way, i, MESIState.EXCLUSIVE)
        assert tags.stats.evictions == 1


class TestLRU:
    def test_invalid_way_preferred(self, tags):
        tags.install(0, 0, 1, MESIState.SHARED)
        assert tags.victim_way(0) == 1  # first invalid way

    def test_lru_order(self, tags):
        for way, tag in enumerate([10, 11, 12, 13]):
            tags.install(0, way, tag, MESIState.SHARED)
        tags.touch(0, 0)  # way 0 becomes MRU; way 1 is now LRU
        assert tags.victim_way(0) == 1

    def test_touch_changes_victim(self, tags):
        for way, tag in enumerate([10, 11, 12, 13]):
            tags.install(0, way, tag, MESIState.SHARED)
        tags.touch(0, 1)
        tags.touch(0, 0)
        assert tags.victim_way(0) == 2


class TestPinning:
    def test_pinned_way_not_victim(self, tags):
        for way, tag in enumerate([10, 11, 12, 13]):
            tags.install(0, way, tag, MESIState.SHARED)
        tags.pin(0, 0, owner=7)  # way 0 is LRU but pinned
        assert tags.victim_way(0) == 1
        assert tags.stats.pinned_evictions_avoided >= 1

    def test_all_pinned_raises(self, tags):
        for way, tag in enumerate([10, 11, 12, 13]):
            tags.install(0, way, tag, MESIState.SHARED)
            tags.pin(0, way, owner=1)
        with pytest.raises(PinnedLineError):
            tags.victim_way(0)

    def test_pin_promotes_to_mru(self, tags):
        for way, tag in enumerate([10, 11, 12, 13]):
            tags.install(0, way, tag, MESIState.SHARED)
        tags.pin(0, 0, owner=1)
        tags.unpin(0, 0)
        assert tags.victim_way(0) == 1  # way 0 was MRU-promoted by the pin

    def test_double_pin_same_owner_ok(self, tags):
        tags.install(0, 0, 10, MESIState.SHARED)
        tags.pin(0, 0, owner=1)
        tags.pin(0, 0, owner=1)

    def test_double_pin_other_owner_rejected(self, tags):
        tags.install(0, 0, 10, MESIState.SHARED)
        tags.pin(0, 0, owner=1)
        with pytest.raises(PinnedLineError):
            tags.pin(0, 0, owner=2)

    def test_install_clears_pin(self, tags):
        tags.install(0, 0, 10, MESIState.SHARED)
        tags.pin(0, 0, owner=1)
        tags.install(0, 0, 11, MESIState.EXCLUSIVE)
        assert tags.pin_owner(0, 0) is None


class TestIteration:
    def test_valid_entries(self, tags):
        tags.install(0, 0, 10, MESIState.SHARED)
        tags.install(3, 2, 11, MESIState.MODIFIED)
        entries = list(tags.valid_entries())
        assert len(entries) == 2
        assert {(s, w) for s, w, _ in entries} == {(0, 0), (3, 2)}


class TestFlatStore:
    def test_set_state_moves_valid_lines_between_valid_states(self, tags):
        tags.install(0, 0, 10, MESIState.SHARED)
        tags.set_state(0, 0, MESIState.MODIFIED)
        assert tags.state(0, 0) is MESIState.MODIFIED
        with pytest.raises(CoherenceError):
            tags.set_state(0, 0, MESIState.INVALID)
        with pytest.raises(CoherenceError):
            tags.set_state(0, 1, MESIState.SHARED)
        tags.invalidate(0, 0)
        assert tags.probe(0, 10) is None

    def test_tag_valid_in_another_way_rejected(self, tags):
        tags.install(0, 0, 10, MESIState.SHARED)
        with pytest.raises(CoherenceError):
            tags.install(0, 1, 10, MESIState.SHARED)
        tags.install(0, 0, 10, MESIState.EXCLUSIVE)  # same way: a refill
        assert tags.probe(0, 10) == 0

    def test_table_iv_slice_allocates_no_per_line_objects(self):
        config = sandybridge_8core().l3_slice
        gc.collect()
        before = len(gc.get_objects())
        tags = SetAssociativeArray(config)
        assert len(gc.get_objects()) - before < 64
        assert tags.sets * tags.ways == config.blocks


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
        self.stats = SetAssocStats()

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


# Sets and ways run one past each end of the 4-set, 4-way level so that
# out-of-range errors are compared too.  Most operations hit set 0, and
# fills and pins dominate, so that long sequences fill the set, pin
# several of its ways and evict around them; twelve tags keep conflicts
# common.  "fill" is what a cache level does: probe, victim_way, install.
_SET = st.sampled_from([0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, -1, 4])
_WAY = st.sampled_from([0, 1, 2, 3, 0, 1, 2, 3, -1, 4])
_TAG = st.integers(0, 11)
_STATE = st.sampled_from(list(MESIState))
_FILL = st.tuples(st.just("fill"), _SET, _TAG, _STATE)
_PIN = st.tuples(st.just("pin"), _SET, _WAY, st.integers(0, 2))
_OPS = st.one_of(
    _FILL, _FILL, _FILL, _FILL, _PIN, _PIN, _PIN,
    st.tuples(st.just("install"), _SET, _WAY, _TAG, _STATE),
    st.tuples(st.just("victim_way"), _SET),
    st.tuples(st.just("touch"), _SET, _WAY),
    st.tuples(st.just("unpin"), _SET, _WAY),
    st.tuples(st.just("invalidate"), _SET, _WAY),
    st.tuples(st.sampled_from(["lookup", "probe"]), _SET, _TAG),
)


def _outcome(store, name, args):
    try:
        return "ok", getattr(store, name)(*args)
    except (AddressError, PinnedLineError) as exc:
        return "raised", type(exc)


@settings(max_examples=30, deadline=None)
@given(st.lists(_OPS, min_size=100, max_size=150))
def test_flat_store_matches_per_entry_reference(ops):
    cfg = CacheLevelConfig(name="T", size=1024, ways=4, banks=2,
                           bps_per_bank=2, hit_latency=1)
    flat, ref = SetAssociativeArray(cfg), ReferenceTags(cfg)
    for name, *args in ops:
        if name == "fill":
            resident = _outcome(flat, "probe", args[:2])
            assert resident == _outcome(ref, "probe", args[:2]), args
            if resident != ("ok", None):
                continue  # set out of range, or a double fill
            victim = _outcome(flat, "victim_way", args[:1])
            assert victim == _outcome(ref, "victim_way", args[:1]), args
            if victim[0] == "raised":
                continue  # every way pinned
            name, args = "install", [args[0], victim[1], *args[1:]]
        if name == "install" and 0 <= args[0] < 4 and 0 <= args[1] < 4 and \
                ref.probe(args[0], args[2]) not in (None, args[1]):
            # The one deliberate difference: a tag may be valid in only
            # one way of a set (the reference would hold two copies).
            with pytest.raises(CoherenceError):
                flat.install(*args)
            continue
        assert _outcome(flat, name, args) == _outcome(ref, name, args), (name, args)
        assert flat.stats == ref.stats
        assert list(flat.valid_entries()) == list(ref.valid_entries())
    assert flat.stats == ref.stats
    for set_index in range(4):
        for way in range(4):
            e = ref.entry(set_index, way)
            assert flat.state(set_index, way) is e.state
            assert flat.pin_owner(set_index, way) == e.pin_owner
