"""WordCount (Section VI-B): dictionary building over a text stream.

**Baseline** - the classic implementation: a sorted dictionary of unique
words probed by binary search; every probe step loads a dictionary entry
and runs compare/branch/index bookkeeping.  Misses insert a new entry.

**Compute Cache version** - the dictionary becomes an alphabet-indexed CAM:
words hash (by their first two letters) into fixed 1 KB bins of 64-byte
slots.  A lookup stores the probe word once and issues ``cc_search`` over
the bin (512 bytes per instruction); mask instructions extract the matching
slot.  The binary search's bookkeeping instructions disappear - the paper
measures 87% fewer instructions - and because the dictionary is large
(719 KB in the paper) the searches run in the L3 Compute Cache.

Both versions produce real word counts, verified against
:func:`repro.apps.textgen.reference_wordcount`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.isa import cc_search
from ..cpu.program import Instr
from ..machine import ComputeCacheMachine
from ..params import BLOCK_SIZE
from .common import AppResult, StreamRunner, fresh_machine, pad_to_slot, stage_text
from .textgen import Corpus

SLOT = BLOCK_SIZE
SEARCH_CHUNK = 4096  # one cc_search covers up to 64 slots (a whole bin)


@dataclass
class WordCountConfig:
    n_bins: int = 256
    bin_capacity: int = 16  # 16 slots x 64 B = 1 KB bins, as in the paper
    dict_capacity: int = 8192

    @property
    def bin_bytes(self) -> int:
        return self.bin_capacity * SLOT


def _bin_index(word: str, n_bins: int) -> int:
    """Alphabet index: first two letters pick the bin."""
    a = ord(word[0]) - ord("a")
    b = ord(word[1]) - ord("a") if len(word) > 1 else 0
    return (a * 26 + b) % n_bins


# -- baseline: sorted dictionary + binary search -------------------------------------


def run_wordcount_baseline(corpus: Corpus,
                           machine: ComputeCacheMachine | None = None,
                           config: WordCountConfig | None = None) -> AppResult:
    cfg = config or WordCountConfig()
    m = machine or fresh_machine()
    dict_base = m.arena.alloc_page_aligned(cfg.dict_capacity * SLOT)
    counts_base = m.arena.alloc_page_aligned(cfg.dict_capacity * 8)
    text_base = stage_text(m, corpus)
    runner = StreamRunner(m, "wordcount-base")
    snap = m.snapshot_energy()

    entries: list[str] = []          # sorted unique words
    slot_of: dict[str, int] = {}     # word -> stable count slot
    counts: dict[str, int] = {}
    probes = 0

    for word_idx, word in enumerate(corpus.words):
        runner.emit(Instr.load(text_base + word_idx * SLOT, SLOT, streaming=True))
        # Binary search over the sorted dictionary.
        lo, hi = 0, len(entries)
        found = False
        while lo < hi:
            mid = (lo + hi) // 2
            # Each probe's address depends on the previous comparison: the
            # chain is serial, so the full miss latency is exposed.
            runner.emit(Instr.load(dict_base + mid * SLOT, 8, dependent=True))
            runner.emit(Instr.scalar())   # compare
            runner.emit(Instr.branch())   # direction
            runner.emit(Instr.scalar())   # index update
            probes += 1
            if entries[mid] == word:
                found = True
                break
            if entries[mid] < word:
                lo = mid + 1
            else:
                hi = mid
        if found:
            counts[word] += 1
            slot = slot_of[word]
            runner.emit(Instr.load(counts_base + slot * 8, 8))
            runner.emit(Instr.scalar())
            runner.emit(Instr.store(counts_base + slot * 8,
                                    counts[word].to_bytes(8, "little")))
        else:
            entries.insert(lo, word)
            slot = len(slot_of)
            slot_of[word] = slot
            counts[word] = 1
            # Entry write + count init + insertion bookkeeping.
            runner.emit(Instr.store(dict_base + slot * SLOT, pad_to_slot(word.encode())))
            runner.emit(Instr.store(counts_base + slot * 8, (1).to_bytes(8, "little")))
            runner.emit(Instr.scalar())
            runner.emit(Instr.scalar())

    return runner.result(
        "wordcount", "baseline", m.energy_since(snap), output=counts,
        probes=probes, dictionary_words=len(entries),
    )


# -- Compute Cache version: alphabet-indexed CAM + cc_search ---------------------------


KEY_SLOTS = 16
"""Rotating key-staging buffers: a fresh slot per in-flight search lets the
store for word *i+1*'s key proceed while word *i*'s search is still in the
cache (the same software pipelining a compiler applies to any accelerator
with an in-order command queue)."""


def run_wordcount_cc(corpus: Corpus,
                     machine: ComputeCacheMachine | None = None,
                     config: WordCountConfig | None = None) -> AppResult:
    cfg = config or WordCountConfig()
    m = machine or fresh_machine()
    bins_base = m.arena.alloc_page_aligned(cfg.n_bins * cfg.bin_bytes)
    counts_base = m.arena.alloc_page_aligned(cfg.n_bins * cfg.bin_capacity * 8)
    key_slots = m.arena.alloc_colocated(SLOT, KEY_SLOTS)
    text_base = stage_text(m, corpus)
    runner = StreamRunner(m, "wordcount-cc", chunk=1 << 30)
    snap = m.snapshot_energy()

    bins: list[list[str]] = [[] for _ in range(cfg.n_bins)]
    counts: dict[str, int] = {}
    overflow: dict[str, int] = {}
    searches = 0
    expected: list[tuple[str, int]] = []  # (word, slot) per overlapped search
    slot_cursor = 0

    for word_idx, word in enumerate(corpus.words):
        runner.emit(Instr.load(text_base + word_idx * SLOT, SLOT, streaming=True))
        b = _bin_index(word, cfg.n_bins)
        bin_addr = bins_base + b * cfg.bin_bytes
        encoded = pad_to_slot(word.encode())
        runner.emit(Instr.scalar())  # hash / bin index computation
        key_addr = key_slots[slot_cursor % KEY_SLOTS]
        slot_cursor += 1
        runner.emit(Instr.store(key_addr, encoded))
        size = min(cfg.bin_bytes, SEARCH_CHUNK)

        known_slot = bins[b].index(word) if word in bins[b] else None
        if known_slot is not None:
            # Hit path: the search result only feeds the count update, so
            # independent words' searches overlap (RMO); the mask is
            # validated against the expectation when the stream drains.
            runner.emit(Instr.cc_op(cc_search(bin_addr, key_addr, size)))
            searches += 1
            expected.append((word, known_slot))
            runner.emit(Instr.scalar())  # mask: match position
            runner.emit(Instr.scalar())  # mask: match/mismatch
            counts[word] += 1
            count_addr = counts_base + (b * cfg.bin_capacity + known_slot) * 8
            runner.emit(Instr.load(count_addr, 8))
            runner.emit(Instr.scalar())
            runner.emit(Instr.store(count_addr, counts[word].to_bytes(8, "little")))
            continue

        # Miss path (rare under Zipf): the insert decision depends on the
        # search outcome, so this search is synchronous.
        res = runner.cc(cc_search(bin_addr, key_addr, size))
        searches += 1
        runner.emit(Instr.scalar())  # mask: match position
        runner.emit(Instr.scalar())  # mask: match/mismatch
        if res.result:
            raise AssertionError(f"search matched a word never inserted: {word!r}")
        if len(bins[b]) < cfg.bin_capacity:
            slot = len(bins[b])
            bins[b].append(word)
            counts[word] = 1
            runner.emit(Instr.store(bin_addr + slot * SLOT, encoded))
            runner.emit(Instr.store(counts_base + (b * cfg.bin_capacity + slot) * 8,
                                    (1).to_bytes(8, "little")))
        else:
            # Bin overflow: software fallback map (rare by construction).
            overflow[word] = overflow.get(word, 0) + 1
            for _ in range(5):
                runner.emit(Instr.scalar())

    runner.flush()
    hit_results = [r for r in runner.cc_results if r.result]
    if len(hit_results) != len(expected):
        raise AssertionError("overlapped searches and expectations diverged")
    for (word, slot), res in zip(expected, hit_results):
        if not (res.result >> slot) & 1:
            raise AssertionError(f"search mask missed {word!r} at slot {slot}")

    for word, n in overflow.items():
        counts[word] = counts.get(word, 0) + n
    return runner.result(
        "wordcount", "cc", m.energy_since(snap), output=counts,
        searches=searches, overflow_words=len(overflow),
    )


def run_wordcount(corpus: Corpus, variant: str = "cc",
                  machine: ComputeCacheMachine | None = None,
                  config: WordCountConfig | None = None) -> AppResult:
    """Run one WordCount variant ("baseline" or "cc")."""
    if variant == "baseline":
        return run_wordcount_baseline(corpus, machine, config)
    if variant == "cc":
        return run_wordcount_cc(corpus, machine, config)
    raise ValueError(f"unknown WordCount variant {variant!r}")
