"""StringMatch (Section VI-B): encrypted-keyword scanning.

The application reads words from a text stream, encrypts each, and compares
it against a list of encrypted keys.  Encryption cannot be offloaded to the
cache, so it stays on the core in both variants (Amdahl's law is why the
paper's speedup is 1.5x rather than the microbenchmark's 54x).

**Baseline** - each encrypted word is compared against each key with
32-byte SIMD compares.

**Compute Cache version** - encrypted words are batched into a 512-byte
L1-resident buffer; each encrypted key is replicated across the L1
sub-arrays (the key-table datapath) and a single ``cc_search`` compares it
against the whole batch at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.isa import cc_search
from ..cpu.program import Instr
from ..machine import ComputeCacheMachine
from ..params import BLOCK_SIZE
from .common import AppResult, StreamRunner, fresh_machine, pad_to_slot
from .textgen import Corpus

SLOT = BLOCK_SIZE
BATCH_WORDS = 64  # 64 x 64 B = 4 KB: one cc_search per key covers a full batch
ENCRYPT_ROUNDS = 4


@dataclass(frozen=True)
class StringMatchWorkload:
    corpus: Corpus
    keys: tuple[str, ...]


def encrypt_slot(word: str) -> bytes:
    """Toy Feistel-ish block transform over a padded 64-byte slot.

    Deterministic and collision-preserving (equal words encrypt equally),
    which is all the comparison semantics need.  The per-word reference of
    :func:`encrypt_slots`.
    """
    state = bytearray(pad_to_slot(word.encode()))
    for r in range(ENCRYPT_ROUNDS):
        for i in range(len(state)):
            state[i] = (state[i] * 167 + 13 + r + (state[i - 1] if i else r)) & 0xFF
    return bytes(state)


def encrypt_slots(words) -> list[bytes]:
    """:func:`encrypt_slot` of every word, computed for all words at once:
    the same recurrence over one uint8 column per slot byte, whose
    wraparound is the reference's ``& 0xFF``."""
    if not words:
        return []
    slots = b"".join(pad_to_slot(word.encode()) for word in words)
    # One row per slot byte, one column per word.
    state = np.frombuffer(slots, dtype=np.uint8).reshape(len(words), SLOT).T.copy()
    for r in range(ENCRYPT_ROUNDS):
        prev = np.full(len(words), r, dtype=np.uint8)
        for i in range(SLOT):
            prev = state[i] = state[i] * np.uint8(167) + np.uint8(13 + r) + prev
    return [row.tobytes() for row in state.T]


def _emit_encryption(runner: StreamRunner) -> None:
    """Core-side encryption cost: a few ALU ops per round per 8-byte lane."""
    for _ in range(ENCRYPT_ROUNDS * 2):
        runner.emit(Instr.scalar())


def reference_matches(workload: StringMatchWorkload) -> list[tuple[int, int]]:
    """Ground truth: (word index, key index) pairs that match."""
    return [
        (i, k)
        for i, word in enumerate(workload.corpus.words)
        for k, key in enumerate(workload.keys)
        if word == key
    ]


def _stage_text(m: ComputeCacheMachine, corpus: Corpus) -> int:
    """The input text lives in memory; both variants stream it in."""
    text_base = m.arena.alloc_page_aligned(len(corpus.words) * SLOT)
    blob = b"".join(pad_to_slot(w.encode()) for w in corpus.words)
    m.load(text_base, blob)
    return text_base


def run_stringmatch_baseline(workload: StringMatchWorkload,
                             machine: ComputeCacheMachine | None = None) -> AppResult:
    m = machine or fresh_machine()
    text_base = _stage_text(m, workload.corpus)
    runner = StreamRunner(m, "stringmatch-base")
    snap = m.snapshot_energy()
    encrypted_keys = encrypt_slots(workload.keys)
    matches: list[tuple[int, int]] = []

    for i, enc in enumerate(encrypt_slots(workload.corpus.words)):
        runner.emit(Instr.load(text_base + i * SLOT, SLOT, streaming=True))
        _emit_encryption(runner)
        for k, enc_key in enumerate(encrypted_keys):
            # 64-byte compare = two 32-byte SIMD compares + merge/branch.
            runner.emit(Instr.simd_op())
            runner.emit(Instr.simd_op())
            runner.emit(Instr.scalar())
            runner.emit(Instr.branch())
            if enc == enc_key:
                matches.append((i, k))
    return runner.result(
        "stringmatch", "baseline", m.energy_since(snap), output=matches,
        words=len(workload.corpus.words), keys=len(workload.keys),
    )


def run_stringmatch_cc(workload: StringMatchWorkload,
                       machine: ComputeCacheMachine | None = None) -> AppResult:
    m = machine or fresh_machine()
    text_base = _stage_text(m, workload.corpus)
    # Two batch buffers: the core encrypts into one while the CC controller
    # searches the other (the RMO overlap of Section IV-G).  On the paper's
    # hardware the vector LSQ would order stores into a buffer behind the
    # searches still reading it; the model has no LSQ, but the program is
    # written as the hardware needs it.
    batch_addrs = m.arena.alloc_colocated(BATCH_WORDS * SLOT, 2)
    keys_addr = m.arena.alloc_page_aligned(len(workload.keys) * SLOT)
    runner = StreamRunner(m, "stringmatch-cc", chunk=1 << 30)
    snap = m.snapshot_energy()

    for k, enc in enumerate(encrypt_slots(workload.keys)):
        runner.emit(Instr.store(keys_addr + k * SLOT, enc))

    words = workload.corpus.words
    encrypted_words = encrypt_slots(words)
    search_tags: list[tuple[int, int]] = []  # (batch_start, key) per cc op

    for batch_idx, batch_start in enumerate(range(0, len(words), BATCH_WORDS)):
        batch = encrypted_words[batch_start : batch_start + BATCH_WORDS]
        batch_addr = batch_addrs[batch_idx % 2]
        for j, enc in enumerate(batch):
            runner.emit(Instr.load(text_base + (batch_start + j) * SLOT, SLOT, streaming=True))
            _emit_encryption(runner)
            runner.emit(Instr.store(batch_addr + j * SLOT, enc))
        if len(batch) < BATCH_WORDS:
            for j in range(len(batch), BATCH_WORDS):
                runner.emit(Instr.store(batch_addr + j * SLOT, bytes(SLOT)))
        # The batch is hot in L1; one cc_search per key covers all 64 words.
        for k in range(len(workload.keys)):
            runner.emit(Instr.cc_op(
                cc_search(batch_addr, keys_addr + k * SLOT, BATCH_WORDS * SLOT)
            ))
            runner.emit(Instr.scalar())  # mask instruction
            search_tags.append((batch_start, k))
    runner.flush()

    matches: list[tuple[int, int]] = []
    for (batch_start, k), res in zip(search_tags, runner.cc_results):
        mask = res.result
        while mask:
            j = (mask & -mask).bit_length() - 1
            matches.append((batch_start + j, k))
            mask &= mask - 1
    matches.sort()
    return runner.result(
        "stringmatch", "cc", m.energy_since(snap), output=matches,
        words=len(words), keys=len(workload.keys),
    )


def run_stringmatch(workload: StringMatchWorkload, variant: str = "cc",
                    machine: ComputeCacheMachine | None = None) -> AppResult:
    """Run one StringMatch variant ("baseline" or "cc")."""
    if variant == "baseline":
        return run_stringmatch_baseline(workload, machine)
    if variant == "cc":
        return run_stringmatch_cc(workload, machine)
    raise ValueError(f"unknown StringMatch variant {variant!r}")


def make_workload(seed: int, n_words: int, n_keys: int = 4,
                  vocab_size: int = 500) -> StringMatchWorkload:
    """Corpus plus keys drawn from its vocabulary (so matches occur)."""
    from .textgen import zipf_corpus

    corpus = zipf_corpus(seed, n_words, vocab_size=vocab_size)
    step = max(1, vocab_size // (n_keys + 1))
    keys = tuple(corpus.vocabulary[(i + 1) * step] for i in range(n_keys))
    return StringMatchWorkload(corpus=corpus, keys=keys)
