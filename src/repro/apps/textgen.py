"""Seeded synthetic text corpora (substitute for the paper's input files).

WordCount read a 10 MB text file and StringMatch a 50 MB one.  What drives
both applications is the *word-frequency distribution* - dictionary size,
hit rates, and bin occupancy all follow from it - and natural-language text
is famously Zipfian.  The generator draws words from a Zipf(s) distribution
over a synthetic vocabulary whose two-letter prefixes spread across the
alphabet (matching the paper's alphabet-indexed CAM dictionary).
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Corpus:
    """A generated word stream plus its vocabulary."""

    words: tuple[str, ...]
    vocabulary: tuple[str, ...]

    def unique_words(self) -> set[str]:
        return set(self.words)


def _make_vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    letters = string.ascii_lowercase
    vocab: set[str] = set()
    while len(vocab) < size:
        prefix = letters[rng.integers(0, 26)] + letters[rng.integers(0, 26)]
        suffix_len = int(rng.integers(1, 10))
        suffix = "".join(letters[rng.integers(0, 26)] for _ in range(suffix_len))
        vocab.add(prefix + suffix)
    return sorted(vocab)


def zipf_corpus(seed: int, n_words: int, vocab_size: int = 2000,
                s: float = 1.1) -> Corpus:
    """Generate ``n_words`` of Zipf-distributed text.

    ``s`` is the Zipf exponent; 1.0-1.2 matches English prose.  The
    vocabulary is rank-ordered so low ranks dominate, exactly the locality
    the paper's dictionary exploits.
    """
    rng = np.random.default_rng(seed)
    vocab = _make_vocabulary(rng, vocab_size)
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    probs = ranks ** (-s)
    probs /= probs.sum()
    picks = rng.choice(vocab_size, size=n_words, p=probs)
    words = tuple(vocab[i] for i in picks)
    return Corpus(words=words, vocabulary=tuple(vocab))


def reference_wordcount(corpus: Corpus) -> dict[str, int]:
    """Ground truth for both WordCount implementations."""
    counts: dict[str, int] = {}
    for word in corpus.words:
        counts[word] = counts.get(word, 0) + 1
    return counts
