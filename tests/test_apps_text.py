"""Corpus generator, WordCount, and StringMatch application tests."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ComputeCacheMachine
from repro.apps import stringmatch, textgen, wordcount
from repro.params import small_test_machine


@pytest.fixture(scope="module")
def corpus():
    return textgen.zipf_corpus(seed=11, n_words=800, vocab_size=300)


class TestTextGen:
    def test_deterministic(self):
        a = textgen.zipf_corpus(1, 100, vocab_size=50)
        b = textgen.zipf_corpus(1, 100, vocab_size=50)
        assert a.words == b.words

    def test_seeds_differ(self):
        a = textgen.zipf_corpus(1, 100, vocab_size=50)
        b = textgen.zipf_corpus(2, 100, vocab_size=50)
        assert a.words != b.words

    def test_zipf_skew(self, corpus):
        """The most frequent word should dominate (Zipf head)."""
        counts = textgen.reference_wordcount(corpus)
        top = max(counts.values())
        assert top > len(corpus.words) / 20

    def test_vocabulary_covers_words(self, corpus):
        assert corpus.unique_words() <= set(corpus.vocabulary)

    def test_word_shape(self, corpus):
        for word in corpus.vocabulary[:50]:
            assert 3 <= len(word) <= 11
            assert word.isalpha() and word.islower()


class TestWordCount:
    @pytest.fixture(scope="class")
    def results(self, corpus):
        cfg = wordcount.WordCountConfig(n_bins=64, bin_capacity=16,
                                        dict_capacity=512)
        base = wordcount.run_wordcount(
            corpus, "baseline", ComputeCacheMachine(small_test_machine()), cfg)
        cc = wordcount.run_wordcount(
            corpus, "cc", ComputeCacheMachine(small_test_machine()), cfg)
        return base, cc

    def test_baseline_counts_exact(self, corpus, results):
        assert results[0].output == textgen.reference_wordcount(corpus)

    def test_cc_counts_exact(self, corpus, results):
        assert results[1].output == textgen.reference_wordcount(corpus)

    def test_cc_reduces_instructions(self, results):
        """The paper's 87% instruction reduction (binary-search bookkeeping
        disappears); smaller dictionaries reduce less, but well over half."""
        base, cc = results
        assert cc.instructions < base.instructions * 0.5

    def test_cc_uses_search_instructions(self, results):
        assert results[1].stats["searches"] > 0

    def test_unknown_variant_rejected(self, corpus):
        with pytest.raises(ValueError):
            wordcount.run_wordcount(corpus, "gpu")

    def test_bin_index_alphabetic(self):
        assert wordcount._bin_index("aardvark", 676) == 0
        assert wordcount._bin_index("ab", 676) == 1


class TestStringMatch:
    @pytest.fixture(scope="class")
    def workload(self):
        return stringmatch.make_workload(seed=3, n_words=400, n_keys=4,
                                         vocab_size=150)

    @pytest.fixture(scope="class")
    def results(self, workload):
        base = stringmatch.run_stringmatch(
            workload, "baseline", ComputeCacheMachine(small_test_machine()))
        cc = stringmatch.run_stringmatch(
            workload, "cc", ComputeCacheMachine(small_test_machine()))
        return base, cc

    def test_encryption_is_injective_on_vocab(self, workload):
        vocab = workload.corpus.vocabulary
        encrypted = {stringmatch.encrypt_slot(w) for w in vocab}
        assert len(encrypted) == len(vocab)

    @given(st.lists(st.text(max_size=80), max_size=12))
    @example([])
    @example(["k"])
    @example(["a" * 63, "b" * 64, "c" * 90, "é" * 40, "日本語テキスト", ""])
    @settings(max_examples=60, deadline=None)
    def test_batched_cipher_matches_the_per_word_loop(self, words):
        """Words of 63 bytes and of 64 or more (which ``pad_to_slot``
        truncates), multi-byte UTF-8 and the empty list included."""
        assert stringmatch.encrypt_slots(words) == [
            stringmatch.encrypt_slot(w) for w in words]

    def test_matches_exact_both_variants(self, workload, results):
        ref = stringmatch.reference_matches(workload)
        assert sorted(results[0].output) == ref
        assert sorted(results[1].output) == ref

    def test_some_matches_exist(self, workload):
        """Keys are drawn from the vocabulary, so matches must occur."""
        assert stringmatch.reference_matches(workload)

    def test_cc_reduces_instructions(self, results):
        base, cc = results
        assert cc.instructions < base.instructions

    def test_unknown_variant_rejected(self, workload):
        with pytest.raises(ValueError):
            stringmatch.run_stringmatch(workload, "fpga")
