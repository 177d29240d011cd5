"""Additional application behaviors: edge cases, fallbacks, metadata."""

import numpy as np
import pytest

from repro import ComputeCacheMachine
from repro.apps import bitmap_db, bmm, stringmatch, textgen, wordcount
from repro.apps.common import StreamRunner, fresh_machine, pad_to_slot
from repro.params import small_test_machine


class TestCommonPlumbing:
    def test_pad_to_slot(self):
        assert pad_to_slot(b"hi") == b"hi" + bytes(62)
        assert len(pad_to_slot(b"x" * 100)) == 64  # truncated to slot
        assert pad_to_slot(b"") == bytes(64)

    def test_stream_runner_chunks(self, make_bytes):
        from repro.cpu.program import Instr

        m = ComputeCacheMachine(small_test_machine())
        runner = StreamRunner(m, "t", chunk=4)
        for _ in range(10):
            runner.emit(Instr.scalar())
        runner.flush()
        assert runner.instructions == 10
        assert runner.cycles == 10


class TestWordCountEdges:
    def test_bin_overflow_falls_back_to_software(self):
        """More unique same-bin words than slots: the overflow map takes
        them and counts still come out exact."""
        words = tuple(f"aa{chr(ord('a') + i)}" for i in range(6)) * 3
        corpus = textgen.Corpus(words=words, vocabulary=tuple(sorted(set(words))))
        cfg = wordcount.WordCountConfig(n_bins=676, bin_capacity=4,
                                        dict_capacity=64)
        m = ComputeCacheMachine(small_test_machine())
        res = wordcount.run_wordcount(corpus, "cc", m, cfg)
        assert res.output == textgen.reference_wordcount(corpus)
        assert res.stats["overflow_words"] == 2  # 6 unique, 4 slots

    def test_single_word_corpus(self):
        corpus = textgen.Corpus(words=("zip",) * 5, vocabulary=("zip",))
        for variant in ("baseline", "cc"):
            m = ComputeCacheMachine(small_test_machine())
            res = wordcount.run_wordcount(corpus, variant, m)
            assert res.output == {"zip": 5}

    def test_all_unique_corpus(self):
        """Every word is an insert: the miss path dominates."""
        words = tuple(f"{a}{b}x" for a in "abcd" for b in "efgh")
        corpus = textgen.Corpus(words=words, vocabulary=tuple(sorted(words)))
        m = ComputeCacheMachine(small_test_machine())
        res = wordcount.run_wordcount(corpus, "cc", m)
        assert res.output == {w: 1 for w in words}


class TestStringMatchEdges:
    def test_no_keys_in_text(self):
        corpus = textgen.zipf_corpus(9, 100, vocab_size=50)
        wl = stringmatch.StringMatchWorkload(corpus=corpus,
                                             keys=("zzzznotthere",))
        for variant in ("baseline", "cc"):
            m = ComputeCacheMachine(small_test_machine())
            res = stringmatch.run_stringmatch(wl, variant, m)
            assert res.output == []

    def test_every_word_matches(self):
        corpus = textgen.Corpus(words=("hit",) * 70, vocabulary=("hit",))
        wl = stringmatch.StringMatchWorkload(corpus=corpus, keys=("hit",))
        m = ComputeCacheMachine(small_test_machine())
        res = stringmatch.run_stringmatch(wl, "cc", m)
        assert sorted(res.output) == [(i, 0) for i in range(70)]

    def test_partial_final_batch(self):
        """A non-multiple-of-64 word count pads the last batch; padding
        slots never produce matches."""
        corpus = textgen.Corpus(words=("pad",) * 65, vocabulary=("pad",))
        wl = stringmatch.StringMatchWorkload(corpus=corpus, keys=("pad",))
        m = ComputeCacheMachine(small_test_machine())
        res = stringmatch.run_stringmatch(wl, "cc", m)
        assert len(res.output) == 65


class TestBitmapEdges:
    def test_single_bin_query(self):
        ds = bitmap_db.make_dataset(11, n_rows=4096, cardinalities=(4,))
        q = bitmap_db.Query(attr=0, bins=(2,))
        for variant in ("baseline", "cc"):
            m = ComputeCacheMachine(small_test_machine())
            res = bitmap_db.run_bitmap_queries(ds, [q], variant, m)
            assert res.output == [bitmap_db.reference_query(ds, q).tobytes()]

    def test_full_range_query_selects_everything(self):
        ds = bitmap_db.make_dataset(12, n_rows=4096, cardinalities=(4,))
        q = bitmap_db.Query(attr=0, bins=(0, 1, 2, 3))
        assert bitmap_db.reference_query(ds, q).tobytes() == b"\xff" * 512
        m = ComputeCacheMachine(small_test_machine())
        res = bitmap_db.run_bitmap_queries(ds, [q], "cc", m)
        assert res.output == [b"\xff" * 512]

    def test_conjunction_narrows(self):
        ds = bitmap_db.make_dataset(13, n_rows=4096, cardinalities=(4, 4))
        broad = bitmap_db.Query(attr=0, bins=(0, 1, 2, 3))
        narrow = bitmap_db.Query(attr=0, bins=(0, 1, 2, 3),
                                 and_attr=1, and_bins=(0,))
        rb = np.unpackbits(bitmap_db.reference_query(ds, broad)).sum()
        rn = np.unpackbits(bitmap_db.reference_query(ds, narrow)).sum()
        assert rn < rb


class TestBMMEdges:
    def test_zero_matrix(self):
        n = 64
        wl = bmm.BMMWorkload(n=n, a=np.zeros((n, n), np.uint8),
                             b=np.ones((n, n), np.uint8))
        m = ComputeCacheMachine(small_test_machine())
        res = bmm.run_bmm(wl, "cc", m)
        assert not res.output.any()

    def test_all_ones_matrices(self):
        """ones x ones over GF(2): every element = parity(n) = 0 for even n."""
        n = 64
        wl = bmm.BMMWorkload(n=n, a=np.ones((n, n), np.uint8),
                             b=np.ones((n, n), np.uint8))
        m = ComputeCacheMachine(small_test_machine())
        res = bmm.run_bmm(wl, "cc", m)
        assert not res.output.any()

    def test_permutation_matrix(self):
        """Multiplying by a permutation matrix permutes rows exactly."""
        n = 64
        rng = np.random.default_rng(15)
        a = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        perm = np.eye(n, dtype=np.uint8)[rng.permutation(n)]
        wl = bmm.BMMWorkload(n=n, a=a, b=perm)
        m = ComputeCacheMachine(small_test_machine())
        res = bmm.run_bmm(wl, "cc", m)
        assert np.array_equal(res.output, bmm.reference_bmm(wl))


class TestEnergyIsolation:
    def test_fresh_machines_do_not_share_ledgers(self, make_bytes):
        m1, m2 = fresh_machine(small_test_machine()), fresh_machine(small_test_machine())
        addr = m1.arena.alloc(64)
        m1.load(addr, make_bytes(64))
        m1.read(addr, 8)
        assert m1.ledger.total() > 0
        assert m2.ledger.total() == 0
