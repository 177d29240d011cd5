"""Checkpointing application tests (fast profiles)."""

import pytest

from repro import ComputeCacheMachine
from repro.apps.checkpoint import run_checkpoint
from repro.apps.splash import BENCHMARKS, PROFILES, SplashProfile
from repro.params import PAGE_SIZE, small_test_machine

FAST = SplashProfile("fast", dirty_pages_per_interval=3, cpi=1.0,
                     store_fraction=0.1, intervals=2)


def run(variant):
    return run_checkpoint(FAST, variant, ComputeCacheMachine(small_test_machine()))


class TestProfiles:
    def test_six_benchmarks(self):
        assert len(BENCHMARKS) == 6
        assert set(BENCHMARKS) == {
            "fmm", "radix", "cholesky", "barnes", "raytrace", "radiosity"
        }

    def test_radix_dirties_most(self):
        """radix permutes a large key array - the paper's worst case."""
        radix = PROFILES["radix"].dirty_pages_per_interval
        assert all(
            radix >= p.dirty_pages_per_interval for p in PROFILES.values()
        )

    def test_interval_cycles(self):
        assert PROFILES["fmm"].interval_cycles == pytest.approx(115_000)


class TestCheckpointRuns:
    @pytest.fixture(scope="class")
    def runs(self):
        return {v: run(v) for v in ("none", "base", "base32", "cc")}

    def test_copies_are_exact(self, runs):
        """run_checkpoint asserts shadow == source internally; reaching
        here means every page copy was bit-exact for every engine."""
        for v in ("base", "base32", "cc"):
            assert runs[v].pages_copied == FAST.dirty_pages_per_interval * FAST.intervals

    def test_none_variant_copies_nothing(self, runs):
        assert runs["none"].pages_copied == 0
        assert runs["none"].copy_cycles == 0

    def test_overhead_ordering(self, runs):
        """Figure 10's shape: Base > Base_32 > CC, all positive."""
        assert runs["base"].overhead > runs["base32"].overhead
        assert runs["base32"].overhead > runs["cc"].overhead
        assert runs["cc"].overhead > 0

    def test_cc_overhead_small(self, runs):
        """The paper's CC checkpointing overhead is ~6%."""
        assert runs["cc"].overhead < 0.10

    def test_instruction_reduction(self, runs):
        assert runs["cc"].copy_instructions < runs["base32"].copy_instructions / 50

    def test_page_alignment_gives_perfect_locality(self):
        """Page-to-page copies are page-aligned: every CC block op runs
        in place (the paper's 'perfect operand locality' claim)."""
        m = ComputeCacheMachine(small_test_machine())
        run_checkpoint(FAST, "cc", m)
        stats = m.controllers[0].stats
        assert stats.block_ops_inplace > 0
        assert stats.block_ops_nearplace == 0
        assert stats.block_ops_risc == 0

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            run("tape")

    def test_energy_ordering(self, runs):
        """Figure 11's shape: checkpointing energy cost shrinks with CC."""
        none_e = runs["none"].energy.total()
        assert runs["base"].energy.total() > none_e
        assert runs["cc"].energy.total() - none_e < (
            runs["base"].energy.total() - none_e
        )

    def test_working_set_scales_with_pages(self, runs):
        assert runs["base"].pages_copied * PAGE_SIZE <= FAST.intervals * 3 * PAGE_SIZE
