"""Configuration tests: Table III/IV geometry invariants."""

import pytest

from repro.errors import ConfigError
from repro.params import (
    BLOCK_SIZE,
    PAGE_SIZE,
    CacheLevelConfig,
    MachineConfig,
    log2i,
    sandybridge_8core,
    small_test_machine,
    validate_table3,
)


class TestLog2:
    def test_powers(self):
        assert log2i(1) == 0
        assert log2i(4096) == 12

    def test_non_power_rejected(self):
        with pytest.raises(ConfigError):
            log2i(12)


class TestTable4Defaults:
    """The default machine must match Table IV exactly."""

    def test_core(self):
        cfg = sandybridge_8core()
        assert cfg.cores == 8
        assert cfg.core.frequency_ghz == 2.66

    def test_caches(self):
        cfg = sandybridge_8core()
        assert cfg.l1d.size == 32 * 1024 and cfg.l1d.ways == 8
        assert cfg.l1d.hit_latency == 5
        assert cfg.l2.size == 256 * 1024 and cfg.l2.ways == 8
        assert cfg.l2.hit_latency == 11
        assert cfg.l3_slice.size == 2 * 1024 * 1024 and cfg.l3_slice.ways == 16
        assert cfg.l3_slices == 8

    def test_interconnect_memory(self):
        cfg = sandybridge_8core()
        assert cfg.ring.hop_latency == 3
        assert cfg.ring.link_width_bits == 256
        assert cfg.memory.latency == 120


class TestTable3Geometry:
    """Banks, block partitions, and minimum matching address bits."""

    def test_banks_and_partitions(self):
        cfg = sandybridge_8core()
        assert (cfg.l1d.banks, cfg.l1d.bps_per_bank) == (2, 2)
        assert (cfg.l2.banks, cfg.l2.bps_per_bank) == (8, 2)
        assert (cfg.l3_slice.banks, cfg.l3_slice.bps_per_bank) == (16, 4)

    def test_min_locality_bits(self):
        table = validate_table3(sandybridge_8core())
        assert table == {"L1-D": 8, "L2": 10, "L3-slice": 12}

    def test_page_alignment_suffices(self):
        """4 KB pages fix 12 low bits - enough for every level (IV-C)."""
        cfg = sandybridge_8core()
        page_bits = log2i(PAGE_SIZE)
        for level in (cfg.l1d, cfg.l2, cfg.l3_slice):
            assert level.min_locality_bits <= page_bits

    def test_l3_subarray_counts(self):
        """A 2 MB L3 slice has 64 sub-arrays across 16 banks (Section II-A)."""
        cfg = sandybridge_8core()
        assert cfg.l3_slice.num_partitions == 64
        assert cfg.l3_slice.blocks_per_partition == 512

    def test_partition_arithmetic_consistent(self):
        for cfg in (sandybridge_8core(), small_test_machine()):
            for level in (cfg.l1d, cfg.l2, cfg.l3_slice):
                assert level.blocks == level.sets * level.ways
                assert (
                    level.blocks_per_partition * level.num_partitions == level.blocks
                )
                assert level.sets % level.num_partitions == 0
                assert level.min_locality_bits == (
                    level.offset_bits + level.bank_bits + level.bp_bits
                )


class TestValidation:
    def test_non_power_of_two_size(self):
        with pytest.raises(ConfigError):
            CacheLevelConfig(size=3000, ways=2, banks=2,
                             bps_per_bank=2, hit_latency=1)

    def test_too_many_partitions(self):
        with pytest.raises(ConfigError):
            CacheLevelConfig(size=1024, ways=8, banks=8,
                             bps_per_bank=8, hit_latency=1)

    def test_memory_size_page_multiple(self):
        with pytest.raises(ConfigError):
            MachineConfig(memory_size=PAGE_SIZE + BLOCK_SIZE)

