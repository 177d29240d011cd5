"""Config serialization and scrub service tests."""

import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.config_io import (
    config_from_dict,
    config_from_json,
    config_to_dict,
    config_to_json,
    load_config,
    save_config,
)
from repro.core.scrub import ScrubService
from repro.errors import ConfigError
from repro.params import CoreConfig, sandybridge_8core, small_test_machine


class TestConfigSerialization:
    def test_round_trip_paper_machine(self):
        cfg = sandybridge_8core()
        rebuilt = config_from_dict(config_to_dict(cfg))
        assert rebuilt == cfg

    def test_round_trip_small_machine(self):
        cfg = small_test_machine()
        assert config_from_json(config_to_json(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = small_test_machine()
        path = str(tmp_path / "machine.json")
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_schema_checked(self):
        doc = config_to_dict(small_test_machine())
        doc["schema"] = "other/9"
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_missing_field_rejected(self):
        doc = config_to_dict(small_test_machine())
        del doc["ring"]
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("size", 3000),        # not a power of two
        ("block_size", 128),   # not a field: blocks are BLOCK_SIZE bytes
    ])
    def test_invalid_geometry_rejected_on_load(self, field, value):
        doc = config_to_dict(small_test_machine())
        doc["l1d"][field] = value
        with pytest.raises(ConfigError, match=field):
            config_from_dict(doc)

    @pytest.mark.parametrize("section, field, value", [
        ("core", "load_queue_entries", 48),
        ("core", "store_queue_entries", 32),
        ("core", "vector_lsq_entries", 16),
        ("core", "simd_width", 32),
        ("memory", "bandwidth_blocks_per_cycle", 0.25),
        ("cc", "max_activated_wordlines", 64),
        ("cc", "max_operand_bytes", 16 * 1024),
        ("cc", "cmp_search_max_bytes", 512),
        ("cc", "search_key_bytes", 64),
        ("cc", "area_overhead_fraction", 0.08),
        ("l1d", "name", "L1-D"),
        ("l3_slice", "block_size", 64),
    ])
    def test_removed_field_rejected(self, section, field, value):
        """A document that still carries a field removed in 5.0.0, 7.0.0 or
        10.0.0 (with its old default value) fails with a ConfigError naming
        it."""
        doc = config_to_dict(small_test_machine())
        doc[section][field] = value
        with pytest.raises(ConfigError, match=field):
            config_from_dict(doc)

    @pytest.mark.parametrize("key", ["l1i", "trace_events", "cache_line"])
    def test_unknown_top_level_key_rejected(self, key):
        """A key that is not a serialized field - ``l1i`` (removed in
        6.0.0), an observability setting, a typo - fails with a
        ConfigError naming it instead of being dropped."""
        doc = config_to_dict(small_test_machine())
        doc[key] = {"name": "L1-I"} if key == "l1i" else True
        with pytest.raises(ConfigError, match=key):
            config_from_dict(doc)

    def test_section_must_be_an_object(self):
        doc = config_to_dict(small_test_machine())
        doc["cc"] = [14, 22]
        with pytest.raises(ConfigError, match="cc"):
            config_from_dict(doc)

    def test_removed_knobs_are_type_errors(self):
        with pytest.raises(TypeError):
            ComputeCacheMachine(small_test_machine(), wordline_underdrive=False)
        with pytest.raises(TypeError):
            CoreConfig(simd_width=16)

    def test_rebuilt_machine_runs(self, make_bytes):
        cfg = config_from_dict(config_to_dict(small_test_machine()))
        m = ComputeCacheMachine(cfg)
        a, c = m.arena.alloc_colocated(128, 2)
        data = make_bytes(128)
        m.load(a, data)
        m.cc(cc_ops.cc_copy(a, c, 128))
        assert m.peek(c, 128) == data


class TestScrubService:
    @pytest.fixture
    def warm_level(self, make_bytes):
        m = ComputeCacheMachine(small_test_machine())
        addr = m.arena.alloc_page_aligned(512)
        m.load(addr, make_bytes(512))
        m.warm_l3(addr, 512)
        slice_id = m.hierarchy.home_slice(addr, 0)
        return m, m.hierarchy.l3[slice_id], addr

    def test_clean_pass_corrects_nothing(self, warm_level):
        _, level, _ = warm_level
        service = ScrubService(level)
        assert service.protect_resident() >= 8
        report = service.scrub_pass()
        assert report.blocks_checked >= 8
        assert report.corrections == 0

    def test_strike_detected_and_repaired(self, warm_level):
        m, level, addr = warm_level
        service = ScrubService(level)
        service.protect_resident()
        before = level.peek_block(addr)
        service.inject_strike(addr, bit=137)
        assert level.peek_block(addr) != before
        report = service.scrub_pass()
        assert report.corrections == 1
        assert report.corrected_addrs == [addr]
        assert level.peek_block(addr) == before

    def test_multiple_strikes_different_blocks(self, warm_level):
        m, level, addr = warm_level
        service = ScrubService(level)
        service.protect_resident()
        service.inject_strike(addr, bit=3)
        service.inject_strike(addr + 64, bit=200)
        report = service.scrub_pass()
        assert report.corrections == 2

    def test_uncorrectable_block_does_not_end_the_sweep(self, warm_level):
        """A double-bit error in the first block swept is listed, and the
        sweep still repairs a single-bit strike in the last one."""
        _, level, _ = warm_level
        service = ScrubService(level)
        service.protect_resident()
        resident = level.resident_addresses()
        first, last = resident[0], resident[-1]
        assert first != last
        repaired = level.peek_block(last)
        service.inject_strike(first, bit=3)
        service.inject_strike(first, bit=41)  # same 64-bit word
        service.inject_strike(last, bit=300)
        report = service.scrub_pass()
        assert report.uncorrectable == [first]
        assert report.corrected_addrs == [last]
        assert report.blocks_checked == len(resident)
        assert level.peek_block(last) == repaired

    def test_scrub_charges_energy(self, warm_level):
        m, level, _ = warm_level
        service = ScrubService(level)
        service.protect_resident()
        before = m.ledger.total()
        service.scrub_pass()
        assert m.ledger.total() > before  # the sweep is real traffic

    def test_cc_result_scrubbed_clean(self, warm_level):
        """Scrubbing after in-place ops (the paper's policy) sees clean
        data: in-place computing introduces no errors."""
        m, level, addr = warm_level
        dest = m.arena.alloc_page_aligned(512)
        m.cc(cc_ops.cc_copy(addr, dest, 512))
        service = ScrubService(level)
        service.protect_resident()
        assert service.scrub_pass().corrections == 0
