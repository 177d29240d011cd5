"""Config serialization, scrub service, and bar-chart renderer tests."""

import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.bench.report import render_bars, render_stacked_bars
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
from repro.params import sandybridge_8core, small_test_machine


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
        ("block_size", 128),   # the hierarchy moves 64-byte blocks only
    ])
    def test_invalid_geometry_rejected_on_load(self, field, value):
        doc = config_to_dict(small_test_machine())
        doc["l1d"][field] = value
        with pytest.raises(ConfigError, match=field):
            config_from_dict(doc)

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


class TestBarCharts:
    def test_render_bars(self):
        text = render_bars({"Base_32": 100.0, "CC_L3": 10.0}, "T", width=10)
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].count("#") == 10
        assert lines[2].count("#") == 1

    def test_render_bars_empty_and_zero(self):
        assert "(empty)" in render_bars({}, "x")
        text = render_bars({"a": 0.0, "b": 2.0})
        assert "|" in text

    def test_stacked_bars_with_legend(self):
        series = {
            "base": {"core": 50.0, "noc": 30.0},
            "cc": {"core": 5.0, "noc": 0.0},
        }
        text = render_stacked_bars(series, "S", width=16)
        assert "legend:" in text
        assert "#=core" in text
        base_line = text.splitlines()[1]
        cc_line = text.splitlines()[2]
        assert base_line.count("#") > cc_line.count("#")
