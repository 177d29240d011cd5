"""Exception-hierarchy contracts and remaining CLI paths."""

import json
from pathlib import Path

import pytest

from repro import errors
from repro.cli import build_parser, main
from repro.config_io import config_from_json, fault_plan_from_json


class TestErrorHierarchy:
    ALL_ERRORS = [
        errors.ConfigError, errors.AddressError, errors.OperandLocalityError,
        errors.ActivationLimitError, errors.DataCorruptionError,
        errors.PinnedLineError, errors.CoherenceError,
        errors.ECCError, errors.ISAError,
    ]

    def test_all_derive_from_repro_error(self):
        for exc in self.ALL_ERRORS:
            assert issubclass(exc, errors.ReproError)

    def test_single_except_catches_everything(self):
        for exc in self.ALL_ERRORS:
            with pytest.raises(errors.ReproError):
                raise exc("boom")

    def test_distinct_types(self):
        """No error aliases another: callers can discriminate."""
        assert len(set(self.ALL_ERRORS)) == len(self.ALL_ERRORS)
        for a in self.ALL_ERRORS:
            for b in self.ALL_ERRORS:
                if a is not b:
                    assert not issubclass(a, b)

    def test_repro_error_is_exception(self):
        assert issubclass(errors.ReproError, Exception)


@pytest.mark.parametrize("loader, error", [
    (config_from_json, errors.ConfigError),
    (fault_plan_from_json, errors.FaultPlanError),
])
@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '"text"', "42", "null"])
def test_loaders_reject_malformed_documents(loader, error, text):
    """Text that is not JSON, or JSON that is not an object, fails with
    the loader's own ``ReproError``; a syntax error keeps its position."""
    with pytest.raises(error) as info:
        loader(text)
    if text == "{not json":
        assert "line 1 column 2" in str(info.value)


class TestCLIMore:
    def test_fig3_command(self, capsys):
        assert main(["bench", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "scalar" in out and "cc" in out

    def test_fig7_small_size(self, capsys):
        assert main(["bench", "fig7", "--size", "512"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "mean_throughput_gain" in out

    def test_export_fast(self, tmp_path, capsys):
        out_path = str(tmp_path / "r.json")
        assert main(["export", "--out", out_path]) == 0
        assert "validation_ok=True" in capsys.readouterr().out
        doc = json.loads(Path(out_path).read_text())
        assert doc["schema"] == "repro.results/1"

    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["warp-drive"])

    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench", "fig9"])
        assert args.scale == 0.5
        args = build_parser().parse_args(["bench", "fig10"])
        assert args.intervals == 1
        args = build_parser().parse_args(["export"])
        assert args.out == "results.json" and not args.full


class TestCLIErrors:
    """Malformed input ends in one ``repro: error:`` line and exit 2, not
    a traceback."""

    DEMO_TRACE = str(Path(__file__).resolve().parents[1] / "examples"
                     / "profile_demo.trace")

    @staticmethod
    def _error_line(capsys) -> str:
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith("repro: error: ")
        return lines[0]

    def test_bad_buffer_capacity(self, capsys):
        assert main(["profile", self.DEMO_TRACE, "--machine", "small",
                     "--buffer", "0"]) == 2
        assert "event_buffer_capacity" in self._error_line(capsys)

    def test_missing_trace_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.trace")
        assert main(["profile", missing, "--machine", "small"]) == 2
        assert missing in self._error_line(capsys)

    def test_malformed_trace_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("bogus 0x0, 8\n", encoding="utf-8")
        assert main(["profile", str(bad), "--machine", "small"]) == 2
        assert "trace line 1" in self._error_line(capsys)

    def test_fault_plan_bad_schema(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"schema": "repro.faultplan/999"}),
                        encoding="utf-8")
        assert main(["faults", "--plan", str(plan)]) == 2
        assert "fault-plan schema" in self._error_line(capsys)

    def test_fault_plan_not_json(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text("{not json", encoding="utf-8")
        assert main(["faults", "--plan", str(plan)]) == 2
        assert "not a JSON document" in self._error_line(capsys)
