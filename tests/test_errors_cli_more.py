"""Exception-hierarchy contracts and remaining CLI paths."""

import pytest

from repro import errors
from repro.cli import build_parser, main


class TestErrorHierarchy:
    ALL_ERRORS = [
        errors.ConfigError, errors.AddressError, errors.OperandLocalityError,
        errors.ActivationLimitError, errors.DataCorruptionError,
        errors.PageSpanError, errors.PinnedLineError, errors.CoherenceError,
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
        import json

        doc = json.loads(open(out_path).read())
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
