"""The `repro bench <suite>` dispatcher."""

import json
import warnings

import pytest

from repro.api import BenchSuite, bench_suites
from repro.cli import build_parser, main

EXPECTED_SUITES = ("fig3", "fig7", "fig8", "fig9", "fig10", "fig11",
                   "sweeps", "qdnn", "speed", "streambw", "crypto")


class TestRegistry:
    def test_every_suite_registered(self):
        assert tuple(bench_suites()) == EXPECTED_SUITES

    def test_entries_are_frozen_suites(self):
        for name, suite in bench_suites().items():
            assert isinstance(suite, BenchSuite)
            assert suite.name == name
            assert suite.help
            with pytest.raises(Exception):
                suite.name = "other"

    def test_returns_a_copy(self):
        reg = bench_suites()
        reg.pop("crypto")
        assert "crypto" in bench_suites()

    def test_document_suites_declare_outputs(self):
        reg = bench_suites()
        assert reg["speed"].out_default == "BENCH_speed.json"
        assert reg["streambw"].out_default == "BENCH_streambw.json"
        assert reg["crypto"].out_default == "BENCH_crypto.json"
        assert reg["fig3"].out_default is None


class TestParser:
    def test_bench_requires_a_suite(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_bench_rejects_unknown_suite(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "warp-drive"])

    @pytest.mark.parametrize("suite", EXPECTED_SUITES)
    def test_shared_flags_on_both_spellings(self, suite):
        """`repro bench <suite>` takes the shared flags; the top-level
        `repro <suite>` spelling is gone."""
        args = build_parser().parse_args(
            ["bench", suite, "--jobs", "2", "--no-cache", "--backend",
             "packed", "--seed", "7"])
        assert args.jobs == 2 and args.no_cache
        assert args.backend == "packed" and args.seed == 7
        with pytest.raises(SystemExit):
            build_parser().parse_args([suite])

    @pytest.mark.parametrize("argv", [
        ["bench", "fig3", "--exec-backend", "packed"],
        ["bench", "fig3", "--events"],
        ["bench", "fig3", "--rng-seed", "1"],
        ["bench", "fig3", "--workload-seed", "1"],
        ["bench", "speed", "--backends", "packed"],
        ["faults", "--trace-events"],
        ["serve", "--help"],
        ["loadgen", "--help"],
    ])
    def test_removed_flags_exit(self, argv):
        """The flag spellings and commands docs/api.md lists as removed in
        2.0.0 and 3.0.0 are usage errors before anything runs (the
        top-level suite spellings are covered per suite above)."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_crypto_defaults(self):
        args = build_parser().parse_args(["bench", "crypto"])
        assert args.kernels == "ghash,crc32,crc64,ntt"
        assert args.ghash_blocks == 64 and args.crc_bytes == 1024
        assert args.ntt_n == 128
        assert args.out == "BENCH_crypto.json"
        assert not args.no_faults


class TestDispatch:
    def test_bench_fig3_runs_clean(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert main(["bench", "fig3"]) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_tee_writes_report_for_print_only_suites(self, tmp_path, capsys):
        out = tmp_path / "fig3.txt"
        assert main(["bench", "fig3", "--out", str(out)]) == 0
        teed = out.read_text()
        assert "Figure 3" in teed
        assert "Figure 3" in capsys.readouterr().out

    def test_bench_crypto_writes_document(self, tmp_path, capsys):
        out = tmp_path / "BENCH_crypto.json"
        assert main(["bench", "crypto", "--ghash-blocks", "8",
                     "--crc-bytes", "128", "--ntt-n", "32", "--no-faults",
                     "--no-cache", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.crypto/1"
        assert set(doc["kernels"]) == {"ghash", "crc32", "crc64", "ntt"}
        for kernel in doc["kernels"].values():
            assert kernel["outputs_match"]
            assert kernel["speedup"] > 1.0
        assert doc["contract"]["passed"]
        assert "provenance" in doc and "workload_seeds" in doc["provenance"]
        assert "crypto" in capsys.readouterr().out.lower()
