"""Fast tests of the bench harness itself (report rendering, kernel runner,
CLI plumbing) - the heavyweight shape checks live in benchmarks/."""

import pytest

from repro.bench.microbench import (
    KernelMeasurement,
    run_kernel,
    table1_rows,
    table3_rows,
    table5_rows,
)
from repro.bench.report import render_figure10, render_figure11, render_table
from repro.cli import build_parser, main
from repro.energy.accounting import EnergyLedger
from repro.params import small_test_machine


class TestReportRendering:
    def test_render_table_alignment(self):
        rows = [{"a": 1, "b": "xx"}, {"a": 22, "b": "y"}]
        text = render_table(rows, "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_render_empty(self):
        assert "(empty)" in render_table([], "nothing")

    def test_float_formatting(self):
        text = render_table([{"v": 123456.789}, {"v": 0.123456}, {"v": 0.0}])
        assert "123,457" in text
        assert "0.123" in text

    def test_render_fig10_fig11(self):
        overheads = {"fmm": {"base": 0.1, "base32": 0.05, "cc": 0.01}}
        assert "fmm" in render_figure10(overheads)
        energies = {"fmm": {"no_chkpt": 1.0, "base": 2.0, "base32": 1.5, "cc": 1.1}}
        assert "no_chkpt" in render_figure11(energies)


class TestRunKernel:
    def test_all_kernels_all_configs_small(self):
        for kernel in ("copy", "compare", "search", "logical"):
            for config in ("scalar", "base32", "cc", "cc_near"):
                meas = run_kernel(kernel, config, size=512,
                                  machine_config=small_test_machine())
                assert meas.cycles > 0
                assert meas.dynamic.total() > 0
                assert meas.total_energy_nj > meas.dynamic.total_nj()

    def test_unknown_kernel_config(self):
        with pytest.raises(ValueError):
            run_kernel("sort", "cc", size=512,
                       machine_config=small_test_machine())
        with pytest.raises(ValueError):
            run_kernel("copy", "tpu", size=512,
                       machine_config=small_test_machine())

    def test_measurement_derived_metrics(self):
        meas = KernelMeasurement(
            kernel="copy", config="cc", cycles=100.0, steady_cycles=50.0,
            instructions=1, dynamic=EnergyLedger(), bytes_processed=4096,
        )
        assert meas.throughput_bytes_per_cycle == pytest.approx(81.92)


class TestTablesFast:
    def test_row_shapes(self):
        assert len(table1_rows()) == 3
        assert len(table3_rows()) == 3
        assert len(table5_rows()) == 3
        assert {r["cache"] for r in table5_rows()} == {"L1-D", "L2", "L3-slice"}


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        for argv in (["tables"], ["demo"], ["bench", "fig3"],
                     ["bench", "fig7"], ["bench", "fig8"], ["bench", "fig9"],
                     ["bench", "fig10"], ["bench", "fig11"],
                     ["bench", "sweeps"]):
            args = parser.parse_args(argv)
            assert callable(args.fn)

    def test_runner_flags_on_figure_and_export_commands(self):
        parser = build_parser()
        for command in (["bench", "fig7"], ["bench", "fig8"],
                        ["bench", "fig9"], ["bench", "fig10"],
                        ["bench", "fig11"], ["bench", "sweeps"], ["export"]):
            args = parser.parse_args(command + ["--jobs", "3", "--no-cache",
                                                "--cache-dir", "/tmp/cc-cache"])
            assert args.jobs == 3
            assert args.no_cache is True
            assert args.cache_dir == "/tmp/cc-cache"
        defaults = parser.parse_args(["bench", "fig7"])
        assert defaults.jobs == 1 and defaults.no_cache is False
        assert defaults.cache_dir == ".repro-cache"

    def test_tables_command_runs(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table V" in out

    def test_demo_command_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "cc_and over 4 KB" in out
        assert "level=L3" in out
