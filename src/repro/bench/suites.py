"""Registry of benchmark suites behind the ``repro bench`` dispatcher.

Every suite is a :class:`BenchSuite` entry — name, help line,
suite-specific flags (:attr:`BenchSuite.configure`), default output
document, and the command that reads those flags
(:attr:`BenchSuite.run`).  Each suite's ``_configure_*`` and ``_cmd_*``
sit side by side below.  The CLI generates one ``repro bench <suite>``
subparser per entry, so every suite shares one flag set
(``--jobs/--no-cache/--cache-dir/--backend/--trace-events/--seed/--out``)
by construction.

:func:`bench_suites` is the stable, read-only view exported through
:mod:`repro.api`.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class BenchSuite:
    """One benchmark suite reachable as ``repro bench <name>``.

    ``out_default`` names the suite's benchmark document
    (``BENCH_*.json``); ``None`` marks a print-only suite, for which
    ``--out`` tees the rendered report to a file instead.
    """

    name: str
    help: str
    run: Callable[[argparse.Namespace], None]
    configure: Callable[[argparse.ArgumentParser], None] | None = None
    out_default: str | None = None


def _runner_from(args):
    """Build the sweep runner a suite (or ``repro export``) was asked for."""
    from .runner import PointRunner

    return PointRunner(jobs=args.jobs, cache_dir=args.cache_dir,
                       use_cache=not args.no_cache, backend=args.backend)


def _finish_runner(runner, args) -> None:
    """The post-command cache-stats footer (grepped by CI); with
    ``--trace-events``, also the runner's wall-clock attribution."""
    if args.trace_events:
        from .runner import format_runner_profile

        print()
        print(format_runner_profile(runner.tracer))
    print()
    print(runner.stats.line())


def _sim_overrides(args) -> dict:
    """Config overrides for the document suites: ``--backend`` measures
    one backend and ``--seed`` replaces the workload seed; left unset,
    the suite config's own defaults apply."""
    overrides = {}
    if args.backend is not None:
        overrides["backends"] = (args.backend,)
    if args.seed is not None:
        overrides["seed"] = args.seed
    return overrides


def _finish_document(doc, summarize, args, runner=None) -> None:
    """The document suites' ending: write ``--out``, print the summary
    (and the runner footer), and exit 1 if the contract failed."""
    from .report import write_bench

    write_bench(doc, args.out)
    print(summarize(doc))
    print(f"wrote {args.out}")
    if runner is not None:
        _finish_runner(runner, args)
    if not doc["contract"]["passed"]:
        for failure in doc["contract"]["failures"]:
            print(f"contract failure: {failure}", file=sys.stderr)
        sys.exit(1)


def _cmd_fig3(args) -> None:
    from .microbench import figure3_energy_proportions
    from .report import render_table

    rows = [
        {"config": cfg, **vals}
        for cfg, vals in figure3_energy_proportions(
            backend=args.backend, seed=args.seed).items()
    ]
    print(render_table(rows, "Figure 3: bulk-compare energy proportions"))


def _configure_size(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size", type=int, default=4096,
                        help="operand bytes (default 4096)")


def _cmd_fig7(args) -> None:
    from .microbench import figure7, figure7_summary
    from .report import render_figure7

    runner = _runner_from(args)
    results = figure7(size=args.size, runner=runner,
                      backend=args.backend, seed=args.seed)
    print(render_figure7(results))
    print()
    for key, value in figure7_summary(results).items():
        print(f"  {key}: {value:.2f}")
    _finish_runner(runner, args)


def _cmd_fig8(args) -> None:
    from .microbench import figure8a_inplace_vs_nearplace, figure8b_levels
    from .report import render_table

    runner = _runner_from(args)
    rows = []
    for kernel, pair in figure8a_inplace_vs_nearplace(
            args.size, runner=runner, backend=args.backend,
            seed=args.seed).items():
        rows.append({
            "kernel": kernel,
            "in-place nJ": pair["inplace"].total_energy_nj,
            "near-place nJ": pair["nearplace"].total_energy_nj,
            "energy ratio": pair["nearplace"].total_energy_nj
            / pair["inplace"].total_energy_nj,
            "throughput ratio": pair["nearplace"].steady_cycles
            / pair["inplace"].steady_cycles,
        })
    print(render_table(rows, "Figure 8(a): in-place vs near-place"))
    print()
    rows = []
    for kernel, levels in figure8b_levels(args.size, runner=runner,
                                          backend=args.backend,
                                          seed=args.seed).items():
        for level, d in levels.items():
            rows.append({
                "kernel": kernel, "level": level,
                "savings nJ": d["total_savings_pj"] / 1000,
                "savings fraction": d["savings_fraction"],
            })
    print(render_table(rows, "Figure 8(b): dynamic-energy savings by level"))
    _finish_runner(runner, args)


def _configure_scale_half(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.5,
                        help="workload scale factor (1.0 = bench scale)")


def _cmd_fig9(args) -> None:
    from .appbench import figure9
    from .report import render_figure9

    runner = _runner_from(args)
    print(render_figure9(figure9(scale=args.scale, runner=runner,
                                 backend=args.backend, seed=args.seed)))
    _finish_runner(runner, args)


def _configure_intervals(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--intervals", type=int, default=1)


def _cmd_fig10(args) -> None:
    from .checkpointbench import figure10_overheads, summarize_overheads
    from .report import render_figure10

    runner = _runner_from(args)
    overheads = figure10_overheads(intervals=args.intervals, runner=runner,
                                   backend=args.backend)
    print(render_figure10(overheads))
    print()
    for key, value in summarize_overheads(overheads).items():
        print(f"  {key}: {value:.1%}")
    _finish_runner(runner, args)


def _cmd_fig11(args) -> None:
    from .checkpointbench import figure11_energy
    from .report import render_figure11

    runner = _runner_from(args)
    print(render_figure11(figure11_energy(intervals=args.intervals,
                                          runner=runner,
                                          backend=args.backend)))
    _finish_runner(runner, args)


def _configure_sweeps(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel", default="logical",
                        help="kernel for the operand-size sweep")


def _cmd_sweeps(args) -> None:
    from .report import render_table
    from .runner import format_runner_profile
    from .sweeps import (
        noc_distance_sweep,
        operand_size_sweep,
        partition_parallelism_sweep,
        wordline_activation_sweep,
    )

    runner = _runner_from(args)
    print(render_table(operand_size_sweep(kernel=args.kernel, runner=runner,
                                          backend=args.backend,
                                          seed=args.seed),
                       f"Operand-size sweep ({args.kernel})"))
    print()
    print(render_table(partition_parallelism_sweep(runner=runner,
                                                   backend=args.backend,
                                                   seed=args.seed),
                       "Partition-parallelism sweep (copy)"))
    print()
    print(render_table(wordline_activation_sweep(),
                       "Word-line activation sweep"))
    print()
    print(render_table(noc_distance_sweep(), "NoC distance sweep"))
    print()
    print(format_runner_profile(runner.tracer))
    _finish_runner(runner, args)


def _configure_qdnn(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (1.0 = 32x32 input)")


def _cmd_qdnn(args) -> None:
    from .appbench import figure_qdnn
    from .report import render_figure9

    runner = _runner_from(args)
    summary = figure_qdnn(scale=args.scale, runner=runner,
                          backend=args.backend, seed=args.seed)
    print(render_figure9({"qdnn": summary}))
    print(f"  instructions: {summary.baseline_instructions} baseline -> "
          f"{summary.cc_instructions} CC")
    _finish_runner(runner, args)


def _configure_speed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel", default="xor",
                        choices=("and", "or", "xor", "not", "copy", "buz",
                                 "cmp"),
                        help="CC kernel shape to stream (default xor)")
    parser.add_argument("--size", type=int, default=4096,
                        help="bytes per operand (default 4096, fig7 scale)")
    parser.add_argument("--instructions", type=int, default=32,
                        help="distinct disjoint-operand instructions per pass")
    parser.add_argument("--passes", type=int, default=4,
                        help="timed re-issues of the whole stream")
    parser.add_argument("--window", type=int, default=8,
                        help="stream fusion window (default 8)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        metavar="X",
                        help="fail (exit 1) if stream speedup over the "
                             "sequential path falls below X on any backend")
    parser.add_argument("--baseline", metavar="BENCH_speed.json",
                        default=None,
                        help="committed baseline document to regress against")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional instructions/sec regression "
                             "vs --baseline (default 0.2)")


def _cmd_speed(args) -> None:
    import json

    from .speed import SpeedConfig, run_speed, summarize

    baseline = None
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    cfg = SpeedConfig(
        kernel=args.kernel, size=args.size, instructions=args.instructions,
        passes=args.passes, window=args.window,
        min_speedup=args.min_speedup, baseline=baseline,
        tolerance=args.tolerance, **_sim_overrides(args))
    _finish_document(run_speed(cfg), summarize, args)


def _configure_streambw(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernels", default="copy,scale,add,triad",
                        metavar="K,K",
                        help="comma-separated kernels (default: the four "
                             "STREAM kernels; gather/scatter run "
                             "scalar-only)")
    parser.add_argument("--clusters", default="1,2,4", metavar="N,N",
                        help="cluster counts to sweep (default 1,2,4)")
    parser.add_argument("--cores-per-cluster", type=int, default=2,
                        help="cores (= ring stops = L3 slices) per cluster")
    parser.add_argument("--words", type=int, default=1024,
                        help="uint32 elements per array per core "
                             "(default 1024)")
    parser.add_argument("--placement", choices=("hub", "local"),
                        default="hub",
                        help="page placement: hub homes every page on "
                             "cluster 0 (NUMA stress); local homes pages "
                             "core-locally")
    parser.add_argument("--inter-hop-latency", type=int, default=24,
                        help="cluster-ring hop latency in cycles "
                             "(default 24)")
    parser.add_argument("--check-words", type=int, default=256,
                        help="array size for the flat-ring and "
                             "cross-backend bit-identity checks "
                             "(default 256)")


def _cmd_streambw(args) -> None:
    from .streambw import StreamBWConfig, run_streambw_sweep, summarize

    cfg = StreamBWConfig(
        kernels=tuple(args.kernels.split(",")),
        clusters=tuple(int(c) for c in args.clusters.split(",")),
        cores_per_cluster=args.cores_per_cluster,
        words=args.words, placement=args.placement,
        inter_hop_latency=args.inter_hop_latency,
        check_words=args.check_words, **_sim_overrides(args))
    runner = _runner_from(args)
    _finish_document(run_streambw_sweep(cfg, runner=runner), summarize,
                     args, runner)


def _configure_crypto(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernels", default="ghash,crc32,crc64,ntt",
                        metavar="K,K",
                        help="comma-separated crypto kernels (default: all)")
    parser.add_argument("--ghash-blocks", type=int, default=64,
                        help="16-byte GHASH message blocks (default 64)")
    parser.add_argument("--crc-bytes", type=int, default=1024,
                        help="CRC message bytes (default 1024)")
    parser.add_argument("--ntt-n", type=int, default=128,
                        help="negacyclic polynomial degree (default 128)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="fault-campaign plan seed (default 0)")
    parser.add_argument("--pulse-every", type=int, default=8,
                        help="fault pulse period in CC instructions")
    parser.add_argument("--no-faults", action="store_true",
                        help="skip the silent-error resilience section")


def _cmd_crypto(args) -> None:
    from .crypto import CryptoSweepConfig, run_crypto_sweep, summarize

    cfg = CryptoSweepConfig(
        kernels=tuple(args.kernels.split(",")),
        ghash_blocks=args.ghash_blocks, crc_bytes=args.crc_bytes,
        ntt_n=args.ntt_n, fault_seed=args.fault_seed,
        pulse_every=args.pulse_every, run_faults=not args.no_faults,
        **_sim_overrides(args))
    runner = _runner_from(args)
    _finish_document(run_crypto_sweep(cfg, runner=runner,
                                      backend=args.backend),
                     summarize, args, runner)


#: Every benchmark suite, in the order ``repro bench --help`` lists them.
BENCH_SUITES: dict[str, BenchSuite] = {
    suite.name: suite
    for suite in (
        BenchSuite("fig3", "Figure 3 energy proportions", _cmd_fig3),
        BenchSuite("fig7", "Figure 7 micro-benchmarks", _cmd_fig7,
                   configure=_configure_size),
        BenchSuite("fig8", "Figure 8 in/near-place + levels", _cmd_fig8,
                   configure=_configure_size),
        BenchSuite("fig9", "Figure 9 applications", _cmd_fig9,
                   configure=_configure_scale_half),
        BenchSuite("fig10", "Figure 10 checkpoint overheads", _cmd_fig10,
                   configure=_configure_intervals),
        BenchSuite("fig11", "Figure 11 checkpoint energy", _cmd_fig11,
                   configure=_configure_intervals),
        BenchSuite("sweeps",
                   "design-space sweeps around the 4 KB operating point",
                   _cmd_sweeps, configure=_configure_sweeps),
        BenchSuite("qdnn", "Neural Cache quantized-DNN benchmark",
                   _cmd_qdnn, configure=_configure_qdnn),
        BenchSuite("speed",
                   "sustained simulator-throughput benchmark (sequential "
                   "vs stream scheduler; see docs/benchmarks.md)",
                   _cmd_speed, configure=_configure_speed,
                   out_default="BENCH_speed.json"),
        BenchSuite("streambw",
                   "STREAM NUMA bandwidth sweep over cluster counts "
                   "(see docs/topology.md)",
                   _cmd_streambw, configure=_configure_streambw,
                   out_default="BENCH_streambw.json"),
        BenchSuite("crypto",
                   "crypto kernels on cc_clmul vs scalar CPU, with the "
                   "silent-error resilience study (see docs/crypto.md)",
                   _cmd_crypto, configure=_configure_crypto,
                   out_default="BENCH_crypto.json"),
    )
}


def bench_suites() -> dict[str, BenchSuite]:
    """The benchmark-suite registry behind ``repro bench <suite>`` —
    name -> :class:`BenchSuite` (a copy; mutating it does not affect the
    CLI)."""
    return dict(BENCH_SUITES)
