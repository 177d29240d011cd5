"""Command-line interface: regenerate the paper's exhibits from a shell.

Usage::

    python -m repro bench <suite>    # any benchmark suite (fig3-fig11,
                                     # sweeps, qdnn, speed, streambw,
                                     # crypto) behind one dispatcher
    python -m repro bench fig7       # micro-benchmarks (Fig 7a-c)
    python -m repro bench fig9 --scale 0.5
                                     # applications (Fig 9a-b)
    python -m repro bench speed --instructions 32 --passes 4
                                     # sustained simulator throughput
                                     # -> BENCH_speed.json
    python -m repro bench streambw --clusters 1,2,4
                                     # STREAM NUMA bandwidth sweep
                                     # -> BENCH_streambw.json
    python -m repro bench crypto     # GHASH/CRC/NTT on cc_clmul + fault
                                     # study -> BENCH_crypto.json
    python -m repro tables           # Tables I, III, V
    python -m repro demo             # quickstart walkthrough
    python -m repro export --full --jobs 4
                                     # machine-readable results JSON
    python -m repro profile t.trace --chrome-trace t.json
                                     # cycle-attribution profile of a trace
    python -m repro faults --seed 5  # fault-injection campaign and
                                     # resilience report (docs/faults.md)

Every ``bench`` suite shares one flag set — ``--jobs N`` (process-pool
parallelism), ``--no-cache``, ``--cache-dir``, the simulation trio
``--backend``/``--trace-events``/``--seed``, and ``--out`` — see
``docs/benchmarks.md`` for the runner architecture and cache semantics.
Each suite's own flags and the command that reads them live in
:mod:`repro.bench.suites` (``repro.api.bench_suites()``); this module
holds the other subcommands, the parser, and the ``--out`` tee of the
print-only suites.
"""

from __future__ import annotations

import argparse
import sys

from .params import BACKENDS


def _cmd_tables(_args) -> None:
    from .bench.microbench import table1_rows, table3_rows, table5_rows
    from .bench.report import render_table

    print(render_table(table1_rows(), "Table I: cache energy per read access"))
    print()
    print(render_table(table3_rows(), "Table III: geometry & operand locality"))
    print()
    print(render_table(table5_rows(), "Table V: CC energy (pJ) per 64-byte block"))


def _cmd_docscheck(args) -> None:
    from pathlib import Path

    from .docscheck import run_docscheck, write_isa_table

    if args.write_isa_table:
        write_isa_table(Path(args.root) if args.root else Path.cwd())
        print("docs/isa.md: generated ISA table rewritten")
        return
    errors = run_docscheck(args.root, examples=not args.no_examples,
                           verbose=args.verbose)
    if errors:
        for err in errors:
            print(f"FAIL {err}")
        raise SystemExit(1)
    print("docscheck: all documentation checks passed")


def _cmd_demo(args) -> None:
    import random

    from . import ComputeCacheMachine, cc_ops

    m = ComputeCacheMachine(backend=args.backend,
                            trace_events=args.trace_events or None)
    a, b, c = m.arena.alloc_colocated(4096, 3)
    if args.seed is None:
        m.load(a, bytes(range(256)) * 16)
    else:
        m.load(a, random.Random(f"{args.seed}:demo").randbytes(4096))
    m.load(b, b"\x0f" * 4096)
    res = m.cc(cc_ops.cc_and(a, b, c, 4096))
    print(f"cc_and over 4 KB: level={res.level}, {res.inplace_ops} in-place "
          f"block ops, {res.cycles:.0f} cycles")
    print(f"first 16 result bytes: {m.peek(c, 16).hex()}")
    print(f"dynamic energy: {m.ledger.total_nj():.1f} nJ "
          f"({m.ledger.breakdown()})")
    if args.trace_events:
        from collections import Counter

        counts = Counter(e.kind for e in m.tracer.snapshot())
        print("events: " + ", ".join(f"{kind}: {n}"
                                     for kind, n in sorted(counts.items())))


def _cmd_profile(args) -> None:
    from .events import format_profile, profile_trace, write_chrome_trace
    from .machine import ComputeCacheMachine
    from .params import sandybridge_8core, small_test_machine

    config = (small_test_machine() if args.machine == "small"
              else sandybridge_8core())
    if args.buffer is not None:
        from dataclasses import replace
        config = replace(config, event_buffer_capacity=args.buffer)
    machine = ComputeCacheMachine(config, backend=args.backend,
                                  trace_events=True)
    with open(args.trace, encoding="utf-8") as handle:
        text = handle.read()
    profile, result, machine = profile_trace(text, machine=machine)
    print(f"trace: {args.trace}  "
          f"({result.instructions:,} instructions, "
          f"{result.cc_instructions:,} CC, "
          f"{result.cycles:,.1f} cycles, "
          f"{result.dynamic_nj:,.1f} nJ dynamic)")
    print()
    print(format_profile(profile))
    if args.chrome_trace:
        write_chrome_trace(machine.tracer.snapshot(), args.chrome_trace)
        print()
        print(f"wrote Chrome-trace JSON to {args.chrome_trace} "
              f"(load in Perfetto / chrome://tracing)")
    if not profile.validate(result.cycles):
        sys.exit(1)


def _cmd_validate(args) -> None:
    from .validate import run_validation

    if not run_validation(backend=args.backend):
        sys.exit(1)


def _cmd_export(args) -> None:
    from .bench.export import write_results
    from .bench.suites import _finish_runner, _runner_from

    runner = _runner_from(args)
    doc = write_results(args.out, full=args.full, runner=runner,
                        backend=args.backend)
    exhibits = [k for k in doc if k.startswith(("table", "figure"))]
    print(f"wrote {args.out}: {len(exhibits)} exhibits, "
          f"validation_ok={doc['validation_ok']}")
    _finish_runner(runner, args)


def _cmd_faults(args) -> None:
    import json

    from .faults import default_plan, run_campaign

    if args.plan:
        from dataclasses import replace

        from .config_io import load_fault_plan

        plan = load_fault_plan(args.plan)
        if args.seed is not None:
            plan = replace(plan, seed=args.seed)
    else:
        plan = default_plan(args.seed or 0)
    backends = BACKENDS if args.backend == "both" else (args.backend,)
    reports = [run_campaign(plan, backend=backend) for backend in backends]
    print(reports[0].format())
    ok = all(report.silent == 0 for report in reports)
    if len(reports) > 1:
        match = len({report.image_digest for report in reports}) == 1
        print()
        print("cross-backend digest: "
              + ("MATCH" if match else "MISMATCH")
              + f" ({' vs '.join(report.backend for report in reports)})")
        ok = ok and match
    if args.report:
        doc = [report.to_dict() for report in reports]
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
        print(f"wrote {args.report}")
    if not ok:
        sys.exit(1)


def _cmd_bench(args) -> None:
    """Run one registry suite.  ``--out`` on a print-only suite tees the
    rendered report to the file while still printing it."""
    import contextlib
    import io

    from .bench.suites import BENCH_SUITES

    suite = BENCH_SUITES[args.suite]
    if suite.out_default is not None or not args.out:
        suite.run(args)
        return

    class _Tee(io.TextIOBase):
        def __init__(self, *streams):
            self.streams = streams

        def write(self, s):
            for stream in self.streams:
                stream.write(s)
            return len(s)

        def flush(self):
            for stream in self.streams:
                stream.flush()

    with open(args.out, "w", encoding="utf-8") as handle:
        with contextlib.redirect_stdout(_Tee(sys.stdout, handle)):
            suite.run(args)
    print(f"wrote {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compute Caches (HPCA 2017) reproduction - experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runner_args = argparse.ArgumentParser(add_help=False)
    runner_args.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="simulate points on N worker processes (default 1 = serial)")
    runner_args.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the on-disk result cache")
    runner_args.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="result-cache directory (default .repro-cache)")

    # The common trio every simulation subcommand accepts.
    sim_args = argparse.ArgumentParser(add_help=False)
    sim_args.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="execution backend (default: config default, packed)")
    sim_args.add_argument(
        "--trace-events", action="store_true",
        help="collect event traces and print an attribution summary")
    sim_args.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="workload seed override (commands with fully deterministic "
             "workloads ignore it)")

    sub.add_parser("tables", help="Tables I, III, V").set_defaults(fn=_cmd_tables)

    # The registry-driven benchmark dispatcher: one `repro bench <suite>`
    # subparser per registered suite.
    from .bench.suites import BENCH_SUITES

    pbench = sub.add_parser(
        "bench",
        help="run a benchmark suite: repro bench <suite> "
             "(see docs/benchmarks.md)")
    bench_sub = pbench.add_subparsers(dest="suite", required=True,
                                      metavar="<suite>")
    for suite in BENCH_SUITES.values():
        sp = bench_sub.add_parser(suite.name, help=suite.help,
                                  parents=[runner_args, sim_args])
        sp.add_argument(
            "--out", default=suite.out_default, metavar="OUT",
            help=(f"output document (default {suite.out_default})"
                  if suite.out_default else
                  "also write the rendered report to this file"))
        if suite.configure is not None:
            suite.configure(sp)
        sp.set_defaults(fn=_cmd_bench)

    pdc = sub.add_parser(
        "docscheck",
        help="documentation consistency: ISA table, links, doc examples")
    pdc.add_argument("--root", default=None,
                     help="repository root (default: auto-detect)")
    pdc.add_argument("--no-examples", action="store_true",
                     help="skip executing fenced doc examples")
    pdc.add_argument("--write-isa-table", action="store_true",
                     help="rewrite the generated ISA table in docs/isa.md")
    pdc.add_argument("--verbose", action="store_true",
                     help="name each example as it runs")
    pdc.set_defaults(fn=_cmd_docscheck)

    pd = sub.add_parser("demo", help="quick CC walkthrough",
                        parents=[sim_args])
    pd.set_defaults(fn=_cmd_demo)

    pp = sub.add_parser(
        "profile",
        help="replay a trace with event tracing and report cycle attribution",
        parents=[sim_args],
    )
    pp.add_argument("trace", help="trace file (see repro.trace for the grammar)")
    pp.add_argument("--machine", choices=("paper", "small"), default="paper",
                    help="machine config: paper (Table IV) or small (test-sized)")
    pp.add_argument("--buffer", type=int, default=None,
                    help="event ring-buffer capacity (default 1Mi events)")
    pp.add_argument("--chrome-trace", metavar="OUT.json", default=None,
                    help="also write a Chrome-trace/Perfetto JSON timeline")
    pp.set_defaults(fn=_cmd_profile)

    pv = sub.add_parser(
        "validate", help="fast end-to-end self-check of every layer",
        parents=[sim_args],
    )
    pv.set_defaults(fn=_cmd_validate)

    pe = sub.add_parser("export", help="write machine-readable results JSON",
                        parents=[runner_args, sim_args])
    pe.add_argument("--out", default="results.json")
    pe.add_argument("--full", action="store_true",
                    help="include Figures 8b/9/10/11 (minutes of simulation)")
    pe.set_defaults(fn=_cmd_export)

    pf = sub.add_parser(
        "faults",
        help="run a deterministic fault-injection campaign and report "
             "resilience (see docs/faults.md)",
    )
    pf.add_argument("--seed", type=int, default=None, metavar="N",
                    help="fault-schedule seed (default: the plan's own seed "
                         "with --plan, else 0)")
    pf.add_argument("--plan", metavar="PLAN.json", default=None,
                    help="fault plan JSON (default: the built-in default "
                         "plan covering every fault kind)")
    pf.add_argument("--backend", choices=BACKENDS + ("both",), default="both",
                    help="backend(s) to campaign on; 'both' (default) also "
                         "cross-checks the report digests")
    pf.add_argument("--report", metavar="OUT.json", default=None,
                    help="also write the resilience report(s) as JSON")
    pf.set_defaults(fn=_cmd_faults)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
