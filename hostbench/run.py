"""Whole-workload host benchmark of the Compute Caches simulator.

One single-threaded process runs one workload in a closed loop: one
client, units back to back, each unit one application run on a fresh
machine.  A *pass* runs every unit of the workload once; the run repeats
passes for ``--seconds`` seconds (at least three untraced passes)::

    python3 hostbench/run.py --workload cc-apps --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` one untraced pass runs first; then timing wrappers are
installed around every layer's entry points, the traced passes report
the per-layer metrics, and the first traced pass's spans are written as
a Chrome trace under ``hostbench/out/``.  Host times are in reference
seconds (see ``hostclock.py``).  Every unit's output is checked against
a reference computed outside the simulator, and its simulated counters
must repeat on every pass and, at the default seed, match
``counters.json`` (``--record`` rewrites that file's entry for the
workload).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTERS = HERE / "counters.json"
OUT = HERE / "out"
MIN_PASSES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# (name, unit, better); the bounds live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("sim_ips", "instr/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_cycles", "cycles", "lower"),
    ("sim_energy_nj", "nJ", "lower"),
)

HOST_METRICS = {
    # layer -> host metrics besides self_s: its call count, and for three
    # layers the self time per unit of simulated work
    "apps": (),
    "machine": ("calls",),
    "cpu": ("calls", "us_per_instr"),
    "core.controller": ("calls", "us_per_block_op"),
    "core.stream": ("calls",),
    "core.inplace": ("calls",),
    "core.nearplace": ("calls",),
    "cache": ("calls", "us_per_call"),
    "sram": ("calls",),
    "kernels": ("calls",),
    "energy": ("calls",),
    "events": ("calls",),
}

SIM_METRICS = (
    ("sim.cpu.instructions", "count", "lower"),
    ("sim.cpu.stall_cycles", "cycles", "lower"),
    ("sim.cc.instructions", "count", "lower"),
    ("sim.cc.block_ops", "count", "lower"),
    ("sim.cc.inplace_ratio", "ratio", "higher"),
    ("sim.cc.nearplace_ops", "count", "lower"),
    ("sim.cc.risc_ops", "count", "lower"),
    ("sim.cc.memo_hit_ratio", "ratio", "higher"),
    ("sim.stream.fused_fraction", "ratio", "higher"),
    ("sim.stream.kernel_calls", "count", "lower"),
    ("sim.cache.l1_hit_ratio", "ratio", "higher"),
    ("sim.cache.l2_hit_ratio", "ratio", "higher"),
    ("sim.cache.l3_hit_ratio", "ratio", "higher"),
    ("sim.cache.l3_evictions", "count", "lower"),
    ("sim.cache.writebacks", "count", "lower"),
    ("sim.cache.memory_reads", "count", "lower"),
    ("sim.topo.inter_flit_hops", "count", "lower"),
    ("sim.sram.compute_ops", "count", "lower"),
    ("sim.energy.data_movement_share", "ratio", "lower"),
    ("sim.events.emitted", "count", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in output order."""
    spec = []
    for layer, extras in HOST_METRICS.items():
        spec.append((f"{layer}.self_s", "s", "lower"))
        for extra in extras:
            unit = "count" if extra == "calls" else "us"
            spec.append((f"{layer}.{extra}", unit, "lower"))
    spec.append(("trace.overhead", "ratio", "lower"))
    return spec + list(SIM_METRICS)


def bootstrap() -> None:
    """Pin BLAS to one thread and put the simulator's sources (``src/``
    of this checkout) on the import path; exit non-zero without them."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # The provenance header asks git for the commit; never look above the
    # checkout for a repository.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"hostbench: simulator sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


# -- passes ----------------------------------------------------------------------------


@dataclass
class PassResult:
    setup_s: float = 0.0           # reference seconds (see hostclock)
    wall_s: float = 0.0
    raw_setup_s: float = 0.0       # measured seconds
    raw_wall_s: float = 0.0
    timed_s: float = 0.0           # wall-clock time of the timed regions
    elapsed_s: float = 0.0         # the whole pass, output checks included
    instructions: int = 0
    cycles: float = 0.0
    energy_nj: float = 0.0
    totals: Counter = field(default_factory=Counter)
    units: dict = field(default_factory=dict)    # unit -> its Region records
    scales: dict = field(default_factory=dict)   # traced unit id -> time scale
    layers: dict | None = None     # traced passes: LayerTracer.self_times
    sim: dict | None = None        # traced passes: counters from results


class Bench:
    """Runs passes over one workload's units and counts failures: a unit
    fails when it raises, when its output differs from the reference,
    when its simulated counters differ from its first pass, or (when
    ``pinned`` is given) when they differ from the recorded ones."""

    def __init__(self, units, pinned: dict | None = None) -> None:
        self.units = units
        self.pinned = pinned
        self.first: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None) -> PassResult:
        from hostclock import HostClock

        out = PassResult()
        start = time.perf_counter()
        with HostClock() as clock:
            for unit in self.units:
                self.attempted += 1
                if tracer is not None:
                    tracer.unit += 1
                gc.collect()
                try:
                    setup, wall, result, counters = self._run_unit(unit, tracer, clock)
                except Exception as exc:  # noqa: BLE001 - a failed unit is counted
                    self.failures.append(f"{unit.name}: {exc!r}")
                    continue
                finally:
                    gc.collect()
                out.units[unit.name] = {"setup": vars(setup), "run": vars(wall)}
                timed = setup.elapsed_s + wall.elapsed_s
                if tracer is not None:
                    out.scales[tracer.unit] = (setup.seconds + wall.seconds) / timed
                out.setup_s += setup.seconds
                out.wall_s += wall.seconds
                out.raw_setup_s += setup.raw_s
                out.raw_wall_s += wall.raw_s
                out.timed_s += timed
                out.instructions += result.instructions
                out.cycles += result.cycles
                out.energy_nj += result.energy.total_nj()
                out.totals.update(counters)
        out.elapsed_s = time.perf_counter() - start
        return out

    def _run_unit(self, unit, tracer, clock):
        """Build the unit's machine, run and check it; returns the timed
        set-up and run regions, the result and its simulated counters."""
        from repro import api

        import workloads

        with clock.region() as setup:
            machine = api.ComputeCacheMachine(unit.config,
                                              trace_events=unit.trace_events)
        with clock.region() as wall:
            result = (tracer.root(unit.run) if tracer else unit.run)(machine)
        unit.check(machine, result)
        counters = workloads.unit_counters(machine, result)
        if counters != self.first.setdefault(unit.name, counters):
            raise workloads.Mismatch(
                f"{unit.name}: simulated counters differ from the first pass")
        if self.pinned is not None:
            if unit.name not in self.pinned:
                raise workloads.Mismatch(f"{unit.name}: no pinned counters")
            workloads.compare_counters(unit.name, counters, self.pinned[unit.name])
        return setup, wall, result, counters


def _stop(start: float, seconds: float, passes: list[PassResult], minimum: int) -> bool:
    """Stop once ``minimum`` passes ran and another would overrun."""
    if len(passes) < minimum:
        return False
    typical = statistics.median(p.elapsed_s for p in passes)
    return time.perf_counter() - start + typical > seconds


def measure(bench: Bench, seconds: float) -> list[PassResult]:
    start = time.perf_counter()
    passes: list[PassResult] = []
    while not _stop(start, seconds, passes, MIN_PASSES):
        passes.append(bench.run_pass())
    return passes


def measure_traced(bench: Bench, seconds: float, trace_path: Path):
    """One untraced pass, then traced passes until ``seconds`` elapse.
    Every traced pass feeds the metrics; the spans of the first one are
    written as the Chrome trace."""
    from layers import LayerTracer

    start = time.perf_counter()
    base = bench.run_pass()
    traced: list[PassResult] = []
    with LayerTracer() as tracer:
        while not _stop(start, seconds, [base] + traced, 2):
            mark = tracer.mark()
            tracer.sim.clear()
            result = bench.run_pass(tracer)
            result.layers = tracer.self_times(mark, scales=result.scales)
            result.sim = dict(tracer.sim)
            traced.append(result)
            if len(traced) > 1:
                tracer.truncate(mark)   # the Chrome trace keeps the first pass
    return base, traced, tracer, tracer.write_chrome_trace(trace_path)


# -- metrics ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(passes: list[PassResult]) -> dict[str, float]:
    first = passes[0]
    return {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "sim_ips": _ratio(sum(p.instructions for p in passes),
                          sum(p.wall_s for p in passes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_cycles": first.cycles,
        "sim_energy_nj": first.energy_nj,
    }


def sim_metrics(totals: Counter, sim: dict) -> dict[str, float]:
    """The simulated per-layer counters of one pass."""
    t = totals
    block_ops = (t["stats.cc_inplace_ops"] + t["stats.cc_nearplace_ops"]
                 + t["stats.cc_risc_ops"])
    levels = ("L1", "L2", "L3")
    return {
        "sim.cpu.instructions": sim.get("cpu.instructions", 0),
        "sim.cpu.stall_cycles": sim.get("cpu.stall_cycles", 0.0),
        "sim.cc.instructions": t["stats.cc_instructions"],
        "sim.cc.block_ops": block_ops,
        "sim.cc.inplace_ratio": _ratio(t["stats.cc_inplace_ops"], block_ops),
        "sim.cc.nearplace_ops": t["stats.cc_nearplace_ops"],
        "sim.cc.risc_ops": t["stats.cc_risc_ops"],
        "sim.cc.memo_hit_ratio": _ratio(t["controller.level_memo_hits"],
                                        t["stats.cc_instructions"]),
        "sim.stream.fused_fraction": _ratio(sim.get("stream.fused_instructions", 0),
                                            sim.get("stream.instructions", 0)),
        "sim.stream.kernel_calls": sim.get("stream.kernel_calls", 0),
        "sim.cache.l1_hit_ratio": _ratio(t["stats.levels.L1.hits"],
                                         t["stats.levels.L1.lookups"]),
        "sim.cache.l2_hit_ratio": _ratio(t["stats.levels.L2.hits"],
                                         t["stats.levels.L2.lookups"]),
        # The L3 slices keep no tag statistics: count the blocks supplied
        # at the L3 level that came from the arrays rather than memory.
        "sim.cache.l3_hit_ratio": _ratio(t["stats.levels.L3.reads"],
                                         t["stats.levels.L3.reads"]
                                         + t["stats.memory_reads"]),
        "sim.cache.l3_evictions": t["stats.levels.L3.evictions"],
        "sim.cache.writebacks": sum(t[f"stats.levels.{lv}.writebacks"] for lv in levels),
        "sim.cache.memory_reads": t["stats.memory_reads"],
        "sim.topo.inter_flit_hops": t["topo.inter_flit_hops"],
        "sim.sram.compute_ops": sum(t[f"stats.levels.{lv}.subarray_compute_ops"]
                                    for lv in levels),
        "sim.energy.data_movement_share": _ratio(t["energy_pj.data_movement"],
                                                 t["energy_pj.total"]),
        "sim.events.emitted": t["events.emitted"],
    }


def host_metrics(p: PassResult, sim: dict[str, float], base_wall: float) -> dict:
    """The host per-layer metrics of one traced pass."""
    from layers import LAYER_NAMES

    self_ns, calls = p.layers["self_ref_ns"], p.layers["calls"]
    out = {}
    for layer, extras in HOST_METRICS.items():
        i = LAYER_NAMES.index(layer)
        out[f"{layer}.self_s"] = self_ns[i] / 1e9
        for extra in extras:
            if extra == "calls":
                out[f"{layer}.calls"] = int(calls[i])
    us = {name: self_ns[LAYER_NAMES.index(name)] / 1e3
          for name in ("cpu", "core.controller", "cache")}
    out["cpu.us_per_instr"] = _ratio(us["cpu"], sim["sim.cpu.instructions"])
    out["core.controller.us_per_block_op"] = _ratio(us["core.controller"],
                                                    sim["sim.cc.block_ops"])
    out["cache.us_per_call"] = _ratio(us["cache"], out["cache.calls"])
    out["trace.overhead"] = _ratio(p.wall_s, base_wall)
    return out


def per_layer(base: PassResult, traced: list[PassResult]) -> dict[str, float]:
    """Medians over the traced passes of every per-layer metric."""
    rows = []
    for p in traced:
        sim = sim_metrics(p.totals, p.sim)
        rows.append({**host_metrics(p, sim, base.wall_s), **sim})
    return {name: statistics.median(row[name] for row in rows)
            for name, _, _ in per_layer_spec()}


def trace_coverage(traced: list[PassResult]) -> float:
    """Root-span time over measured traced time (setup + units); the
    per-layer self times sum to the root-span time by construction."""
    measured = sum(p.timed_s for p in traced)
    return _ratio(sum(p.layers["root_ns"] for p in traced) / 1e9, measured)


# -- reporting -------------------------------------------------------------------------


def host_info(units) -> dict:
    """The host and code a result was measured on."""
    import numpy

    from repro import api

    provenance = api.bench_provenance()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": provenance["git_commit"],
        "code_version": provenance["code_version"],
        "backend": sorted({unit.config.backend for unit in units}),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def load_pinned(workload: str, seed: int) -> dict | None:
    """Recorded counters of ``workload`` (``{}`` when none were
    recorded); ``None`` away from the default seed."""
    import workloads

    if seed != workloads.DEFAULT_SEED:
        return None
    if not COUNTERS.is_file():
        return {}
    with open(COUNTERS, encoding="utf-8") as handle:
        doc = json.load(handle)
    return doc.get("workloads", {}).get(workload, {})


def record_pinned(workload: str, counters: dict) -> None:
    import workloads

    doc = {"workloads": {}}
    if COUNTERS.is_file():
        with open(COUNTERS, encoding="utf-8") as handle:
            doc = json.load(handle)
    doc["seed"] = workloads.DEFAULT_SEED
    doc["workloads"][workload] = counters
    with open(COUNTERS, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _metric_block(values: dict, spec) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit, *_ in spec}


def main(argv=None) -> int:
    bootstrap()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite this workload's pinned counters "
                             "(default seed only)")
    args = parser.parse_args(argv)
    if args.record and args.seed != workloads.DEFAULT_SEED:
        parser.error(f"--record needs the default seed {workloads.DEFAULT_SEED}")
    units, _ = workloads.build(args.workload, args.seed)
    pinned = None if args.record else load_pinned(args.workload, args.seed)
    bench = Bench(units, pinned)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "host": host_info(units),
              "units": [unit.name for unit in units]}

    if args.trace:
        trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        base, traced, tracer, spans = measure_traced(bench, args.seconds, trace_path)
        values = per_layer(base, traced)
        spec = per_layer_spec()
        coverage = trace_coverage(traced)
        detail.update(traced_passes=len(traced), spans=spans,
                      chrome_trace=str(trace_path.relative_to(ROOT)),
                      trace_coverage=coverage, warnings=tracer.warnings)
        if not 0.95 <= coverage <= 1.0:
            warning = f"root spans cover {coverage:.3f} of the measured traced time"
            tracer.warnings.append(warning)
            print(f"warning: {warning}", file=sys.stderr)
        summary = (f"{len(traced)} traced passes after 1 untraced pass; "
                   f"{spans} spans -> {detail['chrome_trace']}; "
                   f"coverage {coverage:.4f}")
    else:
        passes = measure(bench, args.seconds)
        values = end_to_end(passes)
        spec = END_TO_END
        detail.update(passes=len(passes),
                      pass_wall_s=[p.wall_s for p in passes],
                      pass_setup_s=[p.setup_s for p in passes],
                      pass_raw_wall_s=[p.raw_wall_s for p in passes],
                      pass_raw_setup_s=[p.raw_setup_s for p in passes],
                      pass_units=[p.units for p in passes])
        summary = (f"{len(passes)} passes; setup_s and wall_s are pass medians "
                   f"in reference seconds (hostbench/hostclock.py)")
        if args.record and not bench.failures:
            record_pinned(args.workload, bench.first)
            summary += f"; recorded counters to {COUNTERS.relative_to(ROOT)}"

    detail.update(attempted=bench.attempted, failed=len(bench.failures),
                  failures=bench.failures, metrics=values)
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, default=float)
        handle.write("\n")
    print(f"hostbench {args.workload} seed={args.seed}: {summary}")
    print("host: " + json.dumps(detail["host"], sort_keys=True))
    for failure in bench.failures:
        print(f"FAILED {failure}")
    for name, unit, *_ in spec:
        print(f"  {name:34s} {values[name]:>18.6g} {unit}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": _metric_block(values, spec),
    }, default=float))
    return 0 if not bench.failures else 1


if __name__ == "__main__":
    sys.exit(main())
