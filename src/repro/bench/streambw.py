"""NUMA bandwidth sweep — ``repro bench streambw`` -> ``BENCH_streambw.json``.

Runs the STREAM kernels (:mod:`repro.apps.streambw`) over a grid of
cluster counts, in both variants — scalar Base_32 through the multicore
runner and CC-lowered into the L3 slices — and compares the measured CC
bandwidth against an *analytic scalar roofline*:

* **issue bound** — each core issues one instruction per cycle, so a
  kernel whose inner loop spends :func:`scalar_instructions_per_granule`
  instructions moving ``STREAM_FACTORS x 32`` analytic bytes can never
  exceed that ratio, regardless of the memory system;
* **bandwidth bound** — a streaming core sustains at most
  ``MEMORY_LEVEL_PARALLELISM`` outstanding misses, each a control
  request to the page's home slice plus a data block back, so remote
  homes cap bytes/cycle at ``64 x MLP / round-trip``.  The round trip
  deliberately omits the L1/L2 lookup pipeline, so the bound is a true
  upper bound on what any scalar schedule could achieve.

Under ``"hub"`` placement every page is homed on cluster 0, so the
bandwidth bound decays as clusters are added (more cores fetch across
ever-longer gateway routes) while CC execution — which moves control
messages, not data blocks — stays flat.  The *crossover* the sweep
reports is the smallest cluster count where a kernel's measured CC
bandwidth beats the scalar roofline outright.

The output document carries a ``numa_scaling`` section (per-point rows,
per-kernel rooflines, crossover cluster counts) plus a three-part
contract enforced by the CI ``streambw-smoke`` job:

1. at least one kernel exhibits a CC-over-roofline crossover;
2. a 1-cluster machine is cycle- and energy-identical to the same
   machine running on the flat pre-topology :class:`RingInterconnect`;
3. the packed and bitexact backends produce bit-identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..apps.streambw import (
    GRANULE,
    STREAM_FACTORS,
    STREAM_KERNELS,
    run_streambw,
    scalar_instructions_per_granule,
)
from ..cache.ring import RingInterconnect
from ..cache.topology import ClusterInterconnect
from ..config_io import config_to_dict
from ..cpu.core_model import MEMORY_LEVEL_PARALLELISM
from ..errors import ReproError
from ..machine import ComputeCacheMachine
from ..params import BACKENDS, BLOCK_SIZE, MachineConfig, multi_cluster
from .microbench import _resolve_runner
from .report import bench_document
from .runner import Point

STREAMBW_SCHEMA = "repro.streambw/1"


@dataclass
class StreamBWConfig:
    """One ``repro bench streambw`` sweep (CLI flags map onto these
    fields; ``--backend`` narrows ``backends`` to one)."""

    kernels: tuple[str, ...] = STREAM_KERNELS
    clusters: tuple[int, ...] = (1, 2, 4)
    cores_per_cluster: int = 2
    words: int = 1024               # uint32 elements per array per core
    placement: str = "hub"          # "hub" = NUMA stress, "local" = best case
    inter_hop_latency: int = 24
    seed: int = 107
    check_words: int = 256          # identity checks run at this small size
    backends: tuple[str, ...] = BACKENDS


def machine_for(clusters: int, cores_per_cluster: int,
                inter_hop_latency: int = 24) -> MachineConfig:
    """The sweep's machine at one cluster count (test-scale caches)."""
    return multi_cluster(clusters, cores_per_cluster,
                         inter_hop_latency=inter_hop_latency)


# -- the analytic scalar roofline ------------------------------------------------------


def _home_slices(config: MachineConfig, core: int, placement: str) -> list[int]:
    """L3 slices a core's pages are homed on (mirrors ``stage_workload``)."""
    if placement == "hub":
        return list(range(config.ring.stops // config.topology.clusters))
    return [core % config.ring.stops]


def scalar_roofline(config: MachineConfig, kernel: str,
                    placement: str = "hub") -> float:
    """Upper bound (bytes/cycle) on scalar STREAM bandwidth for a machine.

    Per core: ``min(issue bound, bandwidth bound)``, summed over cores.
    The bandwidth bound uses the best-case miss round trip — home-slice
    control request + L3 hit + data block back, with no L1/L2 pipeline
    charge — so no scalar schedule on this machine can beat it.
    """
    if kernel not in STREAM_FACTORS:
        raise ReproError(f"unknown stream kernel {kernel!r}")
    ring = ClusterInterconnect(config.ring, config.topology)
    l3_hit = config.l3_slice.hit_latency
    issue_bound = (STREAM_FACTORS[kernel] * GRANULE
                   / scalar_instructions_per_granule(kernel))
    total = 0.0
    for core in range(config.cores):
        stop = RingInterconnect.core_stop(core, config.ring.stops)
        homes = _home_slices(config, core, placement)
        rtt = sum(ring.latency(stop, home, data=False) + l3_hit
                  + ring.latency(home, stop, data=True)
                  for home in homes) / len(homes)
        bw_bound = (BLOCK_SIZE * MEMORY_LEVEL_PARALLELISM / rtt
                    if rtt else float("inf"))
        total += min(issue_bound, bw_bound)
    return total


# -- grid execution through the sweep runner -------------------------------------------


def streambw_point_spec(kernel: str, variant: str, clusters: int,
                        cfg: StreamBWConfig) -> Point:
    """The :class:`~repro.bench.runner.Point` descriptor for one cell."""
    return Point("streambw", {
        "kernel": kernel, "variant": variant, "clusters": clusters,
        "cores_per_cluster": cfg.cores_per_cluster, "words": cfg.words,
        "placement": cfg.placement,
        "inter_hop_latency": cfg.inter_hop_latency, "seed": cfg.seed,
    }, label=f"streambw/{kernel}/{variant}@c{clusters}")


def _grid(cfg: StreamBWConfig) -> list[tuple[str, str, int]]:
    cells = []
    for kernel in cfg.kernels:
        variants = ("scalar", "cc") if kernel in STREAM_KERNELS else ("scalar",)
        for clusters in cfg.clusters:
            for variant in variants:
                cells.append((kernel, variant, clusters))
    return cells


# -- in-process identity checks --------------------------------------------------------


def flat_equivalence_check(cfg: StreamBWConfig,
                           kernel: str = "add") -> dict[str, Any]:
    """A 1-cluster machine vs the same machine on the flat pre-topology
    ring: cycles, instructions, and the full energy ledger must be
    bit-identical (the golden-compat guarantee of the topology layer)."""
    runs = {}
    for mode in ("clustered", "flat"):
        machine_cfg = machine_for(1, cfg.cores_per_cluster,
                                  cfg.inter_hop_latency)
        machine = ComputeCacheMachine(machine_cfg)
        if mode == "flat":
            machine.hierarchy.ring = RingInterconnect(machine_cfg.ring,
                                                      machine.ledger)
        res = run_streambw(kernel, machine, variant="scalar",
                           words=cfg.check_words, placement=cfg.placement,
                           seed=cfg.seed)
        runs[mode] = {
            "cycles": res.cycles,
            "instructions": res.instructions,
            "energy_pj": dict(res.energy.pj),
        }
    return {
        "kernel": kernel,
        "identical": runs["clustered"] == runs["flat"],
        **runs,
    }


def backend_equivalence_check(cfg: StreamBWConfig,
                              kernel: str = "add") -> dict[str, Any]:
    """One CC point per backend; every number must be bit-identical."""
    clusters = max(cfg.clusters)
    runs = {}
    for backend in cfg.backends:
        machine = ComputeCacheMachine(
            machine_for(clusters, cfg.cores_per_cluster,
                        cfg.inter_hop_latency),
            backend=backend)
        res = run_streambw(kernel, machine, variant="cc",
                           words=cfg.check_words, placement=cfg.placement,
                           seed=cfg.seed)
        runs[backend] = {
            "cycles": res.cycles,
            "instructions": res.instructions,
            "energy_pj": dict(res.energy.pj),
            "stats": dict(res.stats),
        }
    values = list(runs.values())
    return {
        "kernel": kernel,
        "clusters": clusters,
        "backends": list(cfg.backends),
        "identical": all(v == values[0] for v in values[1:]),
    }


# -- the benchmark document ------------------------------------------------------------


def run_streambw_sweep(cfg: StreamBWConfig,
                       runner=None) -> dict[str, Any]:
    """Run the sweep; returns the ``BENCH_streambw.json`` document."""
    for kernel in cfg.kernels:
        if kernel not in STREAM_FACTORS:
            raise ReproError(f"unknown stream kernel {kernel!r}")
    runner = _resolve_runner(runner)
    cells = _grid(cfg)
    docs = runner.run([streambw_point_spec(kernel, variant, clusters, cfg)
                       for kernel, variant, clusters in cells])

    rows = []
    bw = {}           # (kernel, variant, clusters) -> measured bytes/cycle
    for (kernel, variant, clusters), doc in zip(cells, docs):
        row = dict(doc)
        row["roofline_bytes_per_cycle"] = scalar_roofline(
            machine_for(clusters, cfg.cores_per_cluster,
                        cfg.inter_hop_latency),
            kernel, cfg.placement)
        rows.append(row)
        bw[(kernel, variant, clusters)] = row["bytes_per_cycle"]

    rooflines = {
        kernel: {
            str(clusters): scalar_roofline(
                machine_for(clusters, cfg.cores_per_cluster,
                            cfg.inter_hop_latency),
                kernel, cfg.placement)
            for clusters in cfg.clusters
        }
        for kernel in cfg.kernels
    }
    crossover_clusters: dict[str, int | None] = {}
    for kernel in cfg.kernels:
        if kernel not in STREAM_KERNELS:
            continue
        crossover_clusters[kernel] = next(
            (clusters for clusters in sorted(cfg.clusters)
             if bw[(kernel, "cc", clusters)]
             > rooflines[kernel][str(clusters)]),
            None)

    flat = flat_equivalence_check(cfg)
    backend = backend_equivalence_check(cfg)
    failures = []
    if not any(c is not None for c in crossover_clusters.values()):
        failures.append("no kernel's CC bandwidth crossed the scalar "
                        "roofline at any cluster count")
    if not flat["identical"]:
        failures.append("1-cluster machine is not bit-identical to the "
                        "flat pre-topology ring")
    if not backend["identical"]:
        failures.append("packed and bitexact backends disagree")

    return bench_document(
        STREAMBW_SCHEMA,
        {
            "kernels": list(cfg.kernels),
            "clusters": list(cfg.clusters),
            "cores_per_cluster": cfg.cores_per_cluster,
            "words": cfg.words,
            "placement": cfg.placement,
            "inter_hop_latency": cfg.inter_hop_latency,
            "seed": cfg.seed,
        },
        machine=config_to_dict(
            machine_for(max(cfg.clusters), cfg.cores_per_cluster,
                        cfg.inter_hop_latency)),
        numa_scaling={
            "rows": rows,
            "rooflines": rooflines,
            "crossover_clusters": crossover_clusters,
        },
        checks={
            "flat_ring": flat,
            "backends": backend,
        },
        contract={
            "passed": not failures,
            "failures": failures,
        },
    )


def summarize(doc: dict[str, Any]) -> str:
    """Human-readable digest of a ``BENCH_streambw.json`` document."""
    lines = ["STREAM bandwidth over clusters (bytes/cycle, "
             f"placement={doc['config']['placement']}):"]
    section = doc["numa_scaling"]
    by_cell = {(r["kernel"], r["variant"], r["clusters"]): r
               for r in section["rows"]}
    for kernel in doc["config"]["kernels"]:
        parts = []
        for clusters in doc["config"]["clusters"]:
            scalar = by_cell[(kernel, "scalar", clusters)]
            cc = by_cell.get((kernel, "cc", clusters))
            roof = section["rooflines"][kernel][str(clusters)]
            cell = f"c{clusters}: {scalar['bytes_per_cycle']:.1f}"
            if cc is not None:
                cell += f"/cc {cc['bytes_per_cycle']:.1f}"
            cell += f" (roof {roof:.1f})"
            parts.append(cell)
        cross = section["crossover_clusters"].get(kernel)
        tail = (f"  crossover at {cross} clusters" if cross is not None
                else "  no crossover")
        lines.append(f"  {kernel:<6} " + " | ".join(parts) + tail)
    flat = doc["checks"]["flat_ring"]
    backend = doc["checks"]["backends"]
    lines.append("1-cluster == flat ring: "
                 + ("IDENTICAL" if flat["identical"] else "MISMATCH"))
    lines.append("backends " + "/".join(backend["backends"]) + ": "
                 + ("IDENTICAL" if backend["identical"] else "MISMATCH"))
    lines.append("contract: " + ("PASS" if doc["contract"]["passed"]
                                 else "FAIL"))
    return "\n".join(lines)
