"""Simulation-point functions: the unit of work the sweep runner executes.

The paper's evaluation is an embarrassingly parallel grid — every figure
and sweep simulates many independent (machine config × workload) points.
A *point function* is one cell of that grid as a module-level callable
that

* takes only JSON-serializable keyword arguments (so a point can be
  content-hashed into a cache key and shipped to a worker process), and
* returns only JSON-serializable data (so the result can be cached on
  disk and reloaded bit-identically).

Functions register under a short name in :data:`POINT_FUNCTIONS`; the
runner submits ``Point(fn="kernel", kwargs={...})`` descriptors and the
worker side resolves the name back to the callable — names, not
closures, cross the process boundary, which keeps every
``multiprocessing`` start method working.

The figure harnesses (:mod:`repro.bench.microbench`,
:mod:`~repro.bench.appbench`, :mod:`~repro.bench.checkpointbench`,
:mod:`~repro.bench.sweeps`) build their exhibits from these points and
rebuild their legacy result objects (e.g.
:class:`~repro.bench.microbench.KernelMeasurement`) with
:func:`measurement_from_point`.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Callable

from ..config_io import config_from_dict
from ..energy.accounting import EnergyLedger

POINT_FUNCTIONS: dict[str, Callable[..., dict[str, Any]]] = {}

#: Fixed workload seeds (exported in the results-JSON provenance header):
#: every stochastic input in the evaluation grid is derived from one of
#: these, which is what makes simulation points deterministic and
#: therefore cacheable by content hash.
WORKLOAD_SEEDS = {
    "microbench-operands": 42,
    "wordcount-corpus": 101,
    "stringmatch-workload": 102,
    "bmm-matrices": 103,
    "bitmap-dataset": 104,
    "bitmap-query-mix": 105,
    "qdnn-network": 106,
    "streambw-arrays": 107,
    "crypto-workload": 108,
    "wordline-sweep": 2024,
}


def point_function(name: str):
    """Register a point function under ``name`` in :data:`POINT_FUNCTIONS`."""

    def register(fn):
        POINT_FUNCTIONS[name] = fn
        return fn

    return register


# -- kernel micro-benchmark points -----------------------------------------------------


@point_function("kernel")
def kernel_point(kernel: str, config: str, size: int = 4096,
                 level: str = "L3",
                 machine: dict[str, Any] | None = None,
                 backend: str | None = None,
                 seed: int = 42) -> dict[str, Any]:
    """One (kernel, configuration) micro-benchmark measurement.

    ``machine`` is an optional machine-config document
    (:func:`repro.config_io.config_to_dict` form) for sweep points that
    vary the hardware; ``None`` means the paper's Table IV machine.
    ``backend`` overrides the execution backend and ``seed`` the
    operand-staging data; both enter the cache key only when a spec
    carries them explicitly (see ``kernel_point_spec``).
    """
    from .microbench import run_kernel

    machine_config = config_from_dict(machine) if machine is not None else None
    meas = run_kernel(kernel, config, size=size, level=level,
                      machine_config=machine_config, backend=backend,
                      seed=seed)
    return {
        "kernel": meas.kernel,
        "config": meas.config,
        "cycles": meas.cycles,
        "steady_cycles": meas.steady_cycles,
        "instructions": meas.instructions,
        "bytes_processed": meas.bytes_processed,
        "dynamic_pj": dict(meas.dynamic.pj),
        "total_energy_nj": meas.total_energy_nj,
    }


def measurement_from_point(doc: dict[str, Any]):
    """Rebuild a :class:`~repro.bench.microbench.KernelMeasurement` from a
    ``kernel`` point result (exact: the ledger is a plain pJ dict and
    floats survive the JSON round trip bit-identically)."""
    from .microbench import KernelMeasurement

    return KernelMeasurement(
        kernel=doc["kernel"],
        config=doc["config"],
        cycles=doc["cycles"],
        steady_cycles=doc["steady_cycles"],
        instructions=doc["instructions"],
        dynamic=EnergyLedger(dict(doc["dynamic_pj"])),
        total_energy_nj=doc["total_energy_nj"],
        bytes_processed=doc["bytes_processed"],
    )


# -- application points (Figure 9) -----------------------------------------------------


@point_function("app")
def app_point(app: str, scale: float = 1.0,
              backend: str | None = None,
              seed: int | None = None) -> dict[str, Any]:
    """One Figure 9 application, baseline vs CC, reduced to plain data.

    The size mapping per ``scale`` mirrors what
    :func:`repro.bench.appbench.figure9` has always used.  ``backend``
    overrides the execution backend; ``seed`` replaces the app's fixed
    workload seed (:data:`WORKLOAD_SEEDS`).
    """
    from . import appbench

    if app == "wordcount":
        comp = appbench.bench_wordcount(n_words=int(6000 * scale),
                                        backend=backend, seed=seed)
    elif app == "stringmatch":
        comp = appbench.bench_stringmatch(n_words=max(256, int(4096 * scale)),
                                          backend=backend, seed=seed)
    elif app == "bmm":
        comp = appbench.bench_bmm(n=256 if scale >= 1.0 else 128,
                                  backend=backend, seed=seed)
    elif app == "db-bitmap":
        comp = appbench.bench_bitmap(n_rows=max(1 << 14, int((1 << 17) * scale)),
                                     backend=backend, seed=seed)
    elif app == "qdnn":
        comp = appbench.bench_qdnn(h=32 if scale >= 1.0 else 16,
                                   w=32 if scale >= 1.0 else 16,
                                   backend=backend, seed=seed)
    else:
        raise ValueError(f"unknown application {app!r}")
    return {
        "app": comp.app,
        "speedup": comp.speedup,
        "instruction_reduction": comp.instruction_reduction,
        "total_energy_ratio": comp.total_energy_ratio,
        "outputs_match": comp.outputs_match,
        "baseline_cycles": comp.baseline.cycles,
        "cc_cycles": comp.cc.cycles,
        "baseline_instructions": comp.baseline.instructions,
        "cc_instructions": comp.cc.instructions,
        "baseline_total_nj": comp.baseline_total_nj,
        "cc_total_nj": comp.cc_total_nj,
    }


# -- STREAM bandwidth points (repro bench streambw) ------------------------------------


@point_function("streambw")
def streambw_point(kernel: str, variant: str = "scalar",
                   clusters: int = 1, cores_per_cluster: int = 2,
                   words: int = 1024, placement: str = "hub",
                   inter_hop_latency: int = 24,
                   machine: dict[str, Any] | None = None,
                   backend: str | None = None,
                   seed: int = 107) -> dict[str, Any]:
    """One verified STREAM bandwidth measurement on a multi-cluster
    machine (:func:`repro.apps.streambw.run_streambw`).

    ``machine`` optionally replaces the ``multi_cluster`` test machine
    with an explicit config document; the ``clusters``/``cores_per_
    cluster``/``inter_hop_latency`` knobs are ignored when it is given.
    """
    from ..apps.streambw import run_streambw
    from ..machine import ComputeCacheMachine
    from ..params import multi_cluster

    if machine is not None:
        config = config_from_dict(machine)
    else:
        config = multi_cluster(clusters, cores_per_cluster,
                               inter_hop_latency=inter_hop_latency)
    m = ComputeCacheMachine(config, backend=backend)
    res = run_streambw(kernel, m, variant=variant, words=words,
                       placement=placement, seed=seed)
    doc = dict(res.stats)
    doc["instructions"] = res.instructions
    doc["dynamic_pj"] = dict(res.energy.pj)
    return doc


# -- crypto points (repro bench crypto) ------------------------------------------------


@point_function("crypto")
def crypto_point(kernel: str, variant: str = "cc",
                 ghash_blocks: int = 64, crc_bytes: int = 1024,
                 ntt_n: int = 128, ntt_q: int = 8192,
                 machine: dict[str, Any] | None = None,
                 backend: str | None = None,
                 seed: int = 108) -> dict[str, Any]:
    """One verified crypto-kernel measurement
    (:func:`repro.apps.crypto.run_crypto`): ``ghash``/``crc32``/``crc64``/
    ``ntt`` in the ``cc`` or ``scalar`` variant, reduced to plain data
    plus the canonical output digest (the cross-backend identity probe).

    ``machine`` optionally replaces the paper's Table IV machine with an
    explicit config document.
    """
    from ..apps.crypto import CryptoConfig, output_digest, run_crypto
    from ..machine import ComputeCacheMachine
    from ..params import sandybridge_8core

    config = (config_from_dict(machine) if machine is not None
              else sandybridge_8core())
    m = ComputeCacheMachine(config, backend=backend)
    cfg = CryptoConfig(seed=seed, ghash_blocks=ghash_blocks,
                       crc_bytes=crc_bytes, ntt_n=ntt_n, ntt_q=ntt_q)
    res = run_crypto(kernel, variant, machine=m, cfg=cfg)
    return {
        "kernel": kernel,
        "variant": variant,
        "cycles": res.cycles,
        "instructions": res.instructions,
        "cc_instructions": int(res.stats.get("cc_instructions", 0)),
        "dynamic_pj": dict(res.energy.pj),
        "total_nj": m.total_energy(res.energy, res.cycles).total,
        "matches_reference": bool(res.stats["matches_reference"]),
        "output_digest": output_digest(res),
    }


# -- checkpointing points (Figures 10 and 11) ------------------------------------------


@point_function("checkpoint")
def checkpoint_point(benchmark: str, intervals: int = 2,
                     backend: str | None = None) -> dict[str, Any]:
    """All engines for one SPLASH-2 profile: overheads (Figure 10) and
    total energies (Figure 11) from a single set of runs — the two
    figures share this point, so regenerating both simulates each
    benchmark once."""
    from .checkpointbench import ENGINES, run_benchmark

    comp = run_benchmark(benchmark, intervals, backend=backend)
    return {
        "benchmark": benchmark,
        "intervals": intervals,
        "overheads": {engine: comp.overhead(engine) for engine in ENGINES},
        "energy": {
            "no_chkpt": comp.total_energy_nj("none"),
            **{engine: comp.total_energy_nj(engine) for engine in ENGINES},
        },
    }


# -- runner self-test point ------------------------------------------------------------


@point_function("selftest")
def selftest_point(value: int = 0, sleep_in_worker_s: float = 0.0,
                   fail: bool = False) -> dict[str, Any]:
    """Deterministic toy point for exercising the runner itself.

    ``sleep_in_worker_s`` only sleeps inside a pool *worker* process
    (detected via ``multiprocessing.parent_process``), so the runner's
    timeout → retry → serial-fallback path can be tested: the parallel
    attempts time out, then the in-process serial fallback returns
    instantly.
    """
    if fail:
        raise ValueError(f"selftest point asked to fail (value={value})")
    if sleep_in_worker_s and multiprocessing.parent_process() is not None:
        time.sleep(sleep_in_worker_s)
    return {"value": value, "doubled": 2 * value}
