"""Sustained simulator-throughput benchmark — ``repro bench speed``.

Measures how fast the *simulator itself* executes CC instructions
(wall-clock instructions/sec, and the simulated bytes/sec those
instructions cover), on a fig7-scale workload: disjoint 4 KB operands
warmed to L3, re-issued for several passes the way a streaming kernel
re-issues the same instruction shapes.  Each backend is measured twice —
once through the plain one-at-a-time controller path and once through
the :class:`~repro.core.stream.CCInstructionStream` scheduler — and the
results are cross-checked bit-for-bit (per-instruction results and the
final energy ledger must match exactly; the run aborts otherwise).

The output document, ``BENCH_speed.json``, is one of the repo's
``BENCH_*`` performance documents.  ``repro bench speed`` enforces two
optional contracts, a minimum stream-over-sequential speedup
(``--min-speedup``) and a maximum regression of stream instructions/sec
against a committed baseline document (``--baseline`` /
``--tolerance``), and the CI ``speed-smoke`` job fails on either.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any

from ..core import isa
from ..errors import ReproError
from ..machine import ComputeCacheMachine
from ..params import BACKENDS
from .report import bench_document

SPEED_SCHEMA = "repro.bench-speed/1"

KERNEL_BUILDERS = {
    "and": lambda a, b, c, size: isa.cc_and(a, b, c, size),
    "or": lambda a, b, c, size: isa.cc_or(a, b, c, size),
    "xor": lambda a, b, c, size: isa.cc_xor(a, b, c, size),
    "not": lambda a, b, c, size: isa.cc_not(a, c, size),
    "copy": lambda a, b, c, size: isa.cc_copy(a, c, size),
    "buz": lambda a, b, c, size: isa.cc_buz(c, size),
    "cmp": lambda a, b, c, size: isa.cc_cmp(a, b, min(size, 512)),
}


@dataclass
class SpeedConfig:
    """One ``repro bench speed`` run (CLI flags map onto these fields;
    ``--backend`` narrows ``backends`` to one)."""

    kernel: str = "xor"
    size: int = 4096                # bytes per operand (fig7 scale)
    instructions: int = 32          # distinct instructions (disjoint operands)
    passes: int = 4                 # sustained re-issues of the stream
    window: int = 8                 # stream fusion window
    backends: tuple[str, ...] = ("packed", "bitexact")
    seed: int = 42
    min_speedup: float | None = None       # contract: stream vs sequential
    baseline: dict[str, Any] | None = None  # committed BENCH_speed.json doc
    tolerance: float = 0.2                 # allowed fractional ips regression


def _build(cfg: SpeedConfig, backend: str):
    """A machine plus the instruction stream, operands warmed to L3."""
    if cfg.kernel not in KERNEL_BUILDERS:
        raise ReproError(
            f"unknown speed kernel {cfg.kernel!r}; "
            f"expected one of {sorted(KERNEL_BUILDERS)}")
    machine = ComputeCacheMachine(backend=backend)
    build = KERNEL_BUILDERS[cfg.kernel]
    rng = random.Random(cfg.seed)
    instrs = []
    for _ in range(cfg.instructions):
        a, b, c = machine.arena.alloc_colocated(cfg.size, 3)
        machine.load(a, bytes(rng.randrange(256) for _ in range(cfg.size)))
        machine.load(b, bytes(rng.randrange(256) for _ in range(cfg.size)))
        instrs.append(build(a, b, c, cfg.size))
        for addr in (a, b, c):
            machine.warm_l3(addr, cfg.size)
    return machine, instrs


def _measure_sequential(machine, instrs, passes: int) -> tuple[float, list]:
    controller = machine.controllers[0]
    for instr in instrs:          # settle: dest states, memos
        controller.execute(instr)
    last = []
    t0 = time.perf_counter()
    for _ in range(passes):
        last = [controller.execute(instr) for instr in instrs]
    return time.perf_counter() - t0, last


def _measure_stream(machine, instrs, passes: int, window: int):
    machine.cc_stream(instrs, window=window)   # settle
    stream_result = None
    t0 = time.perf_counter()
    for _ in range(passes):
        stream_result = machine.cc_stream(instrs, window=window)
    return time.perf_counter() - t0, stream_result


def _throughput(cfg: SpeedConfig, wall_s: float) -> dict[str, float]:
    executed = cfg.passes * cfg.instructions
    ips = executed / wall_s if wall_s else 0.0
    return {
        "wall_s": wall_s,
        "instructions": executed,
        "instructions_per_s": ips,
        "simulated_bytes_per_s": ips * cfg.size,
    }


def run_speed(cfg: SpeedConfig) -> dict[str, Any]:
    """Run the benchmark; returns the ``BENCH_speed.json`` document."""
    backends_doc: dict[str, Any] = {}
    for backend in cfg.backends:
        if backend not in BACKENDS:
            raise ReproError(f"unknown backend {backend!r}")
        m_seq, instrs_seq = _build(cfg, backend)
        wall_seq, last_seq = _measure_sequential(m_seq, instrs_seq, cfg.passes)
        m_str, instrs_str = _build(cfg, backend)
        wall_str, stream_result = _measure_stream(
            m_str, instrs_str, cfg.passes, cfg.window)

        # Differential cross-check: the stream path must be bit-identical.
        seq_sig = [(r.result, r.cycles, r.level, r.occupancy_cycles)
                   for r in last_seq]
        str_sig = [(r.result, r.cycles, r.level, r.occupancy_cycles)
                   for r in stream_result.results]
        bit_identical = (seq_sig == str_sig
                         and dict(m_seq.ledger.pj) == dict(m_str.ledger.pj))
        if not bit_identical:
            raise ReproError(
                f"{backend}: stream execution diverged from sequential "
                "(results or energy ledger differ)")

        seq = _throughput(cfg, wall_seq)
        stream = _throughput(cfg, wall_str)
        backends_doc[backend] = {
            "sequential": seq,
            "stream": stream,
            "speedup": (stream["instructions_per_s"]
                        / seq["instructions_per_s"]
                        if seq["instructions_per_s"] else 0.0),
            "bit_identical": bit_identical,
            "fused_fraction": stream_result.fused_fraction,
            "kernel_calls": stream_result.kernel_calls,
            "serial_cycles": stream_result.serial_cycles,
            "overlapped_cycles": stream_result.overlapped_cycles,
            "overlap_speedup": stream_result.overlap_speedup,
        }

    contract = _check_contract(cfg, backends_doc)
    return bench_document(
        SPEED_SCHEMA,
        {
            "kernel": cfg.kernel,
            "size": cfg.size,
            "instructions": cfg.instructions,
            "passes": cfg.passes,
            "window": cfg.window,
            "backends": list(cfg.backends),
            "seed": cfg.seed,
        },
        backends=backends_doc,
        contract=contract,
    )


def _check_contract(cfg: SpeedConfig,
                    backends_doc: dict[str, Any]) -> dict[str, Any]:
    """The two gates CI enforces: minimum fusion speedup, and no large
    instructions/sec regression against a committed baseline."""
    failures: list[str] = []
    if cfg.min_speedup is not None:
        for backend, doc in backends_doc.items():
            if doc["speedup"] < cfg.min_speedup:
                failures.append(
                    f"{backend}: stream speedup {doc['speedup']:.2f}x "
                    f"below the {cfg.min_speedup:.2f}x contract")
    baseline_ips: dict[str, float] = {}
    if cfg.baseline is not None:
        for backend, doc in backends_doc.items():
            base = (cfg.baseline.get("backends", {})
                    .get(backend, {}).get("stream", {})
                    .get("instructions_per_s"))
            if base is None:
                continue
            baseline_ips[backend] = base
            floor = base * (1.0 - cfg.tolerance)
            measured = doc["stream"]["instructions_per_s"]
            if measured < floor:
                failures.append(
                    f"{backend}: stream {measured:.0f} instructions/s is "
                    f">{cfg.tolerance:.0%} below the committed baseline "
                    f"{base:.0f}/s")
    return {
        "min_speedup": cfg.min_speedup,
        "baseline_instructions_per_s": baseline_ips or None,
        "tolerance": cfg.tolerance if cfg.baseline is not None else None,
        "failures": failures,
        "passed": not failures,
    }


def summarize(doc: dict[str, Any]) -> str:
    """The grep-friendly ``speed:`` summary line."""
    parts = [f"speed: kernel={doc['config']['kernel']}"
             f" size={doc['config']['size']}"]
    for backend, b in doc["backends"].items():
        parts.append(
            f"{backend}: seq={b['sequential']['instructions_per_s']:.0f}/s"
            f" stream={b['stream']['instructions_per_s']:.0f}/s"
            f" speedup={b['speedup']:.2f}x"
            f" fused={100.0 * b['fused_fraction']:.0f}%")
    parts.append("contract=" + ("pass" if doc["contract"]["passed"] else "FAIL"))
    return " | ".join(parts)
