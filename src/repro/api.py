"""The stable public API of the Compute Caches reproduction.

This module is the supported import surface::

    from repro.api import ComputeCacheMachine, cc_ops, FaultPlan

Everything in ``__all__`` follows the compatibility policy spelled out in
``docs/api.md`` ("stability tiers"): symbols here keep working across
minor releases, while the deep module paths they come from
(``repro.params``, ``repro.events``, ``repro.bench.runner``, …) are
internal and may change in any release.

The classic top-level spelling ``from repro import ComputeCacheMachine``
remains supported as well.
"""

from __future__ import annotations

# -- machine, configuration, ISA -----------------------------------------------------
from .alloc import Arena, SuperpageArena
from .apps import (
    bitmap_db,
    bmm,
    crypto,
    qdnn,
    streambw,
    stringmatch,
    textgen,
    wordcount,
)
from .apps.checkpoint import run_checkpoint
from .apps.common import AppResult, fresh_machine
from .apps.crypto import (
    CryptoConfig,
    crc_fold,
    crypto_plan,
    ghash,
    ntt_polymul,
    run_crypto,
    run_crypto_campaign,
)
from .apps.splash import PROFILES, SplashProfile
from .apps.streambw import run_streambw
from .asm import assemble, format_instruction, parse
from .bench.crypto import CryptoSweepConfig, run_crypto_sweep
from .bench.report import bench_document, bench_provenance, write_bench
from .bench.runner import Point, PointRunner
from .bench.streambw import StreamBWConfig, run_streambw_sweep
from .bench.suites import BenchSuite, bench_suites
from .compiler import ArrayRef, VectorCompiler, VectorPlan, compile_and_run
from .config_io import (
    config_digest,
    config_from_dict,
    config_from_json,
    config_to_dict,
    config_to_json,
    fault_plan_from_json,
    fault_plan_to_json,
    load_config,
    load_fault_plan,
    save_config,
    save_fault_plan,
)
from .core import isa as cc_ops
from .docscheck import generate_isa_table, run_docscheck
from .bench.speed import SpeedConfig, run_speed
from .core.controller import CCResult, ComputeCacheController
from .core.isa import ARITH_ELEM_BITS, CCInstruction, Opcode
from .core.scrub import ScrubService
from .core.transpose import TransposeUnit
from .core.stream import CCInstructionStream, CCOccupancyTimeline, StreamResult
from .cpu.multicore import MulticoreResult, MulticoreRunner
from .cpu.program import Instr, InstrKind, Program
from .errors import (
    ActivationLimitError,
    AddressError,
    CoherenceError,
    ConfigError,
    DataCorruptionError,
    ECCError,
    FaultPlanError,
    ISAError,
    OperandLocalityError,
    PageSpanError,
    PinnedLineError,
    ReproError,
    RunnerError,
)
from .events import (
    Event,
    EventTracer,
    TraceProfile,
    build_profile,
    chrome_trace,
    format_profile,
    profile_machine,
    profile_trace,
    write_chrome_trace,
)
from .faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ResilienceReport,
    RunnerChaos,
    default_plan,
    run_campaign,
)
from .machine import ComputeCacheMachine
from .params import (
    BACKENDS,
    BLOCK_SIZE,
    PAGE_SIZE,
    WORD_SIZE,
    CacheLevelConfig,
    ComputeCacheConfig,
    CoreConfig,
    MachineConfig,
    MemoryConfig,
    RingConfig,
    TopologyConfig,
    multi_cluster,
    sandybridge_8core,
    small_test_machine,
)
from .sram import BitCellArray, CellType
from .stats import MachineSnapshot, collect_stats, format_stats
from .trace import run_trace, run_trace_file

__all__ = [
    # machine & configuration
    "ComputeCacheMachine",
    "MachineConfig",
    "CacheLevelConfig",
    "ComputeCacheConfig",
    "CoreConfig",
    "MemoryConfig",
    "RingConfig",
    "TopologyConfig",
    "multi_cluster",
    "sandybridge_8core",
    "small_test_machine",
    "BACKENDS",
    "BLOCK_SIZE",
    "PAGE_SIZE",
    "WORD_SIZE",
    "Arena",
    "SuperpageArena",
    "BitCellArray",
    "CellType",
    # ISA & execution
    "cc_ops",
    "ARITH_ELEM_BITS",
    "TransposeUnit",
    "CCInstruction",
    "CCResult",
    "ComputeCacheController",
    "Opcode",
    "Program",
    "Instr",
    "InstrKind",
    "CCInstructionStream",
    "CCOccupancyTimeline",
    "StreamResult",
    "MulticoreRunner",
    "MulticoreResult",
    # configuration I/O
    "config_to_dict",
    "config_from_dict",
    "config_to_json",
    "config_from_json",
    "config_digest",
    "save_config",
    "load_config",
    # events & profiling
    "Event",
    "EventTracer",
    "TraceProfile",
    "build_profile",
    "format_profile",
    "profile_machine",
    "profile_trace",
    "chrome_trace",
    "write_chrome_trace",
    # sweep runner & suite registry
    "PointRunner",
    "Point",
    "BenchSuite",
    "bench_suites",
    "bench_document",
    "bench_provenance",
    "write_bench",
    "SpeedConfig",
    "run_speed",
    "StreamBWConfig",
    "run_streambw_sweep",
    # faults & resilience
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "RunnerChaos",
    "ResilienceReport",
    "default_plan",
    "run_campaign",
    "fault_plan_to_json",
    "fault_plan_from_json",
    "save_fault_plan",
    "load_fault_plan",
    "ScrubService",
    # statistics
    "MachineSnapshot",
    "collect_stats",
    "format_stats",
    # asm / compiler / trace front-ends
    "parse",
    "assemble",
    "format_instruction",
    "VectorCompiler",
    "VectorPlan",
    "ArrayRef",
    "compile_and_run",
    "run_trace",
    "run_trace_file",
    "run_docscheck",
    "generate_isa_table",
    # applications
    "AppResult",
    "fresh_machine",
    "run_checkpoint",
    "PROFILES",
    "SplashProfile",
    "bitmap_db",
    "bmm",
    "crypto",
    "qdnn",
    "streambw",
    "stringmatch",
    "textgen",
    "wordcount",
    "run_streambw",
    # crypto suite
    "CryptoConfig",
    "CryptoSweepConfig",
    "ghash",
    "crc_fold",
    "ntt_polymul",
    "run_crypto",
    "run_crypto_campaign",
    "run_crypto_sweep",
    "crypto_plan",
    # errors
    "ReproError",
    "ConfigError",
    "AddressError",
    "OperandLocalityError",
    "ActivationLimitError",
    "DataCorruptionError",
    "PageSpanError",
    "PinnedLineError",
    "CoherenceError",
    "ECCError",
    "ISAError",
    "RunnerError",
    "FaultPlanError",
]
