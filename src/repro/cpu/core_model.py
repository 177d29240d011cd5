"""Analytic-event core timing and energy model.

The model captures the terms the paper's evaluation depends on:

* one instruction issued per cycle (a well-fed out-of-order core sustains
  ~1 IPC on these streaming kernels);
* load misses stall for their *non-overlapped* latency: miss latency beyond
  the L1 hit time is divided by a memory-level-parallelism factor (the
  48-entry load queue of Table IV sustains several misses in flight);
* stores retire through the store buffer and do not stall the core (their
  cache/energy traffic still happens for real);
* CC instructions dispatch to the core's CC controller and - per the RMO
  consistency model (Section IV-G) - overlap with subsequent independent
  instructions: the controller is modeled as busy until the operation
  completes, later CC instructions queue behind it, and any remaining
  busy time is exposed at a fence or at the end of the program (which is
  when results are architecturally consumed);
* every instruction charges its class's energy-per-instruction to the
  ``core`` component (Figure 3's instruction-processing energy).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cache.hierarchy import CacheHierarchy
from ..core.controller import CCResult, ComputeCacheController
from ..core.stream import CCOccupancyTimeline
from ..energy.accounting import Component
from ..errors import ReproError
from ..params import MachineConfig
from .program import InstrKind, Program

MEMORY_LEVEL_PARALLELISM = 4.0
"""Concurrent misses the load queue sustains on streaming kernels."""

CORE = Component.CORE
SCALAR_OP, BRANCH, SIMD_OP = InstrKind.SCALAR_OP, InstrKind.BRANCH, InstrKind.SIMD_OP
LOAD, SIMD_LOAD = InstrKind.LOAD, InstrKind.SIMD_LOAD
STORE, SIMD_STORE = InstrKind.STORE, InstrKind.SIMD_STORE
CC, FENCE = InstrKind.CC, InstrKind.FENCE


@dataclass
class RunResult:
    """Timing/result summary of one program execution."""

    name: str
    cycles: float = 0.0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    simd_ops: int = 0
    scalar_ops: int = 0
    cc_instructions: int = 0
    stall_cycles: float = 0.0
    cc_cycles: float = 0.0
    fences: int = 0
    load_data: list[bytes] = field(default_factory=list)
    cc_results: list[CCResult] = field(default_factory=list)


class CoreModel:
    """One processor core bound to the shared hierarchy."""

    def __init__(self, hierarchy: CacheHierarchy, core_id: int,
                 config: MachineConfig | None = None,
                 controller: ComputeCacheController | None = None) -> None:
        self.hierarchy = hierarchy
        self.core_id = core_id
        self.config = config or hierarchy.config
        self.controller = controller or ComputeCacheController(
            hierarchy, core_id, self.config
        )
        self.keep_load_data = False
        self.tracer = hierarchy.tracer

    @staticmethod
    def _alu(op: str, a: bytes, b: bytes) -> bytes:
        from ..bitops import bytes_and, bytes_or, bytes_xor

        table = {"and": bytes_and, "or": bytes_or, "xor": bytes_xor}
        try:
            return table[op](a, b)
        except KeyError:
            raise ReproError(f"unknown ALU op {op!r}") from None

    # -- execution -----------------------------------------------------------------

    def run(self, program: Program) -> RunResult:
        """Execute a program; returns cycles/instruction accounting.

        Each instruction first charges its class's energy to ``core``
        (SIMD loads, stores and ops ``epi_simd``, CC ``epi_cc``, the rest
        ``epi_scalar``), before any cache traffic it causes."""
        res = RunResult(name=program.name)
        core_id = self.core_id
        hierarchy = self.hierarchy
        charge = hierarchy.ledger.add
        epi = self.config.core
        epi_scalar, epi_simd, epi_cc = epi.epi_scalar, epi.epi_simd, epi.epi_cc
        l1_hit = self.config.l1d.hit_latency
        pending_stall = 0.0
        cc_timeline = CCOccupancyTimeline()
        tracer = self.tracer
        for instr in program:
            kind = instr.kind
            res.instructions += 1
            res.cycles += 1  # issue slot
            if tracer is not None:
                # ``core.phase`` spans tile [0, res.cycles]: the profiler
                # asserts they sum to the run's total machine cycles.
                tracer.emit("core.phase", core=core_id, phase="issue",
                            cycle=res.cycles - 1.0, span=1.0,
                            outcome=kind.name.lower())

            if kind is SCALAR_OP or kind is BRANCH:
                charge(CORE, epi_scalar)
                res.scalar_ops += 1

            elif kind is SIMD_OP:
                charge(CORE, epi_simd)
                res.simd_ops += 1

            elif kind is LOAD or kind is SIMD_LOAD:
                charge(CORE, epi_scalar if kind is LOAD else epi_simd)
                res.loads += 1
                data, latency = hierarchy.read(core_id, instr.addr, instr.size)
                if self.keep_load_data:
                    res.load_data.append(data)
                if latency > l1_hit and not instr.streaming:
                    if instr.dependent:
                        # A serial chain: the full latency is exposed now.
                        if tracer is not None:
                            tracer.emit("core.phase", core=core_id,
                                        phase="load-stall", cycle=float(res.cycles),
                                        span=float(latency - l1_hit), addr=instr.addr)
                        res.cycles += latency - l1_hit
                        res.stall_cycles += latency - l1_hit
                    else:
                        pending_stall += (latency - l1_hit) / MEMORY_LEVEL_PARALLELISM

            elif kind is STORE or kind is SIMD_STORE:
                charge(CORE, epi_scalar if kind is STORE else epi_simd)
                if instr.data is not None:
                    payload = instr.data
                elif instr.src_addr is not None:
                    # Register contents: the value(s) previously loaded
                    # (peeked coherently, no extra traffic).
                    payload = hierarchy.coherent_peek(instr.src_addr, instr.size)
                    if instr.alu is not None and instr.src2_addr is not None:
                        other = hierarchy.coherent_peek(instr.src2_addr, instr.size)
                        payload = self._alu(instr.alu, payload, other)
                else:
                    raise ReproError("store instruction without data or source")
                res.stores += 1
                latency = hierarchy.write(core_id, instr.addr, payload)
                # Stores retire through the store buffer, but write-allocate
                # misses still occupy MSHRs: bulk stores are throughput-bound
                # by the same memory-level parallelism as loads.
                if latency > l1_hit:
                    pending_stall += (latency - l1_hit) / MEMORY_LEVEL_PARALLELISM

            elif kind is CC:
                charge(CORE, epi_cc)
                if instr.cc is None:
                    raise ReproError("CC instruction without a payload")
                res.cc_instructions += 1
                cc_res = self.controller.execute(instr.cc)
                res.cc_results.append(cc_res)
                res.cc_cycles += cc_res.cycles
                # RMO overlap: the core keeps issuing; this operation holds
                # the (single) CC controller for its occupancy (decode +
                # command issue + near-place serial time) after any still-
                # running predecessor's occupancy, while its sub-array work
                # completes in the background.
                start = cc_timeline.issue(res.cycles, cc_res.occupancy_cycles,
                                          cc_res.cycles)
                if tracer is not None:
                    opname = instr.cc.opcode.value
                    tracer.emit("cc.timeline", core=core_id, phase="occupancy",
                                opcode=opname, cycle=float(start),
                                span=float(max(cc_res.occupancy_cycles, 1.0)))
                    tracer.emit("cc.timeline", core=core_id, phase="total",
                                opcode=opname, cycle=float(start),
                                span=float(cc_res.cycles))

            elif kind is FENCE:
                charge(CORE, epi_scalar)
                res.fences += 1
                # Fence commit waits for every pending operation, including
                # in-flight CC instructions (Section IV-G).  Loads and stores
                # complete at issue here, so what remains is the overlapped
                # miss latency and the CC controller's timeline.
                if tracer is not None and pending_stall:
                    tracer.emit("core.phase", core=core_id, phase="mlp-stall",
                                cycle=float(res.cycles), span=float(pending_stall))
                res.cycles += pending_stall
                res.stall_cycles += pending_stall
                pending_stall = 0.0
                drain_to = cc_timeline.drain_target
                if drain_to > res.cycles:
                    if tracer is not None:
                        tracer.emit("core.phase", core=core_id, phase="cc-drain",
                                    cycle=float(res.cycles),
                                    span=float(drain_to - res.cycles))
                    res.stall_cycles += drain_to - res.cycles
                    res.cycles = drain_to

            else:
                raise ReproError(f"core cannot execute {kind}")

        if tracer is not None and pending_stall:
            tracer.emit("core.phase", core=self.core_id, phase="mlp-stall",
                        cycle=float(res.cycles), span=float(pending_stall))
        res.cycles += pending_stall
        res.stall_cycles += pending_stall
        # Results are consumed at the end of the stream: expose whatever CC
        # latency the core could not hide.
        drain_to = cc_timeline.drain_target
        if drain_to > res.cycles:
            if tracer is not None:
                tracer.emit("core.phase", core=self.core_id, phase="cc-drain",
                            cycle=float(res.cycles),
                            span=float(drain_to - res.cycles))
            res.stall_cycles += drain_to - res.cycles
            res.cycles = drain_to
        return res
