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
from functools import cache

from ..cache.hierarchy import CacheHierarchy
from ..core.consistency import OpKind, RMOOrderModel
from ..core.controller import CCResult, ComputeCacheController
from ..core.stream import CCOccupancyTimeline
from ..energy.accounting import Component
from ..errors import ReproError
from ..params import MachineConfig
from .program import Instr, InstrKind, Program

MEMORY_LEVEL_PARALLELISM = 4.0
"""Concurrent misses the load queue sustains on streaming kernels."""


@cache
def _epi_by_kind(epi_scalar: float, epi_simd: float,
                 epi_cc: float) -> dict[InstrKind, float]:
    """Energy per instruction of each :class:`InstrKind` (a core's
    ``epi_*`` constants).  One table per distinct set of constants, shared
    by every core that uses it; read it, never write it."""
    return {kind: (epi_cc if kind is InstrKind.CC
                   else epi_simd if kind.is_simd else epi_scalar)
            for kind in InstrKind}


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

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def seconds(self, frequency_ghz: float) -> float:
        return self.cycles / (frequency_ghz * 1e9)


class CoreModel:
    """One processor core bound to the shared hierarchy."""

    def __init__(self, hierarchy: CacheHierarchy, core_id: int,
                 config: MachineConfig | None = None,
                 controller: ComputeCacheController | None = None,
                 mlp: float = MEMORY_LEVEL_PARALLELISM) -> None:
        self.hierarchy = hierarchy
        self.core_id = core_id
        self.config = config or hierarchy.config
        self.controller = controller or ComputeCacheController(
            hierarchy, core_id, self.config
        )
        self.mlp = mlp
        self.order_model = RMOOrderModel()
        self.keep_load_data = False
        self.tracer = hierarchy.tracer
        core = self.config.core
        self._epi = _epi_by_kind(core.epi_scalar, core.epi_simd, core.epi_cc)

    # -- energy helpers ---------------------------------------------------------

    def _charge_core(self, instr: Instr) -> None:
        self.hierarchy.ledger.add(Component.CORE, self._epi[instr.kind])

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
        """Execute a program; returns cycles/instruction accounting."""
        res = RunResult(name=program.name)
        l1_hit = self.config.l1d.hit_latency
        pending_stall = 0.0
        cc_timeline = CCOccupancyTimeline()
        tracer = self.tracer
        for instr in program:
            res.instructions += 1
            self._charge_core(instr)
            res.cycles += 1  # issue slot
            if tracer is not None:
                # ``core.phase`` spans tile [0, res.cycles]: the profiler
                # asserts they sum to the run's total machine cycles.
                tracer.emit("core.phase", core=self.core_id, phase="issue",
                            cycle=res.cycles - 1.0, span=1.0,
                            outcome=instr.kind.name.lower())

            if instr.kind in (InstrKind.SCALAR_OP, InstrKind.BRANCH, InstrKind.SIMD_OP):
                if instr.kind is InstrKind.SIMD_OP:
                    res.simd_ops += 1
                else:
                    res.scalar_ops += 1
                continue

            if instr.kind in (InstrKind.LOAD, InstrKind.SIMD_LOAD):
                res.loads += 1
                op_id = self.order_model.issue(OpKind.LOAD)
                data, latency = self.hierarchy.read(self.core_id, instr.addr, instr.size)
                self.order_model.complete(op_id)
                if self.keep_load_data:
                    res.load_data.append(data)
                if latency > l1_hit and not instr.streaming:
                    if instr.dependent:
                        # A serial chain: the full latency is exposed now.
                        if tracer is not None:
                            tracer.emit("core.phase", core=self.core_id,
                                        phase="load-stall", cycle=float(res.cycles),
                                        span=float(latency - l1_hit), addr=instr.addr)
                        res.cycles += latency - l1_hit
                        res.stall_cycles += latency - l1_hit
                    else:
                        pending_stall += (latency - l1_hit) / self.mlp
                continue

            if instr.kind in (InstrKind.STORE, InstrKind.SIMD_STORE):
                if instr.data is not None:
                    payload = instr.data
                elif instr.src_addr is not None:
                    # Register contents: the value(s) previously loaded
                    # (peeked coherently, no extra traffic).
                    payload = self.hierarchy.coherent_peek(instr.src_addr, instr.size)
                    if instr.alu is not None and instr.src2_addr is not None:
                        other = self.hierarchy.coherent_peek(instr.src2_addr, instr.size)
                        payload = self._alu(instr.alu, payload, other)
                else:
                    raise ReproError("store instruction without data or source")
                res.stores += 1
                op_id = self.order_model.issue(OpKind.STORE)
                latency = self.hierarchy.write(self.core_id, instr.addr, payload)
                self.order_model.complete(op_id)
                # Stores retire through the store buffer, but write-allocate
                # misses still occupy MSHRs: bulk stores are throughput-bound
                # by the same memory-level parallelism as loads.
                if latency > l1_hit:
                    pending_stall += (latency - l1_hit) / self.mlp
                continue

            if instr.kind is InstrKind.CC:
                if instr.cc is None:
                    raise ReproError("CC instruction without a payload")
                res.cc_instructions += 1
                kind = OpKind.CC_R if instr.cc.opcode.reads_only else OpKind.CC_RW
                op_id = self.order_model.issue(kind)
                cc_res = self.controller.execute(instr.cc)
                self.order_model.complete(op_id)
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
                    tracer.emit("cc.timeline", core=self.core_id, phase="occupancy",
                                opcode=opname, cycle=float(start),
                                span=float(max(cc_res.occupancy_cycles, 1.0)))
                    tracer.emit("cc.timeline", core=self.core_id, phase="total",
                                opcode=opname, cycle=float(start),
                                span=float(cc_res.cycles))
                continue

            if instr.kind is InstrKind.FENCE:
                res.fences += 1
                # Fence commit waits for every pending operation,
                # including in-flight CC instructions (Section IV-G).
                self.order_model.drain_for_fence()
                if tracer is not None and pending_stall:
                    tracer.emit("core.phase", core=self.core_id, phase="mlp-stall",
                                cycle=float(res.cycles), span=float(pending_stall))
                res.cycles += pending_stall
                res.stall_cycles += pending_stall
                pending_stall = 0.0
                drain_to = cc_timeline.drain_target
                if drain_to > res.cycles:
                    if tracer is not None:
                        tracer.emit("core.phase", core=self.core_id, phase="cc-drain",
                                    cycle=float(res.cycles),
                                    span=float(drain_to - res.cycles))
                    res.stall_cycles += drain_to - res.cycles
                    res.cycles = drain_to
                continue

            raise ReproError(f"core cannot execute {instr.kind}")

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
