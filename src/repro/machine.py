"""The top-level machine facade.

:class:`ComputeCacheMachine` wires together everything a user needs: the
Table IV configuration, the shared energy ledger, the coherent cache
hierarchy, one core model + CC controller per core, an allocation arena,
and the power model.  It is the entry point used by the examples, the
applications, and the benchmark harness::

    from repro import ComputeCacheMachine, cc_ops

    m = ComputeCacheMachine()
    a, b, c = m.arena.alloc_colocated(4096, 3)
    m.load(a, bytes(range(256)) * 16)
    m.load(b, b"\\xff" * 4096)
    result = m.cc(cc_ops.cc_and(a, b, c, 4096))
    assert m.peek(c, 4096) == m.peek(a, 4096)
"""

from __future__ import annotations

from .alloc import Arena
from .cache.hierarchy import CacheHierarchy, block_of
from .core.controller import CCResult, ComputeCacheController
from .core.isa import CCInstruction
from .core.stream import DEFAULT_WINDOW, CCInstructionStream, StreamResult
from .cpu.core_model import CoreModel, RunResult
from .cpu.program import Program
from .energy.accounting import EnergyLedger
from .energy.mcpat import PowerModel, TotalEnergy
from .errors import AddressError, ConfigError
from .params import BACKENDS, BLOCK_SIZE, PAGE_SIZE, MachineConfig, sandybridge_8core


class ComputeCacheMachine:
    """A complete simulated machine with Compute Cache support.

    ``backend`` (``"packed"`` or ``"bitexact"``) overrides the execution
    backend of ``config`` for this machine; ``None`` keeps the config's
    choice (``MachineConfig.backend``, default ``"packed"``).  Likewise
    ``trace_events`` overrides ``MachineConfig.trace_events``: when on,
    ``machine.tracer`` holds the :class:`~repro.events.EventTracer` every
    layer of the machine emits into (see :mod:`repro.events`).
    """

    def __init__(self, config: MachineConfig | None = None,
                 wordline_underdrive: bool = True,
                 backend: str | None = None,
                 trace_events: bool | None = None) -> None:
        from dataclasses import replace

        if backend is not None and backend not in BACKENDS:
            raise ConfigError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.config = config or sandybridge_8core()
        overrides = {}
        if backend is not None and backend != self.config.backend:
            overrides["backend"] = backend
        if trace_events is not None and trace_events != self.config.trace_events:
            overrides["trace_events"] = trace_events
        if overrides:
            self.config = replace(self.config, **overrides)
        self.ledger = EnergyLedger()
        self.hierarchy = CacheHierarchy(
            self.config, self.ledger, wordline_underdrive=wordline_underdrive
        )
        self.tracer = self.hierarchy.tracer
        self.controllers = [
            ComputeCacheController(self.hierarchy, core_id, self.config)
            for core_id in range(self.config.cores)
        ]
        self.cores = [
            CoreModel(self.hierarchy, core_id, self.config,
                      controller=self.controllers[core_id])
            for core_id in range(self.config.cores)
        ]
        self.arena = Arena(self.config.memory_size)
        self.power = PowerModel(self.config)
        self._streams: dict[tuple[int, int], CCInstructionStream] = {}

    # -- data staging --------------------------------------------------------------

    def load(self, addr: int, data: bytes) -> None:
        """Backdoor-initialize memory (no cache traffic).

        Only safe before the range is cached; raises if any block of the
        range is currently resident somewhere in the hierarchy.
        """
        for block in range(block_of(addr), addr + len(data), BLOCK_SIZE):
            for core in range(self.config.cores):
                if self.hierarchy.l1[core].contains(block) or \
                        self.hierarchy.l2[core].contains(block):
                    raise AddressError(
                        f"backdoor load into cached block {block:#x}; use write()"
                    )
            slice_id = self.hierarchy._page_to_slice.get(block // PAGE_SIZE)
            if slice_id is not None and self.hierarchy.l3[slice_id].contains(block):
                raise AddressError(
                    f"backdoor load into cached block {block:#x}; use write()"
                )
        for controller in self.controllers:
            controller.transpose.invalidate(addr, len(data))
        self.hierarchy.memory.load(addr, data)

    def peek(self, addr: int, size: int) -> bytes:
        """Architecturally-current bytes (coherent, charge-free)."""
        return self.hierarchy.coherent_peek(addr, size)

    def write(self, addr: int, data: bytes, core: int = 0) -> int:
        """Write through the cache hierarchy; returns latency.

        A conventional write reverts any bit-serial (transposed) blocks in
        its range to row-major layout (see :mod:`repro.core.transpose`).
        """
        for controller in self.controllers:
            controller.transpose.invalidate(addr, len(data))
        return self.hierarchy.write(core, addr, data)

    def read(self, addr: int, size: int, core: int = 0) -> bytes:
        """Read through the cache hierarchy."""
        data, _ = self.hierarchy.read(core, addr, size)
        return data

    # -- execution ------------------------------------------------------------------

    def cc(self, instr: CCInstruction, core: int = 0,
           force_level: str | None = None, force_nearplace: bool = False) -> CCResult:
        """Execute one CC instruction on a core's controller."""
        return self.controllers[core].execute(
            instr, force_level=force_level, force_nearplace=force_nearplace
        )

    def run(self, program: Program, core: int = 0) -> RunResult:
        """Execute an instruction stream on a core."""
        return self.cores[core].run(program)

    def cc_stream(self, instrs, core: int = 0, window: int = DEFAULT_WINDOW,
                  force_level: str | None = None,
                  force_nearplace: bool = False) -> StreamResult:
        """Execute a sequence of CC instructions through the stream
        scheduler (:mod:`repro.core.stream`): independent runs fuse into
        shared per-sub-array kernel calls, with per-instruction results
        bit-identical to issuing them one at a time via :meth:`cc`.

        The per-(core, window) scheduler instance is kept so its decode
        and locate memos persist across calls.
        """
        stream = self._streams.get((core, window))
        if stream is None:
            stream = CCInstructionStream(self.controllers[core], window=window)
            self._streams[(core, window)] = stream
        return stream.execute(instrs, force_level=force_level,
                              force_nearplace=force_nearplace)

    # -- topology (multi-cluster NUMA) --------------------------------------------------

    @property
    def topology(self):
        """The machine's :class:`~repro.params.TopologyConfig`."""
        return self.config.topology

    def cluster_of_core(self, core: int) -> int:
        """Cluster a core belongs to (cores partition like ring stops)."""
        stop = core % self.config.ring.stops
        return self.hierarchy.ring.cluster_of(stop)

    def place_page(self, addr: int, slice_id: int) -> None:
        """Home the page containing ``addr`` on an L3 slice (OS hook).

        The NUMA placement lever: homing a working set on another
        cluster's slices makes every miss pay inter-cluster hops.
        """
        self.hierarchy.place_page(addr, slice_id)

    # -- measurement -------------------------------------------------------------------

    def snapshot_energy(self) -> EnergyLedger:
        """Copy of the current dynamic-energy ledger."""
        return self.ledger.copy()

    def energy_since(self, snapshot: EnergyLedger) -> EnergyLedger:
        """Dynamic energy accumulated since a snapshot."""
        delta = EnergyLedger()
        for component, pj in self.ledger.pj.items():
            d = pj - snapshot.get(component)
            if d:
                delta.add(component, d)
        return delta

    def total_energy(self, ledger: EnergyLedger, cycles: float,
                     active_cores: int = 1) -> TotalEnergy:
        """Dynamic + static roll-up for a run of ``cycles``."""
        power = PowerModel(self.config, active_cores=active_cores)
        return power.total_energy(ledger, cycles)

    def reset_energy(self) -> None:
        self.ledger.reset()

    # -- warming helpers (benchmarks) -------------------------------------------------

    def touch_range(self, addr: int, size: int, core: int = 0,
                    for_write: bool = False) -> None:
        """Bring a byte range into the core's caches (warms L1/L2/L3)."""
        for block in range(block_of(addr), addr + size, BLOCK_SIZE):
            self.hierarchy.access_block(core, block, for_write=for_write)

    def warm_l3(self, addr: int, size: int, core: int = 0) -> None:
        """Place a range in L3 only (resident for CC_L3 experiments):
        touch it, then flush the private copies down."""
        self.touch_range(addr, size, core=core)
        for block in range(block_of(addr), addr + size, BLOCK_SIZE):
            slice_id = self.hierarchy.home_slice(block, core)
            for level in ("L1", "L2"):
                cache = self.hierarchy.level_cache(level, core, block)
                res = cache.invalidate(block)
                if res and res[1]:
                    self.hierarchy.l3[slice_id].write_block(block, res[0], dirty=True)
            self.hierarchy.directory[slice_id].remove_sharer(block, core)
