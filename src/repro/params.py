"""Machine configuration for the Compute Caches reproduction.

The default configuration reproduces Table IV of the paper: an 8-core CMP
modeled after Intel SandyBridge with a three-level cache hierarchy, a ring
interconnect, and directory-based MESI coherence.  Cache geometries follow
Table III (banks, block partitions, and the minimum number of low address
bits that must match for operand locality).

All sizes are in bytes, all latencies in core cycles, and all energies in
picojoules unless noted otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError

BLOCK_SIZE = 64
"""Cache block size in bytes (fixed at 64 throughout the paper)."""

PAGE_SIZE = 4096
"""Virtual-memory page size in bytes; operand locality holds for
page-aligned operands because pages are 4 KB (Section IV-C)."""

WORD_SIZE = 8
"""Machine word size in bytes (64-bit words)."""


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def log2i(n: int) -> int:
    """Integer log2 of a power of two; raises :class:`ConfigError` otherwise."""
    if not _is_pow2(n):
        raise ConfigError(f"{n} is not a power of two")
    return n.bit_length() - 1


@dataclass(frozen=True)
class CacheLevelConfig:
    """Geometry and timing of one cache level (or one NUCA slice for L3).

    The block-partition layout implements the paper's operand-locality-aware
    organization (Figure 5): all ways of a set map to a single block
    partition, and the bank/partition-select bits are the low bits of the
    set index, so two addresses share a partition iff their low
    ``min_locality_bits`` address bits are equal (Table III).
    """

    name: str
    size: int
    ways: int
    banks: int
    bps_per_bank: int
    hit_latency: int
    block_size: int = BLOCK_SIZE

    def __post_init__(self) -> None:
        if self.block_size != BLOCK_SIZE:
            raise ConfigError(
                f"{self.name}: block_size={self.block_size} is unsupported; the "
                f"hierarchy, memory and ring move {BLOCK_SIZE}-byte blocks"
            )
        for label, value in (
            ("size", self.size),
            ("ways", self.ways),
            ("banks", self.banks),
            ("bps_per_bank", self.bps_per_bank),
        ):
            if not _is_pow2(value):
                raise ConfigError(f"{self.name}: {label}={value} must be a power of two")
        if self.size % (self.ways * self.block_size):
            raise ConfigError(f"{self.name}: size not divisible by ways*block")
        if self.sets < self.banks * self.bps_per_bank:
            raise ConfigError(
                f"{self.name}: fewer sets ({self.sets}) than block partitions "
                f"({self.banks * self.bps_per_bank})"
            )

    @property
    def blocks(self) -> int:
        """Total cache blocks in this level."""
        return self.size // self.block_size

    @property
    def sets(self) -> int:
        return self.blocks // self.ways

    @property
    def set_index_bits(self) -> int:
        return log2i(self.sets)

    @property
    def offset_bits(self) -> int:
        return log2i(self.block_size)

    @property
    def bank_bits(self) -> int:
        return log2i(self.banks)

    @property
    def bp_bits(self) -> int:
        return log2i(self.bps_per_bank)

    @property
    def num_partitions(self) -> int:
        """Block partitions across the whole level."""
        return self.banks * self.bps_per_bank

    @property
    def blocks_per_partition(self) -> int:
        return self.blocks // self.num_partitions

    @property
    def sets_per_partition(self) -> int:
        return self.sets // self.num_partitions

    @property
    def min_locality_bits(self) -> int:
        """Low address bits that must match for operand locality (Table III).

        offset bits + bank-select bits + partition-select bits.
        """
        return self.offset_bits + self.bank_bits + self.bp_bits

    @property
    def subarray_rows(self) -> int:
        """Rows per sub-array; one cache block per row in our layout."""
        return self.blocks_per_partition

    @property
    def subarray_cols(self) -> int:
        """Bit-lines per sub-array; one 64-byte block per row -> 512 columns."""
        return self.block_size * 8


@dataclass(frozen=True)
class CoreConfig:
    """Processor core parameters (Table IV plus energy constants).

    ``epi_*`` values are whole-core energy-per-instruction constants in pJ
    (fetch/decode/rename/wakeup/commit included - McPAT puts a
    SandyBridge-class out-of-order core near 1 nJ/instruction).  They are
    calibrated so a scalar bulk-compare spends roughly three quarters of
    its energy on instruction processing (Figure 3 top-left).
    """

    frequency_ghz: float = 2.66
    load_queue_entries: int = 48
    store_queue_entries: int = 32
    vector_lsq_entries: int = 16
    simd_width: int = 32
    epi_scalar: float = 800.0
    epi_simd: float = 1000.0
    epi_cc: float = 1100.0
    static_power_core_mw: float = 450.0

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.frequency_ghz


@dataclass(frozen=True)
class RingConfig:
    """Shared ring interconnect (Table IV)."""

    hop_latency: int = 3
    link_width_bits: int = 256
    stops: int = 8
    energy_per_hop_per_flit: float = 52.0

    @property
    def flits_per_block(self) -> int:
        return (BLOCK_SIZE * 8) // self.link_width_bits

    def avg_hops(self) -> float:
        """Average hop count between two uniformly random ring stops."""
        return self.stops / 4.0


@dataclass(frozen=True)
class TopologyConfig:
    """Multi-cluster (NUMA) organization of cores and L3 slices.

    The machine's ring stops are partitioned block-wise into ``clusters``
    equal groups.  Stops inside a cluster talk over that cluster's local
    ring (:class:`~repro.params.RingConfig` costs); traffic between
    clusters is routed through each cluster's gateway stop (stop 0 of the
    group) onto a second-level cluster ring whose hops are slower and more
    expensive (``inter_hop_latency``, ``inter_energy_per_hop_per_flit``).

    ``clusters=1`` (the default) is *exactly* today's flat machine: the
    routing, latency, and energy models all reduce to the plain
    bidirectional ring, bit-for-bit (pinned by
    ``tests/test_topology_property.py``).

    ``slice_interleave`` selects the L3 page-homing policy:

    * ``"first-touch"`` (default, the paper's Section IV-C policy): a page
      is homed on the NUCA slice at the first toucher's ring stop.
    * ``"page"``: static address interleaving, ``slice = page % l3_slices``
      - a partition of the physical address space with no overlap or gap.
    """

    clusters: int = 1
    inter_hop_latency: int = 24
    inter_link_width_bits: int = 256
    inter_energy_per_hop_per_flit: float = 260.0
    slice_interleave: str = "first-touch"

    def __post_init__(self) -> None:
        if self.clusters < 1:
            raise ConfigError("topology needs at least one cluster")
        if self.inter_hop_latency < 0:
            raise ConfigError("inter-cluster hop latency cannot be negative")
        if self.inter_energy_per_hop_per_flit < 0:
            raise ConfigError("inter-cluster hop energy cannot be negative")
        if (self.inter_link_width_bits <= 0
                or (BLOCK_SIZE * 8) % self.inter_link_width_bits):
            raise ConfigError(
                f"inter-cluster link width {self.inter_link_width_bits} must "
                f"divide a {BLOCK_SIZE * 8}-bit block"
            )
        if self.slice_interleave not in ("first-touch", "page"):
            raise ConfigError(
                f"unknown slice_interleave {self.slice_interleave!r}; "
                "expected 'first-touch' or 'page'"
            )

    @property
    def inter_flits_per_block(self) -> int:
        return (BLOCK_SIZE * 8) // self.inter_link_width_bits


@dataclass(frozen=True)
class MemoryConfig:
    """Off-chip memory model (Table IV)."""

    latency: int = 120
    energy_per_block: float = 15000.0
    bandwidth_blocks_per_cycle: float = 0.25


@dataclass(frozen=True)
class ComputeCacheConfig:
    """Parameters specific to the Compute Cache extensions (Sections IV, VI-C)."""

    inplace_latency: int = 14
    nearplace_latency: int = 22
    transpose_latency: int = 8
    """Cycles to convert one cache block between row-major and bit-serial
    layout in the sub-array-periphery transpose unit (Neural Cache)."""
    max_activated_wordlines: int = 64
    max_operand_bytes: int = 16 * 1024
    cmp_search_max_bytes: int = 512
    search_key_bytes: int = 64
    pin_retry_limit: int = 2
    area_overhead_fraction: float = 0.08
    commands_per_cycle: int = 1
    """CC block-operations the controller can issue per cycle (the address
    bus in the H-tree is not replicated, Section IV-D)."""


BACKENDS = ("bitexact", "packed")
"""Valid sub-array execution backends (see :mod:`repro.sram.subarray`)."""


@dataclass(frozen=True)
class MachineConfig:
    """Complete machine description (Table IV defaults).

    ``backend`` selects the functional execution backend for every compute
    sub-array in the machine: ``"packed"`` (the default) runs vectorized
    numpy kernels over packed bytes, ``"bitexact"`` simulates the bit-level
    circuits.  The two are bit-for-bit equivalent (results, statistics, and
    energy) - enforced by the differential-equivalence harness - so
    ``bitexact`` is only needed for circuit-level experiments.
    """

    cores: int = 8
    core: CoreConfig = field(default_factory=CoreConfig)
    l1d: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(
            name="L1-D", size=32 * 1024, ways=8, banks=2, bps_per_bank=2, hit_latency=5
        )
    )
    l1i: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(
            name="L1-I", size=32 * 1024, ways=4, banks=2, bps_per_bank=2, hit_latency=5
        )
    )
    l2: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(
            name="L2", size=256 * 1024, ways=8, banks=8, bps_per_bank=2, hit_latency=11
        )
    )
    l3_slice: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(
            name="L3-slice",
            size=2 * 1024 * 1024,
            ways=16,
            banks=16,
            bps_per_bank=4,
            hit_latency=11,
        )
    )
    l3_slices: int = 8
    ring: RingConfig = field(default_factory=RingConfig)
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    cc: ComputeCacheConfig = field(default_factory=ComputeCacheConfig)
    memory_size: int = 64 * 1024 * 1024
    static_power_uncore_mw: float = 1400.0
    backend: str = "packed"
    trace_events: bool = False
    """Attach a structured event tracer (:mod:`repro.events`) to every
    layer of the machine.  Off by default: the only residual cost of the
    instrumentation is a ``tracer is not None`` check on the hot paths."""
    event_buffer_capacity: int = 1 << 20
    """Ring-buffer capacity of the event tracer (oldest events are dropped
    once full; the profiler refuses to validate a truncated stream)."""

    def __post_init__(self) -> None:
        if self.memory_size % PAGE_SIZE:
            raise ConfigError("memory_size must be a multiple of the page size")
        if self.l3_slices != self.ring.stops:
            raise ConfigError("one ring stop per L3 slice is assumed")
        if self.ring.stops % self.topology.clusters:
            raise ConfigError(
                f"{self.ring.stops} ring stops do not divide into "
                f"{self.topology.clusters} equal clusters"
            )
        if self.cores % self.topology.clusters:
            raise ConfigError(
                f"{self.cores} cores do not divide into "
                f"{self.topology.clusters} equal clusters"
            )
        if self.backend not in BACKENDS:
            raise ConfigError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.event_buffer_capacity <= 0:
            raise ConfigError("event_buffer_capacity must be positive")

    @property
    def l3_total_size(self) -> int:
        return self.l3_slice.size * self.l3_slices

    def scaled(self, memory_size: int | None = None, cores: int | None = None) -> "MachineConfig":
        """Return a copy with selected top-level fields replaced."""
        kwargs = {}
        if memory_size is not None:
            kwargs["memory_size"] = memory_size
        if cores is not None:
            kwargs["cores"] = cores
        return replace(self, **kwargs)


def sandybridge_8core(memory_size: int = 64 * 1024 * 1024) -> MachineConfig:
    """The paper's evaluation machine (Table IV)."""
    return MachineConfig(memory_size=memory_size)


def small_test_machine(memory_size: int = 1024 * 1024) -> MachineConfig:
    """A shrunken machine used by the test-suite for fast runs.

    Geometry ratios (banks, partitions, way-mapping) are preserved so that
    operand-locality behaviour matches the full machine.
    """
    return MachineConfig(
        cores=2,
        l1d=CacheLevelConfig(
            name="L1-D", size=4 * 1024, ways=4, banks=2, bps_per_bank=2, hit_latency=5
        ),
        l1i=CacheLevelConfig(
            name="L1-I", size=4 * 1024, ways=2, banks=2, bps_per_bank=2, hit_latency=5
        ),
        l2=CacheLevelConfig(
            name="L2", size=16 * 1024, ways=4, banks=4, bps_per_bank=2, hit_latency=11
        ),
        l3_slice=CacheLevelConfig(
            name="L3-slice", size=64 * 1024, ways=8, banks=4, bps_per_bank=2, hit_latency=11
        ),
        l3_slices=2,
        ring=RingConfig(stops=2),
        memory_size=memory_size,
    )


def multi_cluster(
    clusters: int,
    cores_per_cluster: int,
    *,
    full_size: bool = False,
    inter_hop_latency: int = 24,
    slice_interleave: str = "first-touch",
    memory_size: int | None = None,
) -> MachineConfig:
    """A clustered (NUMA) machine: ``clusters`` x ``cores_per_cluster`` cores.

    One ring stop (and one L3 slice) per core, stops partitioned into
    ``clusters`` equal groups bridged by the inter-cluster ring (see
    :class:`TopologyConfig`).  Cache geometry comes from
    :func:`small_test_machine` (or Table IV with ``full_size=True``), so a
    1-cluster instance of the same core count is the flat machine the
    test-suite already pins.  Memory scales with the core count.
    """
    if clusters < 1 or cores_per_cluster < 1:
        raise ConfigError("need at least one cluster and one core per cluster")
    base = sandybridge_8core() if full_size else small_test_machine()
    cores = clusters * cores_per_cluster
    if memory_size is None:
        memory_size = cores * (base.memory_size // base.cores)
    return replace(
        base,
        cores=cores,
        l3_slices=cores,
        ring=replace(base.ring, stops=cores),
        topology=TopologyConfig(
            clusters=clusters,
            inter_hop_latency=inter_hop_latency,
            slice_interleave=slice_interleave,
        ),
        memory_size=memory_size,
    )


def validate_table3(config: MachineConfig) -> dict[str, int]:
    """Return the Table III min-address-bit constraint for each level."""
    return {
        config.l1d.name: config.l1d.min_locality_bits,
        config.l2.name: config.l2.min_locality_bits,
        config.l3_slice.name: config.l3_slice.min_locality_bits,
    }


def ns_to_cycles(ns: float, core: CoreConfig) -> int:
    """Convert nanoseconds to (rounded-up) core cycles."""
    return int(math.ceil(ns / core.cycle_ns))
