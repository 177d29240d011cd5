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
from dataclasses import dataclass, field, fields, replace

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


def _check_numbers(config, positive: tuple[str, ...] = ()) -> None:
    """Every number of a config section is finite and >= 0, and each one
    named in ``positive`` is > 0; any other value would divide by zero or
    give a wrong number mid-run."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if (isinstance(value, float) and not math.isfinite(value)) or value < 0 \
                or (value == 0 and f.name in positive):
            raise ConfigError(
                f"{type(config).__name__}.{f.name}={value!r} must be a finite "
                f"number {'> 0' if f.name in positive else '>= 0'}"
            )


def _check_link_width(config, name: str) -> None:
    """A link of ``name`` bits carries a block in a whole number of flits."""
    if (BLOCK_SIZE * 8) % getattr(config, name):
        raise ConfigError(
            f"{type(config).__name__}.{name}={getattr(config, name)} must "
            f"divide a {BLOCK_SIZE * 8}-bit block"
        )


@dataclass(frozen=True)
class CacheLevelConfig:
    """Geometry and timing of one cache level (or one NUCA slice for L3).

    The block-partition layout implements the paper's operand-locality-aware
    organization (Figure 5): all ways of a set map to a single block
    partition, and the bank/partition-select bits are the low bits of the
    set index, so two addresses share a partition iff their low
    ``min_locality_bits`` address bits are equal (Table III).
    """

    size: int
    ways: int
    banks: int
    bps_per_bank: int
    hit_latency: int

    def __post_init__(self) -> None:
        _check_numbers(self)
        for label, value in (
            ("size", self.size),
            ("ways", self.ways),
            ("banks", self.banks),
            ("bps_per_bank", self.bps_per_bank),
        ):
            if not _is_pow2(value):
                raise ConfigError(
                    f"CacheLevelConfig.{label}={value} must be a power of two")
        if self.size % (self.ways * BLOCK_SIZE):
            raise ConfigError(
                f"CacheLevelConfig.size={self.size} is not a multiple of "
                f"ways * {BLOCK_SIZE}")
        if self.sets < self.banks * self.bps_per_bank:
            raise ConfigError(
                f"CacheLevelConfig: fewer sets ({self.sets}) than block partitions "
                f"({self.banks * self.bps_per_bank})"
            )

    @property
    def blocks(self) -> int:
        """Total cache blocks in this level."""
        return self.size // BLOCK_SIZE

    @property
    def sets(self) -> int:
        return self.blocks // self.ways

    @property
    def offset_bits(self) -> int:
        return log2i(BLOCK_SIZE)

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
    def min_locality_bits(self) -> int:
        """Low address bits that must match for operand locality (Table III).

        offset bits + bank-select bits + partition-select bits.
        """
        return self.offset_bits + self.bank_bits + self.bp_bits


@dataclass(frozen=True)
class CoreConfig:
    """Processor core parameters (Table IV plus energy constants).

    ``epi_*`` values are whole-core energy-per-instruction constants in pJ
    (fetch/decode/rename/wakeup/commit included - McPAT puts a
    SandyBridge-class out-of-order core near 1 nJ/instruction).  They are
    calibrated so a scalar bulk-compare spends roughly three quarters of
    its energy on instruction processing (Figure 3 top-left).  The SIMD
    width is :data:`repro.cpu.simd.SIMD_WIDTH`.
    """

    frequency_ghz: float = 2.66
    epi_scalar: float = 800.0
    epi_simd: float = 1000.0
    epi_cc: float = 1100.0
    static_power_core_mw: float = 450.0

    def __post_init__(self) -> None:
        _check_numbers(self, positive=("frequency_ghz",))

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

    def __post_init__(self) -> None:
        _check_numbers(self, positive=("link_width_bits",))
        _check_link_width(self, "link_width_bits")

    @property
    def flits_per_block(self) -> int:
        return (BLOCK_SIZE * 8) // self.link_width_bits


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

    A page is homed on the NUCA slice at its first toucher's ring stop
    (Section IV-C), on any topology.
    """

    clusters: int = 1
    inter_hop_latency: int = 24
    inter_link_width_bits: int = 256
    inter_energy_per_hop_per_flit: float = 260.0

    def __post_init__(self) -> None:
        _check_numbers(self, positive=("clusters", "inter_link_width_bits"))
        _check_link_width(self, "inter_link_width_bits")

    @property
    def inter_flits_per_block(self) -> int:
        return (BLOCK_SIZE * 8) // self.inter_link_width_bits


@dataclass(frozen=True)
class MemoryConfig:
    """Off-chip memory model (Table IV)."""

    latency: int = 120
    energy_per_block: float = 15000.0

    def __post_init__(self) -> None:
        _check_numbers(self)


@dataclass(frozen=True)
class ComputeCacheConfig:
    """Parameters specific to the Compute Cache extensions (Sections IV, VI-C).

    The ISA's operand limits are constants of :mod:`repro.core.isa`
    (``MAX_OPERAND_BYTES``, ``CMP_MAX_BYTES``, ``SEARCH_KEY_BYTES``), and the
    64-word-line activation limit is ``BitCellArray(max_activated=)``'s.
    """

    inplace_latency: int = 14
    nearplace_latency: int = 22
    transpose_latency: int = 8
    """Cycles to convert one cache block between row-major and bit-serial
    layout in the sub-array-periphery transpose unit (Neural Cache)."""
    pin_retry_limit: int = 2
    commands_per_cycle: int = 1
    """CC block-operations the controller can issue per cycle (the address
    bus in the H-tree is not replicated, Section IV-D)."""

    def __post_init__(self) -> None:
        _check_numbers(self, positive=("pin_retry_limit", "commands_per_cycle"))


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
            size=32 * 1024, ways=8, banks=2, bps_per_bank=2, hit_latency=5
        )
    )
    l2: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(
            size=256 * 1024, ways=8, banks=8, bps_per_bank=2, hit_latency=11
        )
    )
    l3_slice: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(
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
        _check_numbers(self, positive=("cores", "l3_slices", "memory_size",
                                       "event_buffer_capacity"))
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
            size=4 * 1024, ways=4, banks=2, bps_per_bank=2, hit_latency=5
        ),
        l2=CacheLevelConfig(
            size=16 * 1024, ways=4, banks=4, bps_per_bank=2, hit_latency=11
        ),
        l3_slice=CacheLevelConfig(
            size=64 * 1024, ways=8, banks=4, bps_per_bank=2, hit_latency=11
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
        ),
        memory_size=memory_size,
    )


def validate_table3(config: MachineConfig) -> dict[str, int]:
    """Return the Table III min-address-bit constraint for each level, by
    level name."""
    from .energy.accounting import Component  # repro.energy imports params

    levels = (config.l1d, config.l2, config.l3_slice)
    return {name: level.min_locality_bits
            for name, level in zip(Component.LEVELS, levels)}
