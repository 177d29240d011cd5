"""Property-based coherence testing.

Random multi-core read/write sequences are checked against a flat reference
memory: every read must return the last written value, and the protocol
invariants (inclusion, single-writer/multiple-reader, directory
consistency) must hold at every quiescent point.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import CacheHierarchy
from repro.energy.accounting import EnergyLedger
from repro.params import BLOCK_SIZE, small_test_machine

N_BLOCKS = 64  # concentrated footprint to force sharing and eviction


@st.composite
def op_sequences(draw):
    n_ops = draw(st.integers(min_value=1, max_value=120))
    ops = []
    for _ in range(n_ops):
        core = draw(st.integers(0, 1))
        block = draw(st.integers(0, N_BLOCKS - 1))
        is_write = draw(st.booleans())
        value = draw(st.integers(0, 255))
        ops.append((core, block, is_write, value))
    return ops


class TestRandomCoherence:
    @given(op_sequences())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_reads_see_last_write(self, ops):
        config = small_test_machine()
        hier = CacheHierarchy(config, EnergyLedger())
        reference = np.zeros(N_BLOCKS * 64, dtype=np.uint8)
        for core, block, is_write, value in ops:
            addr = block * 64
            if is_write:
                data = bytes([value]) * 64
                hier.write(core, addr, data)
                reference[addr : addr + 64] = value
            else:
                out, _ = hier.read(core, addr, 64)
                assert out == reference[addr : addr + 64].tobytes()
        hier.check_inclusion()
        hier.check_single_writer()

    @given(op_sequences())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_coherent_peek_matches_reference(self, ops):
        config = small_test_machine()
        hier = CacheHierarchy(config, EnergyLedger())
        reference = np.zeros(N_BLOCKS * 64, dtype=np.uint8)
        for core, block, is_write, value in ops:
            addr = block * 64
            if is_write:
                hier.write(core, addr, bytes([value]) * 64)
                reference[addr : addr + 64] = value
            else:
                hier.read(core, addr, 8)
        for block in range(N_BLOCKS):
            addr = block * 64
            assert hier.coherent_peek(addr, 64) == reference[addr : addr + 64].tobytes()


class TestConflictHeavyWorkload:
    """Deterministic stress: every core hammers the same two sets."""

    def test_ping_pong_writes(self):
        config = small_test_machine()
        hier = CacheHierarchy(config, EnergyLedger())
        addr = 0x1000
        for i in range(50):
            core = i % config.cores
            hier.write(core, addr, bytes([i]) * 64)
            out, _ = hier.read((core + 1) % config.cores, addr, 64)
            assert out == bytes([i]) * 64
        hier.check_inclusion()
        hier.check_single_writer()

    def test_false_sharing_pattern(self):
        """Cores write disjoint words of one block; all writes survive."""
        config = small_test_machine()
        hier = CacheHierarchy(config, EnergyLedger())
        hier.memory.load(0x2000, bytes(64))
        for i in range(16):
            core = i % config.cores
            hier.write(core, 0x2000 + i * 4, bytes([i + 1]) * 4)
        expected = b"".join(bytes([i + 1]) * 4 for i in range(16))
        assert hier.coherent_peek(0x2000, 64) == expected

    def test_eviction_storm_preserves_data(self):
        """Conflict misses across all levels never lose dirty data."""
        config = small_test_machine()
        hier = CacheHierarchy(config, EnergyLedger())
        l1 = config.l1d
        stride = l1.sets * BLOCK_SIZE
        addrs = [i * stride for i in range(3 * l1.ways)]
        for i, addr in enumerate(addrs):
            hier.write(0, addr, bytes([i + 1]) * 64)
        for i, addr in enumerate(addrs):
            out, _ = hier.read(1, addr, 64)
            assert out == bytes([i + 1]) * 64
        hier.check_inclusion()


@pytest.mark.parametrize("cores", [1, 2])
def test_directory_empty_blocks_cleaned(cores):
    """Directory entries vanish when the last sharer leaves."""
    config = small_test_machine()
    hier = CacheHierarchy(config, EnergyLedger())
    l1, l2 = config.l1d, config.l2
    # Evict a block all the way out of the private hierarchy.
    stride = l2.sets * BLOCK_SIZE
    victim = 0x0
    hier.read(0, victim, 8)
    for i in range(1, l2.ways + 2):
        hier.read(0, victim + i * stride, 8)
    if not hier.l2[0].contains(victim):
        slice_id = hier.home_slice(victim, 0)
        entry = hier.directory[slice_id].peek(victim)
        assert entry is None or 0 not in entry.sharers
