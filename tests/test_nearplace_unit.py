"""Near-place unit internals: operand registers, handlers, error paths."""

import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.cache.block import MESIState
from repro.cache.cache import CacheLevel
from repro.core.nearplace import NearPlaceUnit, OperandRegisters
from repro.core.operation_table import BlockOperand, BlockOperation
from repro.energy.accounting import EnergyLedger
from repro.errors import ReproError
from repro.params import CacheLevelConfig, small_test_machine


@pytest.fixture
def level(make_bytes):
    cfg = CacheLevelConfig(size=16 * 1024, ways=4, banks=4,
                           bps_per_bank=2, hit_latency=11)
    lvl = CacheLevel("L2", cfg, EnergyLedger())
    for i in range(4):
        lvl.fill(i * 64, make_bytes(64), MESIState.EXCLUSIVE)
    return lvl


def block_op(subop, srcs, dest=None, lane_bits=None):
    operands = [BlockOperand(a, is_dest=False) for a in srcs]
    if dest is not None:
        operands.append(BlockOperand(dest, is_dest=True))
    return BlockOperation(instr_id=0, subarray_op=subop,
                          operands=operands, lane_bits=lane_bits)


def test_operand_views():
    op = block_op("and", [0x0, 0x1000], dest=0x2000)
    assert len(op.source_operands) == 2
    assert op.dest_operand is not None and op.dest_operand.addr == 0x2000
    assert op.addresses == [0x0, 0x1000, 0x2000]


class TestOperandRegisters:
    def test_hit_after_load(self):
        regs = OperandRegisters(capacity=2)
        assert not regs.acquire(0x0)
        assert regs.acquire(0x0)

    def test_lru_spill(self):
        regs = OperandRegisters(capacity=2)
        regs.acquire(0x0)
        regs.acquire(0x40)
        regs.acquire(0x80)  # spills 0x0
        assert regs.acquire(0x40)  # still held
        assert not regs.acquire(0x0)  # miss: it was spilled

    def test_invalidate(self):
        regs = OperandRegisters(capacity=2)
        regs.acquire(0x0)
        regs.invalidate(0x0)
        assert not regs.acquire(0x0)

    def test_mru_ordering(self):
        regs = OperandRegisters(capacity=2)
        regs.acquire(0x0)
        regs.acquire(0x40)
        regs.acquire(0x0)   # 0x0 becomes MRU
        regs.acquire(0x80)  # spills 0x40, not 0x0
        assert regs.acquire(0x0)


class TestNearPlaceHandlers:
    def test_register_hit_skips_read_energy(self, level):
        unit = NearPlaceUnit()
        op1 = block_op("cmp", [0x0, 0x40])
        unit.execute(level, op1)
        first = level.ledger.total()
        assert first > 0  # two conventional reads
        # Same operands again: both register hits, no new read energy
        # (only whatever the op writes - cmp writes nothing).
        op2 = block_op("cmp", [0x0, 0x40])
        unit.execute(level, op2)
        assert level.ledger.total() == first

    def test_dest_write_invalidates_register(self, level, make_bytes):
        unit = NearPlaceUnit()

        def charge(op):
            before = level.ledger.total()
            unit.execute(level, op)
            return level.ledger.total() - before

        unit.execute(level, block_op("not", [0x40], dest=0x80))  # registers 0x40
        unit.execute(level, block_op("copy", [0x0], dest=0x40))
        # 0x40's register copy is stale now: reading it as a source
        # reloads it from the cache, and pays the read a hit skips.
        reload = charge(block_op("not", [0x40], dest=0xC0))
        hit = charge(block_op("not", [0x40], dest=0xC0))
        assert reload > hit

    def test_unknown_op_rejected(self, level):
        unit = NearPlaceUnit()
        with pytest.raises(ReproError):
            unit.execute(level, block_op("mul", [0x0, 0x40], dest=0x80))

    def test_missing_key_rejected(self, level):
        unit = NearPlaceUnit()
        with pytest.raises(ReproError):
            unit.execute(level, block_op("search", [0x0]), key_data=None)

    def test_clmul_needs_lanes(self, level):
        unit = NearPlaceUnit()
        with pytest.raises(ReproError):
            unit.execute(level, block_op("clmul", [0x0, 0x40], dest=0x80))

    def test_dest_without_result_rejected(self, level):
        unit = NearPlaceUnit()
        with pytest.raises(ReproError):
            # cmp produces no data; a dest operand is a malformed op.
            unit.execute(level, block_op("cmp", [0x0, 0x40], dest=0x80))


class TestKeyReuseThroughRegisters:
    def test_nearplace_search_reuses_key_register(self, make_bytes):
        """Near-place search over many blocks reads the key once into a
        register; subsequent block ops hit it."""
        m = ComputeCacheMachine(small_test_machine())
        data, key = m.arena.alloc_colocated(512, 2)
        blocks = [make_bytes(64) for _ in range(8)]
        m.load(data, b"".join(blocks))
        m.load(key, blocks[5])
        res = m.cc(cc_ops.cc_search(data, key, 512), force_nearplace=True)
        assert res.result == 1 << 5
        assert res.nearplace_ops == 8
