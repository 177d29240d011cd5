"""Core model and baseline-kernel tests."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.cpu import simd
from repro.cpu.program import Instr, InstrKind, Program
from repro.energy.accounting import Component


class TestCoreModel:
    def test_scalar_ops_cost_one_cycle(self, machine):
        program = Program("alu", [Instr.scalar() for _ in range(10)])
        res = machine.run(program)
        assert res.cycles == 10
        assert res.instructions == 10

    def test_load_miss_stalls(self, machine, make_bytes):
        addr = machine.arena.alloc_page_aligned(64)
        machine.load(addr, make_bytes(64))
        cold = machine.run(Program("cold", [Instr.load(addr)]))
        warm = machine.run(Program("warm", [Instr.load(addr)]))
        assert cold.cycles > warm.cycles

    def test_store_hit_does_not_stall(self, machine):
        addr = machine.arena.alloc_page_aligned(64)
        machine.touch_range(addr, 64, for_write=True)  # warm, writable
        res = machine.run(Program("st", [Instr.store(addr, b"\x01" * 8)]))
        assert res.cycles == 1  # retires through the store buffer

    def test_store_miss_consumes_mlp(self, machine):
        """Write-allocate misses are throughput-bound like load misses."""
        addr = machine.arena.alloc_page_aligned(64)
        res = machine.run(Program("st", [Instr.store(addr, b"\x01" * 8)]))
        assert res.cycles > 1
        assert res.stall_cycles > 0

    def test_core_energy_charged(self, machine):
        before = machine.ledger.get(Component.CORE)
        machine.run(Program("alu", [Instr.scalar()] * 5))
        charged = machine.ledger.get(Component.CORE) - before
        assert charged == pytest.approx(5 * machine.config.core.epi_scalar)

    def test_simd_energy_higher(self, machine):
        cfg = machine.config.core
        assert cfg.epi_simd > cfg.epi_scalar

    def test_cc_instruction_dispatch(self, machine, make_bytes):
        a, c = machine.arena.alloc_colocated(128, 2)
        machine.load(a, make_bytes(128))
        program = Program("cc", [Instr.cc_op(cc_ops.cc_copy(a, c, 128))])
        res = machine.run(program)
        assert res.cc_instructions == 1
        assert res.cc_cycles > 0
        assert machine.peek(c, 128) == machine.peek(a, 128)

    def test_fence_drains_stalls(self, machine, make_bytes):
        addr = machine.arena.alloc_page_aligned(64)
        machine.load(addr, make_bytes(64))
        program = Program("fenced", [Instr.load(addr), Instr.fence()])
        res = machine.run(program)
        assert res.fences == 1
        assert res.stall_cycles > 0

    def test_load_data_captured(self, machine, make_bytes):
        addr = machine.arena.alloc_page_aligned(64)
        data = make_bytes(64)
        machine.load(addr, data)
        machine.cores[0].keep_load_data = True
        res = machine.run(Program("ld", [Instr.load(addr, 64)]))
        assert res.load_data == [data]


class TestSharedInstructions:
    @pytest.mark.parametrize("factory, kind", [
        (Instr.scalar, InstrKind.SCALAR_OP), (Instr.branch, InstrKind.BRANCH),
        (Instr.simd_op, InstrKind.SIMD_OP), (Instr.fence, InstrKind.FENCE),
    ])
    def test_data_free_factories_share_one_frozen_instance(self, factory, kind):
        instr = factory()
        assert instr is factory()
        assert instr == Instr(kind)
        with pytest.raises(dataclasses.FrozenInstanceError):
            instr.addr = 64
        assert factory() == Instr(kind)

    def test_data_carrying_factories_build_new_instances(self):
        assert Instr.load(0x40) is not Instr.load(0x40)
        assert Instr.load(0x40) == Instr.load(0x40)


class TestBaselineKernels:
    def test_simd_copy_is_functional(self, machine, make_bytes):
        src, dst = machine.arena.alloc_colocated(256, 2)
        data = make_bytes(256)
        machine.load(src, data)
        machine.run(simd.simd_copy(src, dst, 256))
        assert machine.peek(dst, 256) == data

    def test_scalar_copy_is_functional(self, machine, make_bytes):
        src, dst = machine.arena.alloc_colocated(128, 2)
        data = make_bytes(128)
        machine.load(src, data)
        machine.run(simd.scalar_copy(src, dst, 128))
        assert machine.peek(dst, 128) == data

    def test_simd_or_is_functional(self, machine, make_bytes):
        a, b, c = machine.arena.alloc_colocated(128, 3)
        da, db = make_bytes(128), make_bytes(128)
        machine.load(a, da)
        machine.load(b, db)
        machine.run(simd.simd_or(a, b, c, 128))
        expected = (np.frombuffer(da, np.uint8) | np.frombuffer(db, np.uint8)).tobytes()
        assert machine.peek(c, 128) == expected

    def test_scalar_or_is_functional(self, machine, make_bytes):
        a, b, c = machine.arena.alloc_colocated(64, 3)
        da, db = make_bytes(64), make_bytes(64)
        machine.load(a, da)
        machine.load(b, db)
        machine.run(simd.scalar_or(a, b, c, 64))
        expected = (np.frombuffer(da, np.uint8) | np.frombuffer(db, np.uint8)).tobytes()
        assert machine.peek(c, 64) == expected

    def test_simd_fewer_instructions_than_scalar(self):
        scalar = simd.scalar_compare(0, 0x10000, 4096)
        vector = simd.simd_compare(0, 0x10000, 4096)
        assert len(vector) < len(scalar)

    def test_instruction_counts(self):
        program = simd.simd_copy(0, 0x10000, 128)
        counts = Counter(instr.kind.value for instr in program)
        assert counts["simd-load"] == 4
        assert counts["simd-store"] == 4

    def test_bad_sizes_rejected(self):
        with pytest.raises(Exception):
            simd.simd_copy(0, 0x1000, 33)


class TestCCvsBaselineShape:
    def test_cc_beats_base32_on_cycles(self, machine, make_bytes):
        """The headline claim at small scale: a CC copy of L3-resident data
        takes far fewer cycles than the Base_32 loop."""
        size = 2048
        src, dst = machine.arena.alloc_colocated(size, 2)
        machine.load(src, make_bytes(size))
        machine.warm_l3(src, size)
        machine.warm_l3(dst, size)
        base = machine.run(simd.simd_copy(src, dst, size))
        machine.warm_l3(src, size)
        machine.warm_l3(dst, size)
        cc = machine.run(Program("cc", [Instr.cc_op(cc_ops.cc_copy(src, dst, size))]))
        assert cc.cycles < base.cycles / 3

    def test_cc_beats_base32_on_energy(self, machine, make_bytes):
        size = 2048
        src, dst = machine.arena.alloc_colocated(size, 2)
        machine.load(src, make_bytes(size))
        machine.warm_l3(src, size)
        machine.warm_l3(dst, size)
        snap = machine.snapshot_energy()
        machine.run(simd.simd_copy(src, dst, size))
        base_energy = machine.energy_since(snap).total()
        machine.warm_l3(src, size)
        machine.warm_l3(dst, size)
        snap = machine.snapshot_energy()
        machine.run(Program("cc", [Instr.cc_op(cc_ops.cc_copy(src, dst, size))]))
        cc_energy = machine.energy_since(snap).total()
        assert cc_energy < base_energy / 2
