"""Ring, H-tree, and memory model tests."""

from dataclasses import replace

import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.cache.hierarchy import L3
from repro.cache.memory import MainMemory
from repro.cache.ring import RingInterconnect
from repro.core.controller import INSTRUCTION_OVERHEAD_CYCLES
from repro.energy.accounting import Component, EnergyLedger
from repro.energy.tables import CACHE_ACCESS_ENERGY_PJ, CACHE_IC_ENERGY_PJ
from repro.errors import AddressError
from repro.params import PAGE_SIZE, RingConfig, small_test_machine


class TestRing:
    def test_shortest_path_hops(self):
        ring = RingInterconnect(RingConfig(stops=8))
        assert ring.hops(0, 1) == 1
        assert ring.hops(0, 7) == 1  # wrap-around
        assert ring.hops(0, 4) == 4
        assert ring.hops(3, 3) == 0

    def test_latency_includes_serialization(self):
        ring = RingInterconnect(RingConfig(stops=8, hop_latency=3))
        # 64B block = 2 flits of 256 bits: +1 cycle serialization.
        assert ring.latency(0, 2, data=True) == 6 + 1
        assert ring.latency(0, 2, data=False) == 6

    def test_energy_charged_to_ledger(self):
        ledger = EnergyLedger()
        ring = RingInterconnect(RingConfig(stops=8), ledger)
        ring.send_block(0, 4)
        assert ledger.get(Component.NOC) > 0
        assert ledger.get(Component.NOC) == pytest.approx(ring.stats.energy_pj)

    def test_control_cheaper_than_data(self):
        ring = RingInterconnect(RingConfig(stops=8))
        ring.send_control(0, 4)
        control = ring.stats.energy_pj
        ring.send_block(0, 4)
        assert ring.stats.energy_pj - control > control

    def test_core_stop_mapping(self):
        assert RingInterconnect.core_stop(0, 8) == 0
        assert RingInterconnect.core_stop(9, 8) == 1


class TestHTree:
    def test_l3_fraction_dominates(self):
        """Table I: ~80% of an L3-slice read is H-tree wires."""
        def share(level):
            ic = CACHE_IC_ENERGY_PJ[level]
            return ic / (ic + CACHE_ACCESS_ENERGY_PJ[level])

        assert share("L3-slice") > 0.75
        assert share("L1-D") > 0.55

    @staticmethod
    def _piece(commands_per_cycle):
        """A 64-block in-place ``cc_and`` at L3 with block commands issued
        ``commands_per_cycle`` at a time."""
        config = small_test_machine()
        config = replace(config, cc=replace(config.cc, commands_per_cycle=commands_per_cycle))
        m = ComputeCacheMachine(config)
        a, b, c = m.arena.alloc_colocated(PAGE_SIZE, 3)
        res = m.cc(cc_ops.cc_and(a, b, c, PAGE_SIZE), force_level=L3)
        assert res.inplace_ops == 64 and res.used_inplace
        return res

    def test_command_issue_serialization(self):
        """The unreplicated address bus (Section IV-D): four commands a
        cycle issue a 64-block piece in a quarter of the cycles one a
        cycle takes, and the piece finishes that much sooner."""
        one, four = self._piece(1), self._piece(4)
        assert one.occupancy_cycles - INSTRUCTION_OVERHEAD_CYCLES == 64
        assert four.occupancy_cycles - INSTRUCTION_OVERHEAD_CYCLES == 16
        assert one.compute_cycles - four.compute_cycles == 64 - 16
        assert one.cycles - four.cycles == 64 - 16


class TestMemory:
    def test_block_round_trip(self, make_bytes):
        mem = MainMemory(4096)
        data = make_bytes(64)
        mem.write_block(0x40, data)
        assert mem.read_block(0x40) == data
        assert mem.block_reads == 1 and mem.block_writes == 1

    def test_unaligned_rejected(self):
        mem = MainMemory(4096)
        with pytest.raises(AddressError):
            mem.read_block(0x41)

    def test_out_of_range_rejected(self):
        mem = MainMemory(4096)
        with pytest.raises(AddressError):
            mem.read_block(4096)

    def test_backdoor_uncounted(self, make_bytes):
        mem = MainMemory(4096)
        data = make_bytes(100)
        mem.load(10, data)
        assert mem.peek(10, 100) == data
        assert mem.block_reads == 0 and mem.block_writes == 0
