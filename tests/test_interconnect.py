"""Ring, H-tree, and memory model tests."""

import pytest

from repro.cache.htree import HTree
from repro.cache.memory import MainMemory
from repro.cache.ring import RingInterconnect
from repro.energy.accounting import Component, EnergyLedger
from repro.energy.tables import CACHE_ACCESS_ENERGY_PJ, CACHE_IC_ENERGY_PJ
from repro.errors import AddressError
from repro.params import RingConfig


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

    def test_command_issue_serialization(self):
        h = HTree("L3-slice", commands_per_cycle=1)
        assert h.command_issue_cycles(64) == 64
        h2 = HTree("L3-slice", commands_per_cycle=4)
        assert h2.command_issue_cycles(64) == 16

    def test_transfer_accounting(self):
        h = HTree("L2")
        h.record_transfer()
        assert h.data_transfers == 1
        assert h.commands_issued == 0


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
