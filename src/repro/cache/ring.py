"""Shared ring interconnect (Table IV: 3-cycle hops, 256-bit links).

Cores and L3 slices sit at ring stops.  A 64-byte block is two 256-bit
flits.  The model accounts latency (hop count x hop latency + serialization)
and energy (per flit-hop) for block transfers and control messages.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..energy.accounting import Component, EnergyLedger
from ..errors import ConfigError
from ..params import RingConfig


@dataclass
class RingStats:
    control_messages: int = 0
    data_messages: int = 0
    energy_pj: float = 0.0


class RingInterconnect:
    """Bidirectional ring with shortest-path routing.

    When constructed with an :class:`EnergyLedger`, every message charges
    its flit-hop energy to the ``noc`` component (Figure 7(b)'s NoC bar).
    """

    def __init__(self, config: RingConfig, ledger: EnergyLedger | None = None) -> None:
        if config.stops < 1:
            raise ConfigError("ring needs at least one stop")
        self.config = config
        self.ledger = ledger
        self.stats = RingStats()

    def _charge(self, pj: float) -> None:
        self.stats.energy_pj += pj
        if self.ledger is not None:
            self.ledger.add(Component.NOC, pj)

    def hops(self, src_stop: int, dst_stop: int) -> int:
        """Shortest hop count between two stops on the bidirectional ring."""
        n = self.config.stops
        d = abs(src_stop - dst_stop) % n
        return min(d, n - d)

    def latency(self, src_stop: int, dst_stop: int, data: bool) -> int:
        """Cycles for one message; data messages add flit serialization."""
        h = self.hops(src_stop, dst_stop)
        cycles = h * self.config.hop_latency
        if data:
            cycles += self.config.flits_per_block - 1
        return cycles

    def send_control(self, src_stop: int, dst_stop: int) -> int:
        """Account a one-flit control message; returns its latency."""
        h = self.hops(src_stop, dst_stop)
        self.stats.control_messages += 1
        self._charge(h * self.config.energy_per_hop_per_flit)
        return self.latency(src_stop, dst_stop, data=False)

    def send_block(self, src_stop: int, dst_stop: int) -> int:
        """Account a 64-byte data message; returns its latency."""
        h = self.hops(src_stop, dst_stop)
        flits = self.config.flits_per_block
        self.stats.data_messages += 1
        self._charge(h * flits * self.config.energy_per_hop_per_flit)
        return self.latency(src_stop, dst_stop, data=True)

    def block_transfer_energy(self, src_stop: int, dst_stop: int) -> float:
        """Energy (pJ) of a block transfer without accounting it."""
        return (
            self.hops(src_stop, dst_stop)
            * self.config.flits_per_block
            * self.config.energy_per_hop_per_flit
        )

    @staticmethod
    def core_stop(core_id: int, stops: int) -> int:
        """Ring stop a core attaches to (one core + one L3 slice per stop)."""
        return core_id % stops
