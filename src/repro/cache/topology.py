"""Clustered (NUMA) interconnect: per-cluster rings bridged by a cluster ring.

The machine's ring stops are partitioned block-wise into equal clusters
(:class:`~repro.params.TopologyConfig`).  Stop ``s`` belongs to cluster
``s // stops_per_cluster``; stop ``cluster * stops_per_cluster`` is that
cluster's *gateway*.  A message between stops of the same cluster travels
the cluster's local bidirectional ring at the flat-ring costs
(:class:`~repro.params.RingConfig`).  A message between clusters goes

    src stop --local ring--> src gateway --cluster ring--> dst gateway
    --local ring--> dst stop

where cluster-ring hops cost ``inter_hop_latency`` cycles and
``inter_energy_per_hop_per_flit`` pJ per flit - an order of magnitude more
than an on-die hop, which is what makes remote L3 slices *NUMA*.

Two properties the test battery pins:

* **Flat-ring reduction.**  With ``clusters == 1`` every route has zero
  inter-cluster hops, and latency, energy, and statistics are bit-identical
  to :class:`~repro.cache.ring.RingInterconnect` - machines built before
  this module existed replay cycle-exact.
* **Metric sanity.**  The hop-cost function is symmetric and satisfies the
  triangle inequality for every topology (each of the three route
  components - intra hops at the endpoints and cluster-ring hops - is
  itself a ring metric, and gateway routing composes them additively).

When a tracer is attached, every message that crosses a cluster boundary
emits a ``topo.hop`` event so the cycle-attribution profiler can tile NUMA
traffic per cluster pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..energy.accounting import EnergyLedger
from ..errors import ConfigError
from ..events.tracer import EventTracer
from ..params import RingConfig, TopologyConfig
from .ring import RingInterconnect


def ring_distance(a: int, b: int, stops: int) -> int:
    """Shortest hop count between two stops of a bidirectional ring."""
    d = abs(a - b) % stops
    return min(d, stops - d)


@dataclass
class TopologyStats:
    """Inter-cluster traffic counters (local-ring traffic stays in
    :class:`~repro.cache.ring.RingStats`)."""

    inter_messages: int = 0
    inter_flit_hops: int = 0
    inter_energy_pj: float = 0.0


class ClusterInterconnect(RingInterconnect):
    """Gateway-routed hierarchy of rings; degenerates to the flat ring.

    Drop-in replacement for :class:`RingInterconnect`: the hierarchy and
    the CC controller only call :meth:`hops`, :meth:`latency`,
    :meth:`send_control`, :meth:`send_block`, and
    :meth:`block_transfer_energy`, all of which are overridden here to
    route through cluster gateways.
    """

    def __init__(self, config: RingConfig, topology: TopologyConfig | None = None,
                 ledger: EnergyLedger | None = None,
                 tracer: EventTracer | None = None) -> None:
        super().__init__(config, ledger)
        self.topology = topology if topology is not None else TopologyConfig()
        if config.stops % self.topology.clusters:
            raise ConfigError(
                f"{config.stops} ring stops do not divide into "
                f"{self.topology.clusters} equal clusters"
            )
        self.tracer = tracer
        self.stops_per_cluster = config.stops // self.topology.clusters
        self.topo_stats = TopologyStats()
        self._messages: dict[tuple[int, int, bool], tuple] = {}

    # -- routing ---------------------------------------------------------------------

    def cluster_of(self, stop: int) -> int:
        """Cluster a ring stop belongs to."""
        return (stop % self.config.stops) // self.stops_per_cluster

    def route(self, src_stop: int, dst_stop: int) -> tuple[int, int]:
        """Shortest gateway route as ``(intra_hops, inter_hops)``."""
        n = self.config.stops
        src, dst = src_stop % n, dst_stop % n
        spc = self.stops_per_cluster
        src_cluster, dst_cluster = src // spc, dst // spc
        if src_cluster == dst_cluster:
            return ring_distance(src % spc, dst % spc, spc), 0
        intra = (ring_distance(src % spc, 0, spc)
                 + ring_distance(dst % spc, 0, spc))
        inter = ring_distance(src_cluster, dst_cluster, self.topology.clusters)
        return intra, inter

    def hops(self, src_stop: int, dst_stop: int) -> int:
        """Total hop count (local + cluster-ring) of the shortest route."""
        intra, inter = self.route(src_stop, dst_stop)
        return intra + inter

    def latency(self, src_stop: int, dst_stop: int, data: bool) -> int:
        intra, inter = self.route(src_stop, dst_stop)
        cycles = (intra * self.config.hop_latency
                  + inter * self.topology.inter_hop_latency)
        if data:
            cycles += self.config.flits_per_block - 1
            if inter:
                cycles += self.topology.inter_flits_per_block - 1
        return cycles

    # -- accounting ------------------------------------------------------------------

    def _message(self, src_stop: int, dst_stop: int, data: bool) -> tuple:
        """One message's routed costs, ``(flit_hops, intra_pj, inter,
        inter_flit_hops, inter_pj, src_cluster, dst_cluster, route_label,
        latency)``: computed on the first message of each
        ``(src, dst, data)`` and looked up after that (the configs are
        frozen, so the route never changes)."""
        key = (src_stop, dst_stop, data)
        message = self._messages.get(key)
        if message is None:
            intra, inter = self.route(src_stop, dst_stop)
            ring_flits = self.config.flits_per_block if data else 1
            inter_flits = self.topology.inter_flits_per_block if data else 1
            src, dst = self.cluster_of(src_stop), self.cluster_of(dst_stop)
            message = self._messages[key] = (
                intra * ring_flits,
                intra * ring_flits * self.config.energy_per_hop_per_flit,
                inter, inter * inter_flits,
                inter * inter_flits * self.topology.inter_energy_per_hop_per_flit,
                src, dst, f"c{src}->c{dst}",
                self.latency(src_stop, dst_stop, data))
        return message

    def _account(self, src_stop: int, dst_stop: int, data: bool) -> int:
        (flit_hops, intra_pj, inter, inter_flit_hops, inter_pj,
         src, dst, label, latency) = self._message(src_stop, dst_stop, data)
        self.stats.flit_hops += flit_hops
        if data:
            self.stats.data_messages += 1
        else:
            self.stats.control_messages += 1
        self._charge(intra_pj)
        if inter:
            self.topo_stats.inter_messages += 1
            self.topo_stats.inter_flit_hops += inter_flit_hops
            self.topo_stats.inter_energy_pj += inter_pj
            self._charge(inter_pj)
            if self.tracer is not None:
                self.tracer.emit("topo.hop", unit=src, blocks=dst,
                                 span=float(inter),
                                 outcome="data" if data else "control",
                                 reason=label)
        return latency

    def send_control(self, src_stop: int, dst_stop: int) -> int:
        return self._account(src_stop, dst_stop, data=False)

    def send_block(self, src_stop: int, dst_stop: int) -> int:
        return self._account(src_stop, dst_stop, data=True)

    def block_transfer_energy(self, src_stop: int, dst_stop: int) -> float:
        intra, inter = self.route(src_stop, dst_stop)
        return (intra * self.config.flits_per_block
                * self.config.energy_per_hop_per_flit
                + inter * self.topology.inter_flits_per_block
                * self.topology.inter_energy_per_hop_per_flit)
