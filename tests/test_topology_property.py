"""Property tests for the multi-cluster NUMA topology.

Three guarantees the topology layer makes, checked over generated
configurations:

* the gateway-routed hop-cost function is a metric — symmetric and
  triangle-inequality-respecting — for *any* (clusters x stops) shape;
* a 1-cluster :class:`ClusterInterconnect` is bit-identical to the flat
  pre-topology :class:`RingInterconnect` (golden compatibility);
* ``"page"`` slice interleaving partitions the address space — every
  page homed on exactly one slice, no overlap, no gap.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.ring import RingInterconnect
from repro.cache.topology import ClusterInterconnect, ring_distance
from repro.energy.accounting import EnergyLedger
from repro.errors import ConfigError
from repro.params import (
    PAGE_SIZE,
    RingConfig,
    TopologyConfig,
    multi_cluster,
)


@st.composite
def clustered_rings(draw) -> tuple[RingConfig, TopologyConfig]:
    """Any valid (ring, topology) pair: stops = clusters x stops/cluster."""
    clusters = draw(st.integers(1, 6))
    stops_per_cluster = draw(st.integers(1, 6))
    ring = RingConfig(
        stops=clusters * stops_per_cluster,
        hop_latency=draw(st.integers(1, 8)),
    )
    topology = TopologyConfig(
        clusters=clusters,
        inter_hop_latency=draw(st.integers(0, 64)),
        inter_link_width_bits=draw(st.sampled_from([128, 256, 512])),
    )
    return ring, topology


@st.composite
def rings_with_stops(draw, n: int = 3):
    """A clustered ring plus ``n`` (not necessarily distinct) stops."""
    ring, topology = draw(clustered_rings())
    stops = [draw(st.integers(0, ring.stops - 1)) for _ in range(n)]
    return ring, topology, stops


class TestHopMetric:
    @given(rings_with_stops(n=2))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, case):
        ring, topology, (a, b) = case
        ci = ClusterInterconnect(ring, topology)
        assert ci.hops(a, b) == ci.hops(b, a)
        for data in (False, True):
            assert ci.latency(a, b, data) == ci.latency(b, a, data)
        assert ci.block_transfer_energy(a, b) == ci.block_transfer_energy(b, a)

    @given(rings_with_stops(n=2))
    @settings(max_examples=200, deadline=None)
    def test_identity_of_indiscernibles(self, case):
        ring, topology, (a, b) = case
        ci = ClusterInterconnect(ring, topology)
        assert (ci.hops(a, b) == 0) == (a == b)
        assert ci.latency(a, a, data=False) == 0

    @given(rings_with_stops(n=3))
    @settings(max_examples=300, deadline=None)
    def test_triangle_inequality(self, case):
        ring, topology, (a, b, c) = case
        ci = ClusterInterconnect(ring, topology)
        assert ci.hops(a, c) <= ci.hops(a, b) + ci.hops(b, c)
        for data in (False, True):
            assert (ci.latency(a, c, data)
                    <= ci.latency(a, b, data) + ci.latency(b, c, data))
        assert (ci.block_transfer_energy(a, c)
                <= ci.block_transfer_energy(a, b)
                + ci.block_transfer_energy(b, c))

    @given(rings_with_stops(n=2))
    @settings(max_examples=200, deadline=None)
    def test_route_components_bounded(self, case):
        """Inter hops never exceed half the cluster ring; intra hops never
        exceed one half-sub-ring per endpoint."""
        ring, topology, (a, b) = case
        ci = ClusterInterconnect(ring, topology)
        intra, inter = ci.route(a, b)
        assert 0 <= inter <= topology.clusters // 2
        assert 0 <= intra <= 2 * (ci.stops_per_cluster // 2)
        if ci.cluster_of(a) == ci.cluster_of(b):
            assert inter == 0

    def test_stops_must_divide_into_clusters(self):
        with pytest.raises(ConfigError):
            ClusterInterconnect(RingConfig(stops=6),
                                TopologyConfig(clusters=4))


class TestFlatRingReduction:
    """clusters=1 must be indistinguishable from the pre-topology ring."""

    @given(rings_with_stops(n=2))
    @settings(max_examples=200, deadline=None)
    def test_costs_identical(self, case):
        ring, _topology, (a, b) = case
        flat = RingInterconnect(ring)
        one = ClusterInterconnect(ring, TopologyConfig(clusters=1))
        assert one.hops(a, b) == flat.hops(a, b)
        for data in (False, True):
            assert one.latency(a, b, data) == flat.latency(a, b, data)
        assert (one.block_transfer_energy(a, b)
                == flat.block_transfer_energy(a, b))

    @given(rings_with_stops(n=2))
    @settings(max_examples=100, deadline=None)
    def test_accounting_identical(self, case):
        """Same messages -> same stats, same ledger, no inter traffic."""
        ring, _topology, (a, b) = case
        ledgers = (EnergyLedger(), EnergyLedger())
        flat = RingInterconnect(ring, ledgers[0])
        one = ClusterInterconnect(ring, TopologyConfig(clusters=1),
                                  ledgers[1])
        for net in (flat, one):
            net.send_control(a, b)
            net.send_block(b, a)
            net.send_block(a, a)
        assert vars(one.stats) == vars(flat.stats)
        assert ledgers[1].pj == ledgers[0].pj
        assert one.topo_stats.inter_messages == 0
        assert one.topo_stats.inter_energy_pj == 0.0

    @given(st.integers(2, 6), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_multi_cluster_charges_more(self, clusters, spc):
        """With >=2 clusters some pair is strictly slower than flat — the
        topology is not a no-op beyond one cluster."""
        ring = RingConfig(stops=clusters * spc)
        flat = RingInterconnect(ring)
        multi = ClusterInterconnect(ring, TopologyConfig(clusters=clusters))
        pairs = [(a, b) for a in range(ring.stops) for b in range(ring.stops)]
        assert any(multi.latency(a, b, data=False)
                   > flat.latency(a, b, data=False) for a, b in pairs)


class TestRingDistance:
    @given(st.integers(1, 32), st.integers(0, 1000), st.integers(0, 1000))
    @settings(max_examples=200, deadline=None)
    def test_ring_distance_is_a_metric(self, stops, a, b):
        a, b = a % stops, b % stops
        assert ring_distance(a, b, stops) == ring_distance(b, a, stops)
        assert (ring_distance(a, b, stops) == 0) == (a == b)
        assert ring_distance(a, b, stops) <= stops // 2


class TestSlicedL3Partition:
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 512))
    @settings(max_examples=60, deadline=None)
    def test_page_interleave_partitions_address_space(
            self, clusters, cores_per_cluster, first_page):
        """``"page"`` interleaving: every page homes on exactly one slice,
        and any window of ``l3_slices`` consecutive pages covers every
        slice exactly once — no overlap, no gap."""
        config = multi_cluster(clusters, cores_per_cluster,
                               slice_interleave="page")
        hierarchy = CacheHierarchy(config, EnergyLedger())
        slices = config.l3_slices
        window = [hierarchy.home_slice(page * PAGE_SIZE, core=0)
                  for page in range(first_page, first_page + slices)]
        assert sorted(window) == list(range(slices))

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 64),
           st.integers(0, PAGE_SIZE - 1))
    @settings(max_examples=60, deadline=None)
    def test_home_is_page_granular_and_stable(
            self, clusters, cores_per_cluster, page, offset):
        """Every address of a page homes on that page's slice, from any
        core, and repeated lookups agree (no reassignment)."""
        config = multi_cluster(clusters, cores_per_cluster,
                               slice_interleave="page")
        hierarchy = CacheHierarchy(config, EnergyLedger())
        base = page * PAGE_SIZE
        home = hierarchy.home_slice(base, core=0)
        assert 0 <= home < config.l3_slices
        other_core = (config.cores - 1)
        assert hierarchy.home_slice(base + offset, core=other_core) == home
        assert hierarchy.home_slice(base, core=0) == home

    def test_first_touch_honours_explicit_placement(self):
        """``place_page`` pins a page's home before first touch — the
        NUMA lever ``repro bench streambw``'s hub placement uses."""
        config = multi_cluster(2, 2)
        hierarchy = CacheHierarchy(config, EnergyLedger())
        target = config.l3_slices - 1
        hierarchy.place_page(0, target)
        assert hierarchy.home_slice(0, core=0) == target


class TestTopologyConfigValidation:
    def test_defaults_are_flat(self):
        assert TopologyConfig().clusters == 1

    @pytest.mark.parametrize("kwargs", [
        {"clusters": 0},
        {"clusters": -1},
        {"inter_hop_latency": -1},
        {"inter_energy_per_hop_per_flit": -0.5},
        {"inter_link_width_bits": 100},
        {"slice_interleave": "striped"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            TopologyConfig(**kwargs)

    def test_machine_validates_cluster_divisibility(self):
        base = multi_cluster(2, 2)
        with pytest.raises(ConfigError):
            replace(base, topology=TopologyConfig(clusters=3))
