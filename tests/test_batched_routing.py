"""Bit-identity tests for the per-batch flow entry points (schemes B/C).

The batched sweep path builds each member's :class:`SchemeB` from a
precomputed access vector and injects scheme C's attachments; these tests
pin the per-batch entry points against the serial classes and the masked
access-matrix oracle (``masked_matrix_oracle`` in
``tests/test_scheme_b_vector.py``) on real :class:`HybridNetwork`
realisations, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regimes import NetworkParameters
from repro.experiments.scaling import _payload_rate
from repro.geometry.neighbors import masked_nearest
from repro.geometry.torus import batched_pairwise_distances
from repro.infrastructure.backbone import Backbone, BackboneTopology
from repro.routing import (
    SchemeB,
    SchemeC,
    batched_scheme_c_attach,
    batched_zone_access,
    scheme_b_flow,
    zone_pair_sessions,
)
from repro.simulation.network import HybridNetwork
from repro.simulation.traffic import PermutationTraffic
from repro.store import TrialSeed
from tests.test_scheme_b_vector import masked_matrix_oracle

STRONG = NetworkParameters(
    alpha="1/4", cluster_exponent=1, bs_exponent="1/2", backbone_exponent=1
)
TRIVIAL_BS = NetworkParameters(
    alpha="3/4",
    cluster_exponent="1/2",
    cluster_radius_exponent="3/8",
    bs_exponent="3/4",
    backbone_exponent=1,
    validate=False,
)


def build_batch(params, n, batch, seed=123, **kwargs):
    return [
        HybridNetwork.build(params, n, TrialSeed(seed, b).rng(), **kwargs)
        for b in range(batch)
    ]


def member_access_args(nets):
    """``batched_zone_access`` arguments for a list of networks."""
    zones = [net.scheme_b_zones() for net in nets]
    return (
        [net.home_model.points for net in nets],
        [net.bs_positions for net in nets],
        [z[0] for z in zones],
        [z[1] for z in zones],
        nets[0].shape,
        nets[0].realized.f,
        [net.access_transmission_range() for net in nets],
    )


def member_oracles(args):
    homes, stations, ms_zones, bs_zones, shape, f, radii = args
    return [
        masked_matrix_oracle(*member[:4], shape, f, member[4])
        for member in zip(homes, stations, ms_zones, bs_zones, radii)
    ]


class TestBatchedZoneAccess:
    def test_slices_bit_identical_to_serial(self):
        args = member_access_args(build_batch(STRONG, 300, 4))
        access = batched_zone_access(*args)
        assert len(access) == 4
        for member, oracle in zip(access, member_oracles(args)):
            assert member.shape == (300,)
            assert np.array_equal(member, oracle)

    def test_ragged_bs_counts(self):
        """Members with different BS counts (and so different strong-regime
        ranges) each get their own per-trial vector."""
        homes, stations, ms_zones, bs_zones, shape, f, radii = (
            member_access_args(build_batch(STRONG, 200, 2, seed=3))
        )
        stations[1], bs_zones[1] = stations[1][:-3], bs_zones[1][:-3]
        radii[1] *= 1.5
        args = (homes, stations, ms_zones, bs_zones, shape, f, radii)
        access = batched_zone_access(*args)
        assert access[0].shape == access[1].shape == (200,)
        for member, oracle in zip(access, member_oracles(args)):
            assert np.array_equal(member, oracle)


class TestZonePairSessions:
    def manual_sessions(self, ms_zone, destination):
        sessions, intra = {}, 0
        for source in range(len(destination)):
            source_zone = int(ms_zone[source])
            dest_zone = int(ms_zone[destination[source]])
            if source_zone == dest_zone:
                intra += 1
                continue
            key = (source_zone, dest_zone)
            sessions[key] = sessions.get(key, 0) + 1
        return sessions, intra

    def test_matches_serial_loop_order_and_counts(self):
        for net in build_batch(STRONG, 200, 3, seed=5):
            ms_zone, _ = net.scheme_b_zones()
            destination = net.sample_traffic().destination
            got, got_intra = zone_pair_sessions(ms_zone, destination)
            want, want_intra = self.manual_sessions(ms_zone, destination)
            assert got == want
            assert list(got) == list(want)  # insertion order is bit-significant
            assert got_intra == want_intra

    def test_all_intra_zone(self):
        ms_zone = np.zeros(6, dtype=int)
        destination = np.array([1, 2, 3, 4, 5, 0])
        sessions, intra = zone_pair_sessions(ms_zone, destination)
        assert sessions == {}
        assert intra == 6

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        zones=st.integers(1, 6),
        n=st.integers(2, 48),
    )
    def test_property_matches_loop(self, seed, zones, n):
        rng = np.random.default_rng(seed)
        ms_zone = rng.integers(0, zones, size=n)
        destination = rng.permutation(n)
        got = zone_pair_sessions(ms_zone, destination)
        want = self.manual_sessions(ms_zone, destination)
        assert got[0] == want[0]
        assert list(got[0]) == list(want[0])
        assert got[1] == want[1]


class TestSchemeBFlow:
    def assert_same_flow(self, got, want):
        assert got.per_node_rate == want.per_node_rate
        assert got.bottleneck == want.bottleneck
        assert got.details == want.details

    def test_full_mesh_matches_serial(self):
        for net in build_batch(STRONG, 300, 4):
            ms_zone, bs_zone = net.scheme_b_zones()
            scheme = net.scheme_b()
            traffic = net.sample_traffic()
            got = scheme_b_flow(
                scheme.ms_access_capacity(), ms_zone, bs_zone, net.backbone, traffic
            )
            self.assert_same_flow(got, scheme.sustainable_rate(traffic))

    @pytest.mark.parametrize(
        "topology",
        [BackboneTopology.RING, BackboneTopology.STAR, BackboneTopology.GRID],
    )
    def test_sparse_backbones_match_serial(self, topology):
        # non-mesh spread_scale accumulates float loads in dict order, so
        # this is the test that pins the first-occurrence session ordering
        net = build_batch(STRONG, 260, 1, seed=31)[0]
        ms_zone, bs_zone = net.scheme_b_zones()
        backbone = Backbone(len(net.bs_positions), net.realized.c, topology)
        access = SchemeB.zone_access_vector(
            net.home_model.points,
            net.bs_positions,
            ms_zone,
            bs_zone,
            net.shape,
            net.realized.f,
            net.access_transmission_range(),
        )
        scheme = SchemeB(ms_zone, bs_zone, access, backbone)
        traffic = net.sample_traffic()
        got = scheme_b_flow(access, ms_zone, bs_zone, backbone, traffic)
        self.assert_same_flow(got, scheme.sustainable_rate(traffic))

    def test_zone_without_bs_is_zero(self):
        # zone 1 has sessions but no BS -> the "zone-without-bs" result,
        # whose details carry no generic rate: the sweep falls back to 0.0
        ms_zone = np.array([0, 0, 1, 1])
        bs_zone = np.zeros(2, dtype=int)
        backbone = Backbone(2, 1.0)
        access = np.ones(4)
        traffic = PermutationTraffic(np.array([2, 3, 0, 1]))
        got = scheme_b_flow(access, ms_zone, bs_zone, backbone, traffic)
        assert got.per_node_rate == 0.0
        assert got.bottleneck == "zone-without-bs"
        assert "generic_rate" not in got.details
        assert _payload_rate(got, generic=True) == 0.0


class TestBatchedSchemeCAttach:
    def test_injected_attach_reproduces_serial_flow(self):
        nets = build_batch(TRIVIAL_BS, 220, 3, seed=17, mobility="static")
        attach = batched_scheme_c_attach(
            [net.process.positions() for net in nets],
            [net.bs_positions for net in nets],
            [net.home_model.assignment for net in nets],
            [net._bs_cluster_assignment() for net in nets],
        )
        assert len(attach) == 3
        for b, net in enumerate(nets):
            serial = net.scheme_c()
            injected = SchemeC(
                ms_positions=net.process.positions(),
                bs_positions=net.bs_positions,
                ms_cluster=net.home_model.assignment,
                bs_cluster=net._bs_cluster_assignment(),
                backbone=net.backbone,
                delta=net.delta,
                attach=attach[b],
            )
            traffic = net.sample_traffic()
            want = serial.sustainable_rate(traffic)
            got = injected.sustainable_rate(traffic)
            assert got.per_node_rate == want.per_node_rate
            assert got.bottleneck == want.bottleneck
            assert got.details == want.details

    @pytest.mark.parametrize("sizes", [(150,), (120, 260)])
    def test_each_member_is_its_own_nearest_search(self, sizes):
        """A width-1 batch and members of different sizes (so different BS
        counts) each get exactly the per-trial nearest-BS search."""
        nets = [
            build_batch(TRIVIAL_BS, n, 1, seed=23 + n, mobility="static")[0]
            for n in sizes
        ]
        args = (
            [net.process.positions() for net in nets],
            [net.bs_positions for net in nets],
            [net.home_model.assignment for net in nets],
            [net._bs_cluster_assignment() for net in nets],
        )
        attach = batched_scheme_c_attach(*args)
        assert len(attach) == len(sizes)
        for got, member in zip(attach, zip(*args)):
            points, others, labels, other_labels = member
            cell, distance = masked_nearest(
                points, others, point_labels=labels,
                other_labels=other_labels,
            )
            assert np.array_equal(got[0], cell)
            assert np.array_equal(got[1], distance)

    def test_attach_length_validated(self, rng):
        nets = build_batch(TRIVIAL_BS, 80, 1, seed=19, mobility="static")
        net = nets[0]
        with pytest.raises(ValueError):
            SchemeC(
                ms_positions=net.process.positions(),
                bs_positions=net.bs_positions,
                ms_cluster=net.home_model.assignment,
                bs_cluster=net._bs_cluster_assignment(),
                backbone=net.backbone,
                delta=net.delta,
                attach=(np.zeros(3, dtype=int), np.zeros(3)),
            )


def pairwise_outputs(cast, **kwargs):
    points = np.random.default_rng(0).random((3, 8, 2))
    return [batched_pairwise_distances(cast(points), **kwargs)]


def masked_nearest_outputs(cast, **kwargs):
    rng = np.random.default_rng(1)
    points, others = rng.random((40, 2)), rng.random((7, 2))
    labels, other_labels = rng.integers(0, 2, size=40), rng.integers(0, 2, size=7)
    return list(
        masked_nearest(cast(points), cast(others), labels, other_labels, **kwargs)
    )


def zone_access_vector_outputs(cast, **kwargs):
    (home,), (stations,), (ms_zone,), (bs_zone,), shape, f, (radius,) = (
        member_access_args(build_batch(STRONG, 150, 1, seed=11))
    )
    return [
        SchemeB.zone_access_vector(
            cast(home), cast(stations), ms_zone, bs_zone, shape, f, radius,
            **kwargs,
        )
    ]


def zone_access_outputs(cast, **kwargs):
    homes, stations, *rest = member_access_args(build_batch(STRONG, 150, 2, seed=11))
    return batched_zone_access(
        [cast(home) for home in homes], [cast(bs) for bs in stations], *rest,
        **kwargs,
    )


def scheme_c_attach_outputs(cast, **kwargs):
    nets = build_batch(TRIVIAL_BS, 220, 2, seed=17, mobility="static")
    attach = batched_scheme_c_attach(
        [cast(net.process.positions()) for net in nets],
        [cast(net.bs_positions) for net in nets],
        [net.home_model.assignment for net in nets],
        [net._bs_cluster_assignment() for net in nets],
        **kwargs,
    )
    return [array for member in attach for array in member]


#: The distance and access kernels, each as ``(cast, **kwargs) -> arrays``
#: with ``cast`` applied to every coordinate array it is given.
FLOAT_KERNELS = {
    "batched_pairwise_distances": pairwise_outputs,
    "masked_nearest": masked_nearest_outputs,
    "zone_access_vector": zone_access_vector_outputs,
    "batched_zone_access": zone_access_outputs,
    "batched_scheme_c_attach": scheme_c_attach_outputs,
}


@pytest.mark.parametrize("kernel", FLOAT_KERNELS.values(), ids=FLOAT_KERNELS)
class TestFloat64Only:
    """The kernels compute in float64, the precision of every canonical
    digest: a ``dtype=`` argument is rejected, and float32 coordinates are
    widened before any arithmetic."""

    def test_takes_no_dtype(self, kernel):
        with pytest.raises(TypeError, match="dtype"):
            kernel(np.asarray, dtype=np.float32)

    def test_float32_coordinates_are_computed_in_float64(self, kernel):
        got = kernel(lambda x: np.asarray(x, dtype=np.float32))
        want = kernel(lambda x: np.asarray(x, dtype=np.float32).astype(np.float64))
        floats = [array.dtype for array in got if array.dtype.kind == "f"]
        assert floats and set(floats) == {np.dtype(np.float64)}
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)
