"""Tests for the interconnect topology models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DragonflyTopology,
    FatTreeTopology,
    IslandTopology,
    SingleSwitchTopology,
    Torus3DTopology,
    topology_from_spec,
)
from repro.engine.metrics import _node_weight_matrix
from repro.exceptions import ReproError
from repro.hardware.topology import Topology

#: Every topology kind in its wire form; the last three add non-cubic
#: tori (open and periodic) and a larger dragonfly with 4:1 global links.
SPECS = [
    ("single_switch", (6,)),
    ("fat_tree", (8, 4, 2.0)),
    ("island", (10, 5, 4.0)),
    ("torus3d", ((2, 3, 2), True)),
    ("torus3d", ((2, 2, 2), False)),
    ("dragonfly", (2, 2, 2, 2.0)),
    ("torus3d", ((3, 4, 5), False)),
    ("torus3d", ((4, 2, 3), True)),
    ("dragonfly", (3, 2, 3, 4.0)),
]


def reference_weight_matrix(topology, contention, num_nodes):
    """The per-pair scalar loop the array build replaces."""
    fraction = topology.uplink_capacity_fraction()
    weights = np.empty((num_nodes, num_nodes), dtype=np.float64)
    for a in range(num_nodes):
        leaf_a = topology.leaf_of(a)
        for b in range(num_nodes):
            cost = float(topology.hop_distance(a, b))
            if contention and leaf_a != topology.leaf_of(b):
                cost /= fraction
            weights[a, b] = cost
    return weights


class TestSingleSwitch:
    def test_distances(self):
        t = SingleSwitchTopology(4)
        assert t.hop_distance(0, 0) == 0
        assert t.hop_distance(0, 3) == 1

    def test_single_leaf(self):
        t = SingleSwitchTopology(4)
        assert {t.leaf_of(i) for i in range(4)} == {0}
        assert t.uplink_capacity_fraction() == 1.0

    def test_bounds(self):
        t = SingleSwitchTopology(4)
        with pytest.raises(ReproError):
            t.hop_distance(0, 4)
        with pytest.raises(ReproError):
            SingleSwitchTopology(0)


class TestFatTree:
    def test_leaf_grouping(self):
        t = FatTreeTopology(10, nodes_per_switch=4, blocking_factor=2.0)
        assert t.leaf_of(0) == 0
        assert t.leaf_of(3) == 0
        assert t.leaf_of(4) == 1
        assert t.leaf_of(9) == 2

    def test_distances(self):
        t = FatTreeTopology(8, nodes_per_switch=4)
        assert t.hop_distance(0, 1) == 1   # same leaf
        assert t.hop_distance(0, 5) == 3   # across the core
        assert t.hop_distance(2, 2) == 0

    def test_blocking_fraction(self):
        t = FatTreeTopology(8, nodes_per_switch=4, blocking_factor=2.0)
        assert t.uplink_capacity_fraction() == 0.5

    def test_validation(self):
        with pytest.raises(ReproError):
            FatTreeTopology(8, nodes_per_switch=0)
        with pytest.raises(ReproError):
            FatTreeTopology(8, blocking_factor=0.5)

    def test_networkx_export(self):
        g = FatTreeTopology(8, nodes_per_switch=4).to_networkx()
        switches = [n for n, d in g.nodes(data=True) if d.get("kind") == "switch"]
        nodes = [n for n, d in g.nodes(data=True) if d.get("kind") == "node"]
        assert len(nodes) == 8
        assert len(switches) == 3  # core + 2 leaves


class TestIsland:
    def test_grouping_and_distance(self):
        t = IslandTopology(10, nodes_per_island=4, pruning_factor=4.0)
        assert t.leaf_of(3) == 0 and t.leaf_of(4) == 1
        assert t.hop_distance(0, 1) == 3
        assert t.hop_distance(0, 9) == 5

    def test_pruning_fraction(self):
        t = IslandTopology(10, nodes_per_island=4, pruning_factor=4.0)
        assert t.uplink_capacity_fraction() == 0.25

    def test_validation(self):
        with pytest.raises(ReproError):
            IslandTopology(4, nodes_per_island=-1)
        with pytest.raises(ReproError):
            IslandTopology(4, pruning_factor=0.0)


class TestTorus3D:
    def test_coordinates_row_major(self):
        t = Torus3DTopology((2, 3, 4))
        assert t.num_nodes == 24
        assert t.coordinates(0) == (0, 0, 0)
        assert t.coordinates(1) == (0, 0, 1)     # z fastest
        assert t.coordinates(4) == (0, 1, 0)
        assert t.coordinates(12) == (1, 0, 0)

    def test_manhattan_distance(self):
        t = Torus3DTopology((4, 4, 4), periodic=False)
        assert t.hop_distance(0, 0) == 0
        assert t.hop_distance(0, 1) == 1         # one z step
        # (0,0,0) -> (3,3,3): 3 + 3 + 3 on the open mesh
        assert t.hop_distance(0, t.num_nodes - 1) == 9

    def test_periodic_wraparound(self):
        torus = Torus3DTopology((4, 4, 4), periodic=True)
        mesh = Torus3DTopology((4, 4, 4), periodic=False)
        # (0,0,0) -> (3,3,3) wraps each axis in a single hop
        assert torus.hop_distance(0, torus.num_nodes - 1) == 3
        assert mesh.hop_distance(0, 63) == 9
        assert torus.hop_distance(0, 2) == 2     # interior pairs agree
        assert mesh.hop_distance(0, 2) == 2

    def test_symmetry(self):
        t = Torus3DTopology((3, 2, 2))
        for a in range(t.num_nodes):
            for b in range(t.num_nodes):
                assert t.hop_distance(a, b) == t.hop_distance(b, a)

    def test_every_node_its_own_leaf(self):
        t = Torus3DTopology((2, 2, 2))
        assert [t.leaf_of(i) for i in range(8)] == list(range(8))
        assert t.uplink_capacity_fraction() == 1.0

    def test_validation(self):
        with pytest.raises(ReproError):
            Torus3DTopology((2, 2))
        with pytest.raises(ReproError):
            Torus3DTopology((2, 0, 2))
        with pytest.raises(ReproError):
            Torus3DTopology((2, 2, 2)).hop_distance(0, 8)


class TestDragonfly:
    def test_hop_tiers(self):
        t = DragonflyTopology(2, routers_per_group=2, nodes_per_router=2)
        assert t.num_nodes == 8
        assert t.hop_distance(0, 0) == 0
        assert t.hop_distance(0, 1) == 1   # same router
        assert t.hop_distance(0, 2) == 2   # same group, other router
        assert t.hop_distance(0, 4) == 3   # across groups

    def test_leaf_is_router(self):
        t = DragonflyTopology(2, routers_per_group=2, nodes_per_router=2)
        assert [t.leaf_of(i) for i in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]
        assert t.group_of(3) == 0 and t.group_of(4) == 1

    def test_global_link_tapering(self):
        t = DragonflyTopology(4, global_link_ratio=2.0)
        assert t.uplink_capacity_fraction() == 0.5

    def test_validation(self):
        with pytest.raises(ReproError):
            DragonflyTopology(0)
        with pytest.raises(ReproError):
            DragonflyTopology(2, nodes_per_router=0)
        with pytest.raises(ReproError):
            DragonflyTopology(2, global_link_ratio=0.5)


class TestTopologyFromSpec:
    """The wire format topology_cut_metric uses must round-trip."""

    @pytest.mark.parametrize("kind,params", SPECS)
    def test_round_trip_distances(self, kind, params):
        t = topology_from_spec(kind, params)
        again = topology_from_spec(kind, params)
        n = t.num_nodes
        assert again.num_nodes == n
        for a in range(min(n, 6)):
            for b in range(min(n, 6)):
                assert t.hop_distance(a, b) == again.hop_distance(a, b)
        assert t.uplink_capacity_fraction() == again.uplink_capacity_fraction()

    def test_unknown_kind(self):
        with pytest.raises(ReproError, match="unknown topology kind"):
            topology_from_spec("moebius", (4,))

    def test_torus_needs_dims(self):
        with pytest.raises(ReproError, match="torus3d spec"):
            topology_from_spec("torus3d", ())

    @pytest.mark.parametrize("contention", [False, True])
    @pytest.mark.parametrize("kind,params", SPECS)
    def test_weight_matrix_matches_scalar_loop(self, kind, params, contention):
        t = topology_from_spec(kind, params)
        n = t.num_nodes
        built = _node_weight_matrix.__wrapped__(kind, params, contention, n)
        expected = reference_weight_matrix(t, contention, n)
        assert built.dtype == np.float64 and built.shape == (n, n)
        assert built.tobytes() == expected.tobytes()
        # a smaller allocation gets exactly the leading block
        block = _node_weight_matrix.__wrapped__(kind, params, contention, n - 1)
        assert block.tobytes() == expected[: n - 1, : n - 1].copy().tobytes()

    @pytest.mark.parametrize("kind,params", SPECS)
    def test_scalar_calls_return_int(self, kind, params):
        t = topology_from_spec(kind, params)
        last = t.num_nodes - 1
        for a, b in ((0, 0), (0, last), (np.int64(last), np.int32(0))):
            assert type(t.hop_distance(a, b)) is int
            assert type(t.leaf_of(a)) is int

    @pytest.mark.parametrize("kind,params", SPECS)
    def test_out_of_range_array_raises(self, kind, params):
        t = topology_from_spec(kind, params)
        n = t.num_nodes
        for bad in (np.array([0, n]), np.array([[-1], [0]])):
            with pytest.raises(ReproError, match="node must be in"):
                t.hop_distance(bad, np.arange(n))
            with pytest.raises(ReproError, match="node must be in"):
                t.hop_distance(np.arange(n), bad)
            with pytest.raises(ReproError, match="node must be in"):
                t.leaf_of(bad)
        with pytest.raises(TypeError):
            t.leaf_of(np.array([0.0, 1.0]))

    def test_matrix_build_checks_nodes_once_per_call(self, monkeypatch):
        """A deterministic stand-in for a timing gate: the number of
        bounds checks is fixed, not one per node pair."""
        calls = []
        check = Topology._check_node

        def counting(self, node):
            calls.append(node)
            return check(self, node)

        monkeypatch.setattr(Topology, "_check_node", counting)
        counts = []
        for dims in ((2, 2, 2), (10, 10, 10)):
            calls.clear()
            n = dims[0] * dims[1] * dims[2]
            _node_weight_matrix.__wrapped__("torus3d", (dims, True), True, n)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 4


@st.composite
def topology_and_nodes(draw):
    kind, params = draw(st.sampled_from(SPECS))
    t = topology_from_spec(kind, params)
    node_arrays = st.lists(
        st.integers(0, t.num_nodes - 1), min_size=1, max_size=12
    ).map(np.array)
    return t, draw(node_arrays), draw(node_arrays)


@given(topology_and_nodes())
@settings(max_examples=60, deadline=None)
def test_array_calls_match_scalar_calls(case):
    t, a, b = case
    hops = t.hop_distance(a[:, None], b[None, :])
    assert hops.shape == (len(a), len(b))
    assert hops.tolist() == [[t.hop_distance(int(x), int(y)) for y in b] for x in a]
    assert t.leaf_of(a).tolist() == [t.leaf_of(int(x)) for x in a]
