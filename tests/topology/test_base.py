"""The Topology protocol: parsing, invariants, typed errors."""

import pytest

from repro.machine import EnsembleNetwork
from repro.machine.presets import connection_machine
from repro.topology import (
    Hypercube,
    SwappedDragonfly,
    Topology,
    TopologyError,
    TorusMesh,
    parse_topology,
)


class TestParseTopology:
    def test_default_is_hypercube(self):
        for spec in (None, "", "cube"):
            topo = parse_topology(spec, 4)
            assert isinstance(topo, Hypercube)
            assert topo.num_nodes == 16

    def test_cube_with_explicit_dimension(self):
        assert parse_topology("cube:3", 6).num_nodes == 8

    def test_torus_and_mesh(self):
        torus = parse_topology("torus:4x4x4", 6)
        assert isinstance(torus, TorusMesh)
        assert torus.wrap and torus.num_nodes == 64
        mesh = parse_topology("mesh:8x8", 6)
        assert not mesh.wrap and mesh.num_nodes == 64

    def test_dragonfly(self):
        topo = parse_topology("dragonfly:2,4", 4)
        assert isinstance(topo, SwappedDragonfly)
        assert topo.num_nodes == 16

    def test_instance_passes_through(self):
        topo = TorusMesh((4, 4))
        assert parse_topology(topo, 4) is topo

    @pytest.mark.parametrize(
        "spec",
        ["blorp:4", "torus:", "torus:4xq", "dragonfly:2", "dragonfly:a,b",
         "cube:x"],
    )
    def test_malformed_specs_name_the_spec(self, spec):
        with pytest.raises(TopologyError, match="topology"):
            parse_topology(spec, 4)

    def test_topology_error_is_value_error(self):
        assert issubclass(TopologyError, ValueError)


class _Broken(Topology):
    """Configurable bad topology for exercising validate()."""

    claims_regular = False
    claims_symmetric = False

    def __init__(self, adjacency, **claims):
        self._adj = adjacency
        self.num_nodes = len(adjacency)
        self.name = "broken"
        self.spec = f"broken:{id(self)}"  # defeat the validation memo
        for key, value in claims.items():
            setattr(self, key, value)

    def neighbors(self, x):
        return tuple(self._adj[x])


class TestValidate:
    def test_out_of_range_neighbour(self):
        with pytest.raises(TopologyError, match="out-of-range"):
            _Broken([(1,), (5,)]).validate()

    def test_self_loop(self):
        with pytest.raises(TopologyError, match="itself"):
            _Broken([(0, 1), (0,)]).validate()

    def test_duplicate_neighbour(self):
        with pytest.raises(TopologyError, match="duplicate"):
            _Broken([(1, 1), (0,)]).validate()

    def test_claimed_symmetry_enforced(self):
        adj = [(1,), (2,), (0,)]  # a directed 3-ring
        with pytest.raises(TopologyError, match="symmetry"):
            _Broken(adj, claims_symmetric=True).validate()
        _Broken(adj).validate()  # honest about asymmetry: fine

    def test_claimed_regularity_enforced(self):
        adj = [(1, 2), (0,), (0,)]
        with pytest.raises(TopologyError, match="regular"):
            _Broken(adj, claims_regular=True).validate()
        _Broken(adj).validate()

    def test_disconnected(self):
        with pytest.raises(TopologyError, match="not connected"):
            _Broken([(1,), (0,), (3,), (2,)]).validate()

    def test_shipped_instances_validate(self):
        for topo in (
            Hypercube(4),
            TorusMesh((4, 4, 4)),
            TorusMesh((4, 4), wrap=False),
            SwappedDragonfly(2, 4),
        ):
            topo.validate()

    def test_network_construction_runs_validate(self):
        with pytest.raises(TopologyError, match="itself"):
            EnsembleNetwork(
                connection_machine(1), topology=_Broken([(0, 1), (0,)])
            )

    def test_network_rejects_node_count_mismatch(self):
        with pytest.raises(ValueError, match="16 node"):
            EnsembleNetwork(connection_machine(6), topology=Hypercube(4))


class TestGraphSurface:
    def test_hypercube_canonical_link_stream(self):
        n = 3
        topo = Hypercube(n)
        historical = [
            (x, x ^ (1 << d)) for x in range(1 << n) for d in range(n)
        ]
        assert list(topo.directed_links()) == historical

    def test_check_node_and_link_errors(self):
        topo = TorusMesh((4, 4))
        with pytest.raises(TopologyError, match="valid ids"):
            topo.check_node(16)
        with pytest.raises(TopologyError, match="not neighbours"):
            topo.check_link(0, 2)
        topo.check_link(0, 1)

    def test_minimal_hops_decrease_distance(self):
        for topo in (TorusMesh((4, 4)), SwappedDragonfly(2, 4)):
            for cur in range(topo.num_nodes):
                for dst in (0, topo.num_nodes - 1):
                    here = topo.distance(cur, dst)
                    hops = topo.minimal_hops(cur, dst)
                    assert (hops == []) == (cur == dst)
                    for nxt in hops:
                        assert topo.distance(nxt, dst) == here - 1

    def test_minimal_hops_order_is_deterministic(self):
        topo = SwappedDragonfly(2, 8)
        assert topo.minimal_hops(0, 37) == topo.minimal_hops(0, 37)

    def test_descending_reverses_candidates(self):
        topo = Hypercube(4)
        up = topo.minimal_hops(0, 0b1111)
        down = topo.minimal_hops(0, 0b1111, ascending=False)
        assert down == list(reversed(up))
