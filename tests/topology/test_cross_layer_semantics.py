"""Topology threading through faults, plans, recovery, chaos, serving."""

import pytest

from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, FaultPlan
from repro.machine.presets import connection_machine
from repro.plans import plan_key
from repro.plans.batch import BatchRequest, run_batch
from repro.plans.cache import PlanCache
from repro.plans.ir import PlanError
from repro.plans.recorder import capture_transpose, synthetic_matrix
from repro.plans.replay import PlanReplayError, replay_degraded, replay_plan
from repro.recovery import RecoveryPolicy, run_chaos
from repro.topology import parse_topology, supported_algorithms
from repro.topology.capabilities import CUBE_ALGORITHMS

N = 4
LAYOUT = pt.two_dim_cyclic(4, 4, 2, 2)


class TestFaultSpecNaming:
    def test_non_link_token_names_itself(self):
        topo = parse_topology("dragonfly:2,4", N)
        bad = next(
            (s, d)
            for s in range(topo.num_nodes)
            for d in range(topo.num_nodes)
            if s != d and not topo.has_link(s, d)
        )
        spec = f"links={bad[0]}-{bad[1]}"
        with pytest.raises(
            ValueError,
            match=r"token.*not a link of dragonfly:2,4",
        ):
            FaultPlan.from_spec(N, spec, topology=topo)

    def test_out_of_range_node_names_the_topology(self):
        topo = parse_topology("torus:4x4", N)
        with pytest.raises(ValueError, match="outside torus:4x4"):
            FaultPlan.from_spec(N, "nodes=99", topology=topo)

    def test_torus_native_link_is_accepted_where_cube_rejects(self):
        # (0, 3) wraps the first torus ring but is not a cube edge.
        topo = parse_topology("torus:4x4", N)
        plan = FaultPlan.from_spec(N, "links=0-3", topology=topo)
        assert len(plan.link_faults) == 1
        with pytest.raises(ValueError, match="not a cube edge"):
            FaultPlan.from_spec(N, "links=0-3")

    def test_engine_rejects_plan_for_other_topology(self):
        topo = parse_topology("torus:4x4", N)
        plan = FaultPlan.from_spec(N, "links=0-3", topology=topo)
        with pytest.raises(ValueError, match="interconnect"):
            EnsembleNetwork(connection_machine(N), faults=plan)


class TestCapabilities:
    def test_cube_keeps_full_ladder(self):
        assert supported_algorithms(None) == CUBE_ALGORITHMS
        assert (
            supported_algorithms(parse_topology("cube", N))
            == CUBE_ALGORITHMS
        )

    def test_non_cube_floor_is_routed_universal(self):
        for spec in ("torus:4x4", "mesh:4x4", "dragonfly:2,4"):
            assert supported_algorithms(parse_topology(spec, N)) == (
                "routed-universal",
            )

    def test_unknown_algorithm_still_rejected_off_cube(self):
        topo = parse_topology("torus:4x4", N)
        with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
            replay_degraded(
                connection_machine(N),
                LAYOUT,
                faults=FaultPlan.from_spec(N, "seed=0", topology=topo),
                algorithm="bogus",
                topology=topo,
            )


class TestPlansAndReplay:
    def test_replay_rejects_topology_mismatch(self):
        topo = parse_topology("torus:4x4", N)
        params = connection_machine(N)
        _, plan = capture_transpose(
            params, synthetic_matrix(LAYOUT), LAYOUT, topology=topo
        )
        assert plan.machine.topology == "torus:4x4"
        cube_net = EnsembleNetwork(params)
        with pytest.raises(PlanReplayError, match="torus:4x4"):
            replay_plan(plan, cube_net)
        replay_plan(plan, EnsembleNetwork(params, topology=topo))

    def test_relabeling_is_cube_only(self):
        topo = parse_topology("torus:4x4", N)
        _, plan = capture_transpose(
            connection_machine(N),
            synthetic_matrix(LAYOUT),
            LAYOUT,
            topology=topo,
        )
        with pytest.raises(PlanError, match="cube automorphism"):
            plan.relabeled(3)

    def test_recovery_is_cube_only(self):
        with pytest.raises(ValueError, match="recovery"):
            replay_degraded(
                connection_machine(N),
                LAYOUT,
                faults=FaultPlan.from_spec(
                    N, "links=0-1", topology=parse_topology("torus:4x4", N)
                ),
                recovery=RecoveryPolicy(),
                topology="torus:4x4",
            )

    def test_requested_cube_tier_degrades_to_floor(self):
        topo = parse_topology("dragonfly:2,4", N)
        outcome = replay_degraded(
            connection_machine(N),
            LAYOUT,
            faults=FaultPlan.from_spec(N, "seed=0", topology=topo),
            algorithm="mpt",
            topology=topo,
        )
        assert outcome.algorithm == "routed-universal"
        assert outcome.requested == "mpt"
        assert "mpt" in outcome.skipped

    def test_batch_caches_per_topology(self):
        cache = PlanCache()
        requests = [
            BatchRequest(elements=256, n=N),
            BatchRequest(elements=256, n=N, topology="cube"),
            BatchRequest(elements=256, n=N, topology="dragonfly:2,4"),
        ]
        report = run_batch(requests, cache=cache)
        keys = [o.key for o in report.outcomes]
        assert keys[0] == keys[1] != keys[2]
        # Second pass: everything replays out of the cache.
        again = run_batch(requests, cache=cache)
        assert all(o.cache_hit for o in again.outcomes)

    def test_batch_rejects_node_count_mismatch(self):
        with pytest.raises(ValueError, match="2\\^6"):
            run_batch(
                [BatchRequest(elements=4096, n=6, topology="dragonfly:2,4")],
                cache=PlanCache(),
            )

    def test_plan_key_separates_topologies(self):
        params = connection_machine(N)
        keys = {
            plan_key(params, LAYOUT, LAYOUT, "routed-universal", topology=t)
            for t in ("cube", "torus:4x4", "mesh:4x4", "dragonfly:2,4")
        }
        assert len(keys) == 4


class TestChaosGating:
    def test_non_cube_chaos_soaks_live(self):
        # Regression for the survivor-graph routing fallback: at this
        # link rate several seeds wall off every minimal dragonfly hop
        # and exhaust the misroute budget; pre-fallback the router
        # raised RoutingStalledError on connected survivors.
        report = run_chaos(
            n=N,
            elements=256,
            seeds=6,
            modes=("live",),
            link_rate=0.05,
            topology="dragonfly:2,4",
        )
        assert report.ok
        assert report.topology == "dragonfly:2,4"

    def test_non_cube_rejects_recovery_modes(self):
        with pytest.raises(ValueError, match="modes=\\('live',\\)"):
            run_chaos(
                n=N,
                elements=256,
                seeds=1,
                modes=("replay", "live"),
                topology="torus:4x4",
            )
