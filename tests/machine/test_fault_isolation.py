"""Regression: fault state must be isolated between concurrent machines.

A ``FaultPlan`` is a frozen dataclass, but every instance carries
per-instance lookup indexes (``_links_by_edge`` / ``_nodes_by_id`` —
plain dicts of lists built in ``__post_init__``).  A serving pool that
attached one parsed plan to many machines would share those containers
across worker threads.  :meth:`FaultPlan.fork` exists so each machine
gets an equal-by-value but storage-disjoint copy; these tests pin the
disjointness and the bit-identity of concurrent faulted runs against
solo runs of the same spec.
"""

import threading

from repro.machine import EnsembleNetwork
from repro.machine.faults import FaultPlan
from repro.machine.presets import connection_machine
from repro.plans.batch import resolve_problem
from repro.plans.recorder import synthetic_matrix
from repro.transpose.planner import transpose

SPEC = "seed=3,link_rate=0.05,transient_rate=0.6,window=4"


def _faulted_run(plan: FaultPlan, algorithm: str = "mpt") -> dict:
    params = connection_machine(4)
    before, after = resolve_problem(4, 256, "2d")
    net = EnsembleNetwork(params, faults=plan)
    result = transpose(net, synthetic_matrix(before), after, algorithm=algorithm)
    doc = result.stats.as_dict()
    doc["algorithm"] = result.algorithm
    doc["fallbacks"] = list(result.fallbacks)
    return doc


class TestFork:
    def test_fork_equal_by_value_disjoint_in_storage(self):
        plan = FaultPlan.from_spec(4, SPEC)
        copy = plan.fork()
        assert copy == plan
        assert copy is not plan
        assert copy._links_by_edge is not plan._links_by_edge
        assert copy._nodes_by_id is not plan._nodes_by_id
        for edge, faults in plan._links_by_edge.items():
            assert copy._links_by_edge[edge] is not faults
        for node, faults in plan._nodes_by_id.items():
            assert copy._nodes_by_id[node] is not faults

    def test_fork_of_empty_plan(self):
        plan = FaultPlan(3)
        assert plan.fork() == plan
        assert plan.fork().is_empty


class TestConcurrentIsolation:
    def test_concurrent_faulted_runs_bit_identical_to_solo(self):
        parsed = FaultPlan.from_spec(4, SPEC)
        solo = _faulted_run(parsed.fork())

        threads_n = 6
        results = {}
        errors = []
        barrier = threading.Barrier(threads_n)

        def worker(tid):
            try:
                barrier.wait()
                results[tid] = _faulted_run(parsed.fork())
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        assert len(results) == threads_n
        for doc in results.values():
            assert doc == solo
