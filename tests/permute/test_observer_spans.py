"""Observer span emission through the §7 permutation algorithms."""

import numpy as np

from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, custom_machine
from repro.obs import Instrumentation
from repro.permute.bit_reversal import bit_reversal_permute
from repro.permute.dimperm import apply_dimension_permutation
from repro.permute.general import arbitrary_node_permutation


def distributed(n: int):
    layout = pt.row_cyclic(3, 3, n)
    flat = np.arange(1 << layout.m, dtype=np.float64)
    return DistributedMatrix.from_global(flat.reshape(8, 8), layout)


class TestBitReversalSpans:
    def test_span_emitted_with_observer(self):
        hub = Instrumentation(phase_spans=False)
        net = EnsembleNetwork(custom_machine(2))
        bit_reversal_permute(net, distributed(2), observer=hub)
        names = [s.name for s in hub.spans]
        assert "bit-reversal" in names
        span = next(s for s in hub.spans if s.name == "bit-reversal")
        assert span.category == "algorithm"
        assert span.attrs["m"] == 6

    def test_no_observer_still_works(self):
        net = EnsembleNetwork(custom_machine(2))
        out = bit_reversal_permute(net, distributed(2))
        assert out is not None


class TestDimPermSpans:
    def test_rounds_become_child_spans(self):
        hub = Instrumentation(phase_spans=False)
        n = 3
        net = EnsembleNetwork(custom_machine(n))
        local = np.arange((1 << n) * 4, dtype=np.float64).reshape(1 << n, 4)
        apply_dimension_permutation(net, local, [1, 2, 0], observer=hub)
        by_name = {s.name: s for s in hub.spans}
        assert "dimension-permutation" in by_name
        outer = by_name["dimension-permutation"]
        assert outer.category == "algorithm"
        assert outer.attrs["n"] == n
        rounds = [s for s in hub.spans if s.name == "parallel-swapping"]
        assert rounds
        assert all(s.parent_id == outer.span_id for s in rounds)
        assert outer.attrs["rounds"] == len(rounds)


class TestGeneralPermutationSpans:
    def test_two_routing_rounds_become_child_spans(self):
        hub = Instrumentation(phase_spans=False)
        n = 2
        net = EnsembleNetwork(custom_machine(n))
        local = np.arange((1 << n) * 4, dtype=np.float64).reshape(1 << n, 4)
        pi = [(i + 1) % (1 << n) for i in range(1 << n)]
        arbitrary_node_permutation(net, local, pi, observer=hub)
        by_name = {s.name: s for s in hub.spans}
        assert "node-permutation" in by_name
        outer = by_name["node-permutation"]
        assert outer.attrs["nodes"] == 1 << n
        children = [
            s for s in hub.spans if s.name in ("scatter", "forward")
        ]
        assert {s.name for s in children} == {"scatter", "forward"}
        assert all(s.parent_id == outer.span_id for s in children)
