"""Property test: the exchange executor against a pure reference model.

The executor's semantic contract: after running pair sequence
``(g_1, f_1), ..., (g_k, f_k)``, the datum that started at location
address ``w`` sits at ``sigma_k(...sigma_1(w))``, where ``sigma_i``
complements bits ``g_i`` and ``f_i`` of every address where they differ.
Hypothesis drives random layouts and random (valid) pair sequences; the
reference computes the permutation abstractly on the address space, with
no networks, blocks or messages involved.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import DistributedMatrix, Layout, ProcField
from repro.machine import EnsembleNetwork, custom_machine
from repro.transpose.exchange import ExchangeExecutor


def reference_permutation(m: int, pairs: list[tuple[int, int]]) -> np.ndarray:
    """sigma[w] = final location of the datum that started at ``w``."""
    w = np.arange(1 << m, dtype=np.int64)
    for g, f in pairs:
        bg = (w >> g) & 1
        bf = (w >> f) & 1
        differ = bg != bf
        w = np.where(differ, w ^ (1 << g) ^ (1 << f), w)
    return w


@st.composite
def layout_and_pairs(draw):
    p = draw(st.integers(1, 3))
    q = draw(st.integers(1, 3))
    m = p + q
    n = draw(st.integers(0, min(m - 1, 3)))
    dims = tuple(draw(st.permutations(range(m)))[:n])
    layout = Layout(p, q, (ProcField(dims),) if dims else ())
    k = draw(st.integers(0, 5))
    pairs = []
    for _ in range(k):
        g = draw(st.integers(0, m - 1))
        f = draw(st.integers(0, m - 1))
        if g != f:
            pairs.append((g, f))
    return layout, pairs


@settings(max_examples=60, deadline=None)
@given(layout_and_pairs())
def test_executor_matches_abstract_permutation(case):
    layout, pairs = case
    m = layout.m
    # Data = the element's own address, so placement is self-describing.
    flat = np.arange(1 << m, dtype=np.float64)
    dm = DistributedMatrix.from_global(
        flat.reshape(1 << layout.p, 1 << layout.q), layout
    )
    net = EnsembleNetwork(custom_machine(layout.n))
    ex = ExchangeExecutor(net, dm)
    ex.run(pairs)
    result = ex.finish(layout)

    sigma = reference_permutation(m, pairs)
    # Datum w must sit at the (proc, offset) of location sigma[w].
    owners = layout.owner_array(sigma)
    offsets = layout.offset_array(sigma)
    for w in range(1 << m):
        assert result.local_data[owners[w], offsets[w]] == w


@settings(max_examples=40, deadline=None)
@given(layout_and_pairs())
def test_executor_leaves_network_clean(case):
    layout, pairs = case
    dm = DistributedMatrix.iota(layout)
    net = EnsembleNetwork(custom_machine(layout.n))
    ex = ExchangeExecutor(net, dm)
    ex.run(pairs)
    for x in range(net.params.num_procs):
        assert len(net.memory(x)) == 0
