"""Fuzz the engine's phase accounting against an independent reference.

Hypothesis generates random valid phases (random cube size, random
neighbour messages, random machine constants); the phase duration is
recomputed here with a deliberately different formulation, and the two
must agree exactly.  This pins down the cost semantics the whole
benchmark suite rests on.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Block, EnsembleNetwork, Message, custom_machine
from repro.machine.params import PortModel


@st.composite
def random_phase(draw):
    n = draw(st.integers(1, 4))
    N = 1 << n
    tau = draw(st.floats(0, 10, allow_nan=False, allow_infinity=False))
    t_c = draw(st.floats(0, 5, allow_nan=False, allow_infinity=False))
    B_m = draw(st.integers(1, 64))
    port = draw(st.sampled_from([PortModel.ONE_PORT, PortModel.N_PORT]))
    pipelined = draw(st.booleans())
    count = draw(st.integers(1, 12))
    msgs = []
    for i in range(count):
        src = draw(st.integers(0, N - 1))
        dim = draw(st.integers(0, n - 1))
        size = draw(st.integers(1, 200))
        msgs.append((src, src ^ (1 << dim), size))
    return n, tau, t_c, B_m, port, pipelined, msgs


def reference_duration(params, msgs):
    """Independent recomputation of the phase-time rule."""

    def cost(size):
        packets = 1 if params.pipelined else math.ceil(size / params.packet_capacity)
        return packets * params.tau + size * params.t_c

    link = {}
    for src, dst, size in msgs:
        link[(src, dst)] = link.get((src, dst), 0.0) + cost(size)
    if params.port_model is PortModel.N_PORT:
        return max(link.values())
    send, recv = {}, {}
    for (src, dst), c in link.items():
        send[src] = send.get(src, 0.0) + c
        recv[dst] = recv.get(dst, 0.0) + c
    return max(list(send.values()) + list(recv.values()))


@settings(max_examples=150, deadline=None)
@given(random_phase())
def test_phase_duration_matches_reference(case):
    n, tau, t_c, B_m, port, pipelined, msgs = case
    params = custom_machine(
        n,
        tau=tau,
        t_c=t_c,
        packet_capacity=B_m,
        port_model=port,
        pipelined=pipelined,
    )
    net = EnsembleNetwork(params)
    messages = []
    for i, (src, dst, size) in enumerate(msgs):
        key = ("fz", i)
        net.place(src, Block(key, virtual_size=size))
        messages.append(Message(src, dst, (key,)))
    duration = net.execute_phase(messages)
    assert duration == pytest.approx(reference_duration(params, msgs))
    # Accounting invariants.
    assert net.stats.element_hops == sum(size for _, _, size in msgs)
    assert net.stats.messages == len(msgs)
    assert net.time == pytest.approx(duration)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    count=st.integers(1, 10),
)
def test_router_fuzz_always_delivers(n, seed, count):
    """Random multi-hop transfers always arrive, whatever the conflicts."""
    from repro.machine.routing import RoutedTransfer, route_messages

    rng = np.random.default_rng(seed)
    N = 1 << n
    net = EnsembleNetwork(custom_machine(n))
    transfers = []
    for i in range(count):
        src = int(rng.integers(0, N))
        dst = int(rng.integers(0, N))
        if dst == src:
            dst = src ^ 1
        key = ("fz", i)
        net.place(src, Block(key, virtual_size=int(rng.integers(1, 50))))
        transfers.append(RoutedTransfer(src, dst, (key,)))
    route_messages(net, transfers)
    for i, t in enumerate(transfers):
        assert ("fz", i) in net.memory(t.dst)
