"""Table 3: estimated communication time for some-to-all personalized
communication — simulated versus closed form.

Sweeps the split/all-to-all mix (k, l) on a 4-cube and compares the
simulator's time for the Theorem-1-ordered algorithm against Table 3's
one-port estimate, plus the ordering ablation (split-first vs
all-to-all-first).
"""

import numpy as np
import pytest

from benchmarks.reporting import emit_table
from repro.analysis.models import some_to_all_time
from repro.comm.all_to_some import some_to_all_scatter
from repro.machine import Block, EnsembleNetwork, custom_machine

N_CUBE = 4
ELEMENTS = 8  # per (source, destination) pair


def load(net, split_dims):
    N = 1 << N_CUBE
    split_mask = sum(1 << d for d in split_dims)
    for src in (x for x in range(N) if not x & split_mask):
        for dst in range(N):
            if dst != src:
                net.place(src, Block(("s", src, dst), data=np.full(ELEMENTS, dst)))


def run_case(k: int, l: int, split_first: bool) -> float:
    params = custom_machine(N_CUBE, tau=3.0, t_c=1.0)
    net = EnsembleNetwork(params)
    split_dims = list(range(N_CUBE - 1, N_CUBE - 1 - k, -1))
    a2a_dims = list(range(l))
    load(net, split_dims)
    some_to_all_scatter(net, split_dims, a2a_dims, split_first=split_first)
    return net.time


def sweep():
    params = custom_machine(N_CUBE, tau=3.0, t_c=1.0)
    N = 1 << N_CUBE
    rows = []
    for k in range(N_CUBE + 1):
        l = N_CUBE - k
        # Total data volume if every node were a source: Table 3 is
        # normalized to M = total elements spread over the cube.
        M = N * N * ELEMENTS * (1 << l) // N  # 2^l sources x N dests x E
        good = run_case(k, l, True)
        bad = run_case(k, l, False)
        model = some_to_all_time(params, M, k, l)
        rows.append([k, l, good, bad, model, good / model])
    return rows


def test_table3_some_to_all(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "table3_some_to_all",
        "Table 3: some-to-all, simulated (Theorem 1 order and reversed) "
        "vs closed form (abstract time units)",
        ["k", "l", "sim(split-first)", "sim(reversed)", "model", "sim/model"],
        rows,
        notes="Theorem 1: splitting first never loses; the model tracks "
        "the simulation within a small factor across the whole k/l mix.",
    )
    for r in rows:
        k, l, good, bad, model, ratio = r
        assert good <= bad * 1.0001
        assert 0.4 <= ratio <= 2.5, r
    # Monotonic sanity: pure all-to-all (k=0) costs more transfer than
    # pure one-to-all splitting of the same normalized volume.
    assert rows[0][2] != pytest.approx(rows[-1][2])
