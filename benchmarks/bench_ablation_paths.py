"""Ablation: path multiplicity and packet size in the 2D transpose.

Sweeps SPT (1 path), DPT (2 paths) and MPT (2H paths) across packet
sizes on an n-port machine, quantifying the trade the paper analyzes in
§6.1: more paths buy transfer bandwidth; smaller packets buy pipelining
at a start-up cost.
"""

import numpy as np

from benchmarks.reporting import emit_table
from repro.analysis.models import dpt_time, spt_optimal_packet, spt_time
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, custom_machine
from repro.machine.params import PortModel
from repro.transpose.two_dim import (
    two_dim_transpose_dpt,
    two_dim_transpose_mpt,
    two_dim_transpose_spt,
)

N_CUBE = 4
BITS = 14
TAU, T_C = 8.0, 1.0
PACKETS = [16, 64, 256, None]  # None = whole-block (step-by-step)


def setup():
    half = N_CUBE // 2
    p = BITS // 2
    layout = pt.two_dim_cyclic(p, BITS - p, half, half)
    dm = DistributedMatrix.from_global(
        np.zeros((1 << p, 1 << (BITS - p))), layout
    )
    return layout, dm


def machine():
    return custom_machine(N_CUBE, tau=TAU, t_c=T_C, port_model=PortModel.N_PORT)


def sweep():
    layout, dm = setup()
    rows = []
    for B in PACKETS:
        label = "whole" if B is None else B
        spt_net = EnsembleNetwork(machine())
        two_dim_transpose_spt(spt_net, dm, layout, packet_size=B)
        dpt_net = EnsembleNetwork(machine())
        two_dim_transpose_dpt(dpt_net, dm, layout, packet_size=B)
        rows.append([label, spt_net.time, dpt_net.time])
    for k in (1, 2, 4):
        mpt_net = EnsembleNetwork(machine())
        two_dim_transpose_mpt(mpt_net, dm, layout, rounds=k)
        rows.append([f"mpt k={k}", mpt_net.time, ""])
    return rows


def test_ablation_paths(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "ablation_paths",
        f"Ablation: SPT/DPT packet sizes and MPT rounds, 2^{BITS} elements "
        f"on a {N_CUBE}-cube (abstract units)",
        ["packet/rounds", "SPT", "DPT"],
        rows,
        notes="DPT halves SPT's transfer term at every packet size; MPT "
        "needs only ~n+1 start-ups for the same bandwidth.",
    )
    spt_by = {r[0]: r[1] for r in rows if r[2] != ""}
    dpt_by = {r[0]: r[2] for r in rows if r[2] != ""}
    # DPT beats SPT at every packet size (two paths, half the volume each).
    for key in spt_by:
        assert dpt_by[key] < spt_by[key]
    # The analytic optimum packet beats both extremes for SPT.
    params = machine()
    M = 1 << BITS
    b_opt = max(1, round(spt_optimal_packet(params, M)))
    assert spt_time(params, M, b_opt) <= spt_time(params, M, 16)
    assert spt_time(params, M, b_opt) <= spt_time(params, M, M // (1 << N_CUBE))
    # DPT model agrees in ordering too.
    assert dpt_time(params, M, b_opt) < spt_time(params, M, b_opt)
