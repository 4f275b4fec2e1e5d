"""Cross-topology transpose: one problem, three interconnects.

The topology subsystem's headline claim is that the same schedule IR,
cost model and invariant checks serve a Boolean cube, a k-ary torus and
a swapped dragonfly.  This bench runs identical problem sizes with
identical cost constants (``custom_machine`` so ``tau``/``t_c`` match
exactly) on three 64-node interconnects — ``cube`` (n=6),
``torus:4x4x4`` and ``dragonfly:2,8`` — and reports the modelled
cycles, element-hops and peak-link load side by side, plus one
per-topology link-element heatmap.

The cube runs its full planner ladder (``auto`` picks MPT here); the
non-cube topologies run the routed-universal floor.  Every run verifies
against the mathematical transpose, so the numbers compare *correct*
transposes only.

Also runnable standalone for CI artifacts::

    python -m benchmarks.bench_cross_topology --elements 4096 --out DIR

which writes ``cross_topology.txt``/``.csv`` plus one
``heatmap_<topology>.txt`` per interconnect into ``DIR``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from benchmarks.reporting import emit_table, ms
from repro.analysis.report import format_link_heatmap, format_topology_heatmap
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork
from repro.machine.params import PortModel
from repro.machine.presets import custom_machine
from repro.topology import parse_topology
from repro.transpose import transpose

N = 6  # 64 nodes on every topology
TOPOLOGIES = ("cube", "torus:4x4x4", "dragonfly:2,8")
ELEMENT_SWEEP = (1 << 10, 1 << 12, 1 << 14)


def _machine():
    """One shared cost model: unit start-up, unit transfer, n-port."""
    return custom_machine(N, tau=1.0, t_c=1.0, port_model=PortModel.N_PORT)


def _problem(elements: int):
    bits = elements.bit_length() - 1
    p = bits // 2
    layout = pt.two_dim_cyclic(p, bits - p, N // 2, N // 2)
    A = np.arange(elements, dtype=np.float64).reshape(
        1 << p, 1 << (bits - p)
    )
    return layout, A


def _run(spec: str, elements: int):
    topo = parse_topology(spec, N)
    layout, A = _problem(elements)
    net = EnsembleNetwork(_machine(), topology=topo)
    result = transpose(
        net, DistributedMatrix.from_global(A, layout), layout
    )
    assert result.verify_against(A)
    return topo, result


def sweep(elements_list=ELEMENT_SWEEP):
    """The cycles table: one row per (topology, size)."""
    rows = []
    for spec in TOPOLOGIES:
        for elements in elements_list:
            topo, result = _run(spec, elements)
            stats = result.stats
            peak = max(stats.link_elements.values())
            rows.append(
                [
                    spec,
                    elements,
                    result.algorithm,
                    topo.diameter,
                    stats.phases,
                    stats.messages,
                    stats.element_hops,
                    peak,
                    ms(stats.time),
                ]
            )
    return rows


def heatmaps(elements: int) -> dict[str, str]:
    """One rendered link-element heatmap per topology at one size."""
    out = {}
    for spec in TOPOLOGIES:
        topo, result = _run(spec, elements)
        if topo.name == "cube":
            out[spec] = format_link_heatmap(result.stats, N)
        else:
            out[spec] = format_topology_heatmap(result.stats, topo)
    return out


def _emit(rows):
    return emit_table(
        "cross_topology",
        "Transpose across interconnects (64 nodes, tau=1, t_c=1, "
        "n-port, modelled ms)",
        [
            "topology",
            "elements",
            "algorithm",
            "diam",
            "phases",
            "messages",
            "el-hops",
            "peak link",
            "time",
        ],
        rows,
        notes="Same problem, same cost constants; the cube runs its "
        "schedule ladder (no routing), the torus and dragonfly run the "
        "routed-universal floor, so extra element-hops measure what "
        "store-and-forward routing costs on each diameter.",
    )


def test_cross_topology(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _emit(rows)
    by = {(r[0], r[1]): r for r in rows}
    for elements in ELEMENT_SWEEP:
        cube = by[("cube", elements)]
        assert cube[2] != "routed-universal"  # the ladder survives
        for spec in TOPOLOGIES[1:]:
            assert by[(spec, elements)][2] == "routed-universal"
        # Equal diameter but store-and-forward congestion: the torus
        # cannot beat the cube's edge-disjoint direct schedules.  (The
        # diameter-3 dragonfly legitimately can, on element-hops.)
        assert by[("torus:4x4x4", elements)][8] > cube[8]
    for spec in TOPOLOGIES:
        times = [by[(spec, e)][8] for e in ELEMENT_SWEEP]
        assert times == sorted(times)  # cost grows with problem size


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cross-topology transpose bench (CI artifact mode)"
    )
    parser.add_argument(
        "--elements",
        type=int,
        nargs="+",
        default=list(ELEMENT_SWEEP),
        help="matrix sizes to sweep (powers of two)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write the table and per-topology heatmaps here",
    )
    args = parser.parse_args(argv)
    text = _emit(sweep(args.elements))
    maps = heatmaps(max(args.elements))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "cross_topology.txt"), "w") as fh:
            fh.write(text + "\n")
        for spec, rendered in maps.items():
            safe = spec.replace(":", "_").replace(",", "x")
            path = os.path.join(args.out, f"heatmap_{safe}.txt")
            with open(path, "w") as fh:
                fh.write(rendered + "\n")
            print(f"wrote {path}", file=sys.stderr)
    else:
        for spec, rendered in maps.items():
            print(f"\n-- {spec} --\n{rendered}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
