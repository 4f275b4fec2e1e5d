#!/usr/bin/env python
"""Quickstart: transpose a distributed matrix on a simulated hypercube.

Builds a 64 x 64 matrix, spreads it over a 16-node Boolean 4-cube in the
two-dimensional cyclic layout, transposes it with the planner's automatic
algorithm choice on both machine presets, and verifies the result against
``numpy``'s transpose.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    EnsembleNetwork,
    DistributedMatrix,
    connection_machine,
    intel_ipsc,
    transpose,
    two_dim_cyclic,
)


def main() -> None:
    rng = np.random.default_rng(2026)
    A = rng.standard_normal((64, 64))

    # 64 x 64 = 2^6 x 2^6 elements; 2 processor bits per axis -> 4-cube.
    layout = two_dim_cyclic(p=6, q=6, n_r=2, n_c=2)
    print(f"layout: {layout.describe()}")
    print(f"machine: {1 << layout.n} processors, {layout.local_size} elements each\n")

    for preset in (intel_ipsc, connection_machine):
        net = EnsembleNetwork(preset(layout.n))
        dm = DistributedMatrix.from_global(A, layout)
        result = transpose(net, dm)
        ok = result.verify_against(A)
        print(f"{net.params.name}")
        print(f"  algorithm: {result.algorithm} ({result.comm_class.value})")
        print(f"  correct:   {ok}")
        print(f"  modelled:  {result.stats.summary()}\n")
        assert ok

    # The same call works for any of the paper's layouts — for instance a
    # one-dimensional consecutive row partitioning, which the planner
    # recognizes as all-to-all personalized communication.
    from repro import row_consecutive

    layout_1d = row_consecutive(p=6, q=6, n=4)
    net = EnsembleNetwork(intel_ipsc(4))
    result = transpose(net, DistributedMatrix.from_global(A, layout_1d))
    print(f"1D layout -> {result.algorithm} ({result.comm_class.value}), "
          f"correct: {result.verify_against(A)}")


if __name__ == "__main__":
    main()
