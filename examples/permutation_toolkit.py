#!/usr/bin/env python
"""The §7 permutation toolkit: everything a transpose engine gives you free.

Demonstrates, on one simulated machine:

1. the bit-reversal permutation (general exchange with pairs (i, m-1-i));
2. a k-shuffle realized as a dimension permutation by parallel swapping
   (Lemma 15), moving real per-node blocks;
3. an arbitrary node permutation via two all-to-all rounds, with its
   cost compared against the dedicated transpose — quantifying §7's
   "the communication complexity is higher than that of the best
   transpose algorithm".

Run:  python examples/permutation_toolkit.py
"""

import numpy as np

from repro import EnsembleNetwork, DistributedMatrix, custom_machine, two_dim_cyclic
from repro.codes.bits import bit_reverse
from repro.cube.paths import transpose_partner
from repro.machine.params import PortModel
from repro.permute import (
    apply_dimension_permutation,
    arbitrary_node_permutation,
    bit_reversal_permute,
    decompose_parallel_swappings,
)
from repro.transpose import two_dim_transpose_mpt

N_CUBE = 4


def machine():
    return EnsembleNetwork(
        custom_machine(N_CUBE, tau=2.0, t_c=1.0, port_model=PortModel.N_PORT)
    )


def demo_bit_reversal() -> None:
    layout = two_dim_cyclic(4, 4, 2, 2)
    flat = np.arange(1 << layout.m, dtype=np.float64)
    dm = DistributedMatrix.from_global(flat.reshape(16, 16), layout)
    net = machine()
    out = bit_reversal_permute(net, dm)
    result = out.to_global().reshape(-1)
    ok = all(result[bit_reverse(w, layout.m)] == flat[w] for w in range(256))
    print(f"1. bit reversal of 2^{layout.m} elements: correct={ok}, "
          f"time={net.time:.1f} units, phases={net.stats.phases}")
    assert ok


def demo_shuffle_as_dimension_permutation() -> None:
    n = N_CUBE
    delta = [(i - 1) % n for i in range(n)]  # one-step left shuffle sh^1
    rounds = decompose_parallel_swappings(delta)
    net = machine()
    local = np.arange((1 << n) * 4, dtype=np.float64).reshape(1 << n, 4)
    out = apply_dimension_permutation(net, local, delta)
    # sh^1 on node addresses: node x's data lands at rotate_left(x).
    from repro.codes.bits import rotate_left

    ok = all(
        np.array_equal(out[rotate_left(x, 1, n)], local[x])
        for x in range(1 << n)
    )
    print(f"2. sh^1 as a dimension permutation: {len(rounds)} parallel-"
          f"swapping rounds (Lemma 15 bound {max(1, (n - 1).bit_length())}), "
          f"correct={ok}, time={net.time:.1f} units")
    assert ok


def demo_arbitrary_vs_dedicated() -> None:
    n = N_CUBE
    N = 1 << n
    layout = two_dim_cyclic(4, 4, n // 2, n // 2)
    A = np.arange(256, dtype=np.float64).reshape(16, 16)
    dm = DistributedMatrix.from_global(A, layout)

    direct = machine()
    two_dim_transpose_mpt(direct, dm, layout, rounds=2)

    generic = machine()
    pi = [transpose_partner(x, n) for x in range(N)]
    arbitrary_node_permutation(generic, dm.local_data, pi)

    print(f"3. transpose as arbitrary permutation (2x all-to-all): "
          f"{generic.time:.1f} units / {generic.stats.element_hops} hops "
          f"vs dedicated MPT {direct.time:.1f} units / "
          f"{direct.stats.element_hops} hops")
    assert generic.stats.element_hops > direct.stats.element_hops


def main() -> None:
    demo_bit_reversal()
    demo_shuffle_as_dimension_permutation()
    demo_arbitrary_vs_dedicated()


if __name__ == "__main__":
    main()
