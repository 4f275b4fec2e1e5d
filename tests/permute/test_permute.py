"""Tests for §7: bit-reversal, dimension permutations, general permutations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.bits import bit_reverse
from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, custom_machine
from repro.permute.bit_reversal import bit_reversal_pairs, bit_reversal_permute
from repro.permute.dimperm import (
    apply_dimension_permutation,
    decompose_parallel_swappings,
)
from repro.permute.general import arbitrary_node_permutation


class TestBitReversal:
    def test_pairs(self):
        assert bit_reversal_pairs(6) == [(5, 0), (4, 1), (3, 2)]
        assert bit_reversal_pairs(5) == [(4, 0), (3, 1)]
        assert bit_reversal_pairs(1) == []

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_permutes_data(self, n):
        layout = pt.row_cyclic(3, 3, n)
        m = layout.m
        flat = np.arange(1 << m, dtype=np.float64)
        dm = DistributedMatrix.from_global(flat.reshape(1 << 3, 1 << 3), layout)
        net = EnsembleNetwork(custom_machine(n))
        out = bit_reversal_permute(net, dm)
        result = out.to_global().reshape(-1)
        for w in range(1 << m):
            assert result[bit_reverse(w, m)] == flat[w]

    def test_is_involution(self):
        layout = pt.row_cyclic(2, 2, 2)
        dm = DistributedMatrix.iota(layout)
        net = EnsembleNetwork(custom_machine(2))
        once = bit_reversal_permute(net, dm)
        twice = bit_reversal_permute(net, once)
        assert np.array_equal(twice.local_data, dm.local_data)


class TestDecomposeParallelSwappings:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.data())
    def test_rounds_bounded_by_log(self, n, data):
        delta = data.draw(st.permutations(range(n)))
        rounds = decompose_parallel_swappings(delta)
        assert len(rounds) <= max(1, math.ceil(math.log2(n)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.data())
    def test_swaps_within_round_disjoint(self, n, data):
        delta = data.draw(st.permutations(range(n)))
        for swaps in decompose_parallel_swappings(delta):
            touched = [d for pair in swaps for d in pair]
            assert len(touched) == len(set(touched))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.data())
    def test_composition_realizes_delta(self, n, data):
        delta = data.draw(st.permutations(range(n)))
        content = list(range(n))
        for swaps in decompose_parallel_swappings(delta):
            for a, b in swaps:
                content[a], content[b] = content[b], content[a]
        assert content == list(delta)

    def test_identity_has_no_rounds(self):
        assert decompose_parallel_swappings([0, 1, 2, 3]) == []

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError):
            decompose_parallel_swappings([0, 0, 1])

    def test_shuffle_is_dimension_permutation(self):
        """§7 note: k-shuffles fall in the dimension permutation class."""
        n = 8
        delta = [(i - 1) % n for i in range(n)]  # one-step rotation
        rounds = decompose_parallel_swappings(delta)
        assert len(rounds) <= math.ceil(math.log2(n))


class TestApplyDimensionPermutation:
    @pytest.mark.parametrize(
        "delta",
        [
            [1, 0, 2],       # single swap
            [2, 0, 1],       # 3-cycle
            [0, 1, 2],       # identity
            [3, 2, 1, 0],    # full reversal
            [1, 2, 3, 0],    # rotation (shuffle)
        ],
    )
    def test_blocks_land_at_rho(self, delta):
        n = len(delta)
        N = 1 << n
        rng = np.random.default_rng(0)
        local = rng.standard_normal((N, 4))
        net = EnsembleNetwork(custom_machine(n))
        out = apply_dimension_permutation(net, local, delta)
        for x in range(N):
            y = 0
            for i in range(n):
                y |= ((x >> delta[i]) & 1) << i
            assert np.array_equal(out[y], local[x])

    def test_wrong_length_rejected(self):
        net = EnsembleNetwork(custom_machine(3))
        with pytest.raises(ValueError):
            apply_dimension_permutation(net, np.zeros((8, 1)), [1, 0])

    def test_wrong_row_count_rejected(self):
        net = EnsembleNetwork(custom_machine(2))
        with pytest.raises(ValueError):
            apply_dimension_permutation(net, np.zeros((3, 1)), [1, 0])


class TestArbitraryPermutation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_permutation(self, seed):
        n = 3
        N = 1 << n
        rng = np.random.default_rng(seed)
        pi = rng.permutation(N).tolist()
        local = rng.standard_normal((N, N + 3))
        net = EnsembleNetwork(custom_machine(n))
        out = arbitrary_node_permutation(net, local, pi)
        for x in range(N):
            assert np.allclose(out[pi[x]], local[x])

    def test_identity_permutation(self):
        n = 2
        N = 1 << n
        local = np.arange(N * N, dtype=np.float64).reshape(N, N)
        net = EnsembleNetwork(custom_machine(n))
        out = arbitrary_node_permutation(net, local, list(range(N)))
        assert np.array_equal(out, local)

    def test_too_little_data_rejected(self):
        net = EnsembleNetwork(custom_machine(2))
        with pytest.raises(ValueError):
            arbitrary_node_permutation(net, np.zeros((4, 2)), [1, 0, 3, 2])

    def test_invalid_pi_rejected(self):
        net = EnsembleNetwork(custom_machine(1))
        with pytest.raises(ValueError):
            arbitrary_node_permutation(net, np.zeros((2, 4)), [0, 0])

    def test_costlier_than_direct_transpose(self):
        """§7: realizing the transpose by two all-to-alls moves more data
        than the dedicated pairwise algorithm."""
        from repro.cube.paths import transpose_partner
        from repro.layout import partition as pt2
        from repro.transpose.two_dim import two_dim_transpose_spt

        n = 4
        N = 1 << n
        before = pt2.two_dim_cyclic(4, 4, 2, 2)
        after = pt2.two_dim_cyclic(4, 4, 2, 2)
        A = np.arange(256, dtype=np.float64).reshape(16, 16)
        dm = DistributedMatrix.from_global(A, before)

        direct = EnsembleNetwork(custom_machine(n, tau=1.0, t_c=1.0))
        two_dim_transpose_spt(direct, dm, after)

        via_a2a = EnsembleNetwork(custom_machine(n, tau=1.0, t_c=1.0))
        pi = [transpose_partner(x, n) for x in range(N)]
        arbitrary_node_permutation(via_a2a, dm.local_data, pi)
        assert via_a2a.stats.element_hops > direct.stats.element_hops
