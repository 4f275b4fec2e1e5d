"""Tests for §6.3: combined transpose and Gray/binary code conversion."""

import numpy as np
import pytest

from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, custom_machine
from repro.transpose.mixed import (
    mixed_code_transpose_combined,
    mixed_code_transpose_naive,
)


def mixed_layouts(p, half, *, row_gray=False, col_gray=True):
    kw = dict(rows="cyclic", cols="cyclic", row_gray=row_gray, col_gray=col_gray)
    return (
        pt.two_dim_mixed(p, p, half, half, **kw),
        pt.two_dim_mixed(p, p, half, half, **kw),
    )


def matrix(p, seed=11):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 10**6, size=(1 << p, 1 << p)).astype(np.float64)


ENCODINGS = [
    dict(row_gray=False, col_gray=True),   # the paper's §6.3 case
    dict(row_gray=True, col_gray=False),
    dict(row_gray=True, col_gray=True),
    dict(row_gray=False, col_gray=False),  # degenerates to plain SPT
]


class TestCombined:
    @pytest.mark.parametrize("enc", ENCODINGS)
    @pytest.mark.parametrize("p,half", [(3, 1), (4, 2), (5, 2)])
    def test_produces_transpose(self, enc, p, half):
        before, after = mixed_layouts(p, half, **enc)
        A = matrix(p)
        net = EnsembleNetwork(custom_machine(2 * half))
        out = mixed_code_transpose_combined(
            net, DistributedMatrix.from_global(A, before), after
        )
        assert np.array_equal(out.to_global(), A.T)

    def test_n_phases(self):
        p, half = 4, 2
        n = 2 * half
        before, after = mixed_layouts(p, half)
        A = matrix(p)
        net = EnsembleNetwork(custom_machine(n))
        mixed_code_transpose_combined(
            net, DistributedMatrix.from_global(A, before), after
        )
        assert net.stats.phases == n

    def test_odd_cube_rejected(self):
        before = pt.two_dim_mixed(3, 3, 2, 1, rows="cyclic", cols="cyclic")
        after = pt.two_dim_mixed(3, 3, 2, 1, rows="cyclic", cols="cyclic")
        dm = DistributedMatrix.iota(before)
        net = EnsembleNetwork(custom_machine(3))
        with pytest.raises(ValueError):
            mixed_code_transpose_combined(net, dm, after)


class TestNaive:
    @pytest.mark.parametrize("enc", ENCODINGS)
    @pytest.mark.parametrize("p,half", [(4, 2), (5, 2), (6, 3)])
    def test_produces_transpose(self, enc, p, half):
        before, after = mixed_layouts(p, half, **enc)
        A = matrix(p)
        net = EnsembleNetwork(custom_machine(2 * half))
        out = mixed_code_transpose_naive(
            net, DistributedMatrix.from_global(A, before), after
        )
        assert np.array_equal(out.to_global(), A.T)

    def test_2n_minus_2_phases(self):
        p, half = 4, 2
        n = 2 * half
        before, after = mixed_layouts(p, half)
        A = matrix(p)
        net = EnsembleNetwork(custom_machine(n))
        mixed_code_transpose_naive(
            net, DistributedMatrix.from_global(A, before), after
        )
        assert net.stats.phases == 2 * n - 2


class TestComparison:
    def test_combined_beats_naive(self):
        """Fig. 15: the n-step combined algorithm beats the (2n-2)-step
        naive one, increasingly so for larger cubes."""
        for half in (1, 2, 3):
            p = max(3, half + 1)
            n = 2 * half
            before, after = mixed_layouts(p, half)
            A = matrix(p)

            nv = EnsembleNetwork(custom_machine(n, tau=1.0, t_c=1.0))
            mixed_code_transpose_naive(
                nv, DistributedMatrix.from_global(A, before), after
            )
            cb = EnsembleNetwork(custom_machine(n, tau=1.0, t_c=1.0))
            mixed_code_transpose_combined(
                cb, DistributedMatrix.from_global(A, before), after
            )
            if n > 2:
                assert cb.time < nv.time
            else:
                assert cb.time <= nv.time

    def test_both_agree_with_each_other(self):
        p, half = 4, 2
        before, after = mixed_layouts(p, half)
        A = matrix(p)
        n1 = EnsembleNetwork(custom_machine(2 * half))
        out1 = mixed_code_transpose_naive(
            n1, DistributedMatrix.from_global(A, before), after
        )
        n2 = EnsembleNetwork(custom_machine(2 * half))
        out2 = mixed_code_transpose_combined(
            n2, DistributedMatrix.from_global(A, before), after
        )
        assert np.array_equal(out1.local_data, out2.local_data)
