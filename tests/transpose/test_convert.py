"""Tests for storage-form conversion without transposition (§2, Lemma 7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, custom_machine
from repro.transpose.exchange import (
    conversion_bit_permutation,
    convert_layout,
)


def matrix(p, q, seed=3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 10**6, size=(1 << p, 1 << q)).astype(np.float64)


def run_convert(before, after, **kw):
    A = matrix(before.p, before.q)
    dm = DistributedMatrix.from_global(A, before)
    net = EnsembleNetwork(custom_machine(before.n))
    out = convert_layout(net, dm, after, **kw)
    return A, out, net


class TestConversionPermutation:
    def test_identity_conversion(self):
        lay = pt.row_cyclic(3, 3, 2)
        perm = conversion_bit_permutation(lay, lay)
        assert perm == {d: d for d in range(6)}

    def test_shape_change_rejected(self):
        before = pt.row_cyclic(3, 2, 1)
        after = pt.row_cyclic(2, 3, 1)
        with pytest.raises(ValueError):
            conversion_bit_permutation(before, after)

    def test_cyclic_to_consecutive_is_permutation(self):
        before = pt.row_cyclic(4, 3, 2)
        after = pt.row_consecutive(4, 3, 2)
        perm = conversion_bit_permutation(before, after)
        assert sorted(perm) == sorted(perm.values()) == list(range(7))


class TestConvertLayout:
    CASES = [
        (pt.row_cyclic, pt.row_consecutive),
        (pt.row_consecutive, pt.row_cyclic),
        (pt.column_cyclic, pt.column_consecutive),
        (pt.row_consecutive, pt.column_consecutive),
        (pt.column_cyclic, pt.row_cyclic),
    ]

    @pytest.mark.parametrize("mk_b,mk_a", CASES)
    def test_binary_conversions(self, mk_b, mk_a):
        p, q, n = 4, 3, 2
        before = mk_b(p, q, n)
        after = mk_a(p, q, n)
        A, out, net = run_convert(before, after)
        assert out.layout is after
        assert np.array_equal(out.to_global(), A)  # same matrix, moved
        assert net.stats.messages > 0

    def test_identity_conversion_is_free(self):
        lay = pt.row_cyclic(3, 3, 2)
        A, out, net = run_convert(lay, lay)
        assert np.array_equal(out.to_global(), A)
        assert net.stats.messages == 0
        assert net.time == 0.0

    def test_two_dim_conversion(self):
        before = pt.two_dim_consecutive(4, 4, 2, 2)
        after = pt.two_dim_cyclic(4, 4, 2, 2)
        A, out, _ = run_convert(before, after)
        assert np.array_equal(out.to_global(), A)

    def test_binary_to_gray_recode(self):
        """§2: conversion between binary and Gray encodings (n - 1 routing
        steps with local rearrangement) — here via the exchange driver."""
        before = pt.row_consecutive(4, 3, 3)
        after = pt.row_consecutive(4, 3, 3, gray=True)
        A, out, net = run_convert(before, after)
        assert np.array_equal(out.to_global(), A)
        assert net.stats.messages > 0

    def test_gray_to_binary_recode(self):
        before = pt.column_cyclic(3, 4, 3, gray=True)
        after = pt.column_cyclic(3, 4, 3)
        A, out, _ = run_convert(before, after)
        assert np.array_equal(out.to_global(), A)

    def test_gray_to_gray_cross_form(self):
        before = pt.row_cyclic(4, 3, 2, gray=True)
        after = pt.row_consecutive(4, 3, 2, gray=True)
        A, out, _ = run_convert(before, after)
        assert np.array_equal(out.to_global(), A)

    def test_wrong_shape_rejected(self):
        before = pt.row_cyclic(3, 2, 1)
        dm = DistributedMatrix.iota(before)
        net = EnsembleNetwork(custom_machine(1))
        with pytest.raises(ValueError):
            convert_layout(net, dm, pt.row_cyclic(2, 3, 1))

    def test_corollary7_conversion_is_all_to_all(self):
        """Cyclic <-> consecutive conversion with P >= N^2 reaches every
        other processor from every processor."""
        p, q, n = 4, 4, 2  # P = 16 = N^2
        before = pt.row_cyclic(p, q, n)
        after = pt.row_consecutive(p, q, n)
        w = np.arange(1 << (p + q), dtype=np.int64)
        src = before.owner_array(w)
        dst = after.owner_array(w)
        pairs = set(zip(src.tolist(), dst.tolist()))
        N = 1 << n
        assert len(pairs) == N * N  # includes self-pairs


@settings(max_examples=20, deadline=None)
@given(
    p=st.integers(1, 4),
    q=st.integers(1, 4),
    data=st.data(),
)
def test_property_random_conversions(p, q, data):
    makers = [pt.row_cyclic, pt.row_consecutive, pt.column_cyclic, pt.column_consecutive]
    mk_b = data.draw(st.sampled_from(makers))
    mk_a = data.draw(st.sampled_from(makers))
    limit_b = p if mk_b in (pt.row_cyclic, pt.row_consecutive) else q
    limit_a = p if mk_a in (pt.row_cyclic, pt.row_consecutive) else q
    n = data.draw(st.integers(0, min(limit_b, limit_a)))
    gray_b = data.draw(st.booleans())
    gray_a = data.draw(st.booleans())
    before = mk_b(p, q, n, gray=gray_b)
    after = mk_a(p, q, n, gray=gray_a)
    A = matrix(p, q, seed=data.draw(st.integers(0, 99)))
    dm = DistributedMatrix.from_global(A, before)
    net = EnsembleNetwork(custom_machine(n))
    out = convert_layout(net, dm, after)
    assert np.array_equal(out.to_global(), A)


@settings(max_examples=15, deadline=None)
@given(
    p=st.integers(2, 4),
    q=st.integers(2, 4),
    data=st.data(),
)
def test_property_two_dim_conversions(p, q, data):
    """Random 2D layout pairs (schemes and encodings) convert losslessly."""
    nr = data.draw(st.integers(0, min(p, 2)))
    nc = data.draw(st.integers(0, min(q, 2)))
    schemes = ["cyclic", "consecutive"]
    before = pt.two_dim_mixed(
        p,
        q,
        nr,
        nc,
        rows=data.draw(st.sampled_from(schemes)),
        cols=data.draw(st.sampled_from(schemes)),
        row_gray=data.draw(st.booleans()),
        col_gray=data.draw(st.booleans()),
    )
    after = pt.two_dim_mixed(
        p,
        q,
        nr,
        nc,
        rows=data.draw(st.sampled_from(schemes)),
        cols=data.draw(st.sampled_from(schemes)),
        row_gray=data.draw(st.booleans()),
        col_gray=data.draw(st.booleans()),
    )
    A = matrix(p, q, seed=data.draw(st.integers(0, 99)))
    dm = DistributedMatrix.from_global(A, before)
    net = EnsembleNetwork(custom_machine(before.n))
    out = convert_layout(net, dm, after)
    assert np.array_equal(out.to_global(), A)
