"""Tests for the exchange executor: the engine of every transpose here."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import DistributedMatrix, Layout, ProcField
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, custom_machine, intel_ipsc
from repro.transpose.exchange import (
    BufferPolicy,
    ExchangeExecutor,
    exchange_transpose,
    general_exchange_pairs,
    plan_exchange_sequence,
    standard_exchange_pairs,
    strip_encoding,
    transpose_bit_permutation,
)


def global_matrix(p, q, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1000, size=(1 << p, 1 << q)).astype(np.float64)


def run_transpose(before, after, *, policy=None, machine=None):
    A = global_matrix(before.p, before.q)
    dm = DistributedMatrix.from_global(A, before)
    net = EnsembleNetwork(machine or custom_machine(before.n))
    out = exchange_transpose(net, dm, after, policy=policy)
    return A, out, net


class TestPairConstructors:
    def test_standard_requires_disjoint(self):
        with pytest.raises(ValueError):
            standard_exchange_pairs([3, 2], [2, 1])

    def test_standard_requires_monotone(self):
        with pytest.raises(ValueError):
            standard_exchange_pairs([3, 1, 2], [6, 5, 4])

    def test_standard_requires_equal_length(self):
        with pytest.raises(ValueError):
            standard_exchange_pairs([3], [2, 1])

    def test_standard_ok(self):
        assert standard_exchange_pairs([5, 4], [1, 0]) == [(5, 1), (4, 0)]

    def test_general_requires_injective(self):
        with pytest.raises(ValueError):
            general_exchange_pairs([(3, 1), (3, 0)])
        with pytest.raises(ValueError):
            general_exchange_pairs([(3, 1), (2, 1)])

    def test_general_rejects_degenerate(self):
        with pytest.raises(ValueError):
            general_exchange_pairs([(2, 2)])

    def test_general_allows_overlap_between_roles(self):
        # {g} and {f} need not be disjoint (Definition 11).
        assert general_exchange_pairs([(3, 1), (1, 0)]) == [(3, 1), (1, 0)]


class TestBufferPolicy:
    def test_modes_validated(self):
        with pytest.raises(ValueError):
            BufferPolicy(mode="magic")
        with pytest.raises(ValueError):
            BufferPolicy(min_unbuffered_run=0)

    def test_threshold_logic(self):
        p = BufferPolicy(mode="threshold", min_unbuffered_run=64)
        assert p.run_is_buffered(63)
        assert not p.run_is_buffered(64)
        assert not BufferPolicy(mode="unbuffered").run_is_buffered(1)
        assert BufferPolicy(mode="buffered").run_is_buffered(10**6)


class TestBitPermutation:
    def test_one_dim_consecutive(self):
        before = pt.row_consecutive(2, 2, 2)
        after = pt.row_consecutive(2, 2, 2)
        perm = transpose_bit_permutation(before, after)
        # Derived by hand in the module design notes: (3<->1), (2<->0).
        assert perm == {3: 1, 1: 3, 2: 0, 0: 2}

    def test_is_permutation(self):
        before = pt.column_cyclic(3, 4, 2)
        after = pt.row_consecutive(4, 3, 2)
        perm = transpose_bit_permutation(before, after)
        assert sorted(perm) == sorted(perm.values()) == list(range(7))

    def test_gray_rejected(self):
        before = pt.row_cyclic(2, 2, 1, gray=True)
        after = pt.row_cyclic(2, 2, 1)
        with pytest.raises(ValueError):
            transpose_bit_permutation(before, after)


class TestPlanExchangeSequence:
    def test_identity_needs_no_steps(self):
        lay = pt.row_cyclic(2, 2, 1)
        assert plan_exchange_sequence({d: d for d in range(4)}, lay) == []

    def test_two_cycles(self):
        lay = pt.row_consecutive(2, 2, 2)
        perm = {3: 1, 1: 3, 2: 0, 0: 2}
        steps = plan_exchange_sequence(perm, lay)
        assert len(steps) == 2
        assert {frozenset(s) for s in steps} == {frozenset({3, 1}), frozenset({2, 0})}

    def test_pivot_prefers_virtual_dimension(self):
        # proc dims {3, 2}; cycle (3 -> 2 -> 1 -> 3) contains vp dim 1.
        lay = Layout(2, 2, (ProcField((3, 2)),))
        steps = plan_exchange_sequence({3: 2, 2: 1, 1: 3, 0: 0}, lay)
        assert all(1 in s for s in steps)  # pivot is the vp dim
        assert len(steps) == 2

    def test_swap_semantics_brute_force(self):
        """Applying the planned swaps to addresses realizes the permutation."""
        rng = np.random.default_rng(3)
        m = 5
        lay = Layout(3, 2, (ProcField((4, 2)),))
        for _ in range(25):
            perm_list = rng.permutation(m)
            perm = {d: int(perm_list[d]) for d in range(m)}
            steps = plan_exchange_sequence(perm, lay)
            # Track where each original bit's content ends up.
            pos = {d: d for d in range(m)}  # content origin -> position
            for a, b in steps:
                for o, loc in pos.items():
                    if loc == a:
                        pos[o] = b
                    elif loc == b:
                        pos[o] = a
            assert pos == perm

    def test_out_of_range_rejected(self):
        lay = pt.row_cyclic(2, 2, 1)
        with pytest.raises(ValueError):
            plan_exchange_sequence({0: 9, 9: 0}, lay)


BINARY_CASES = [
    # (before maker, after maker, p, q)  — after takes (q, p).
    (pt.row_consecutive, pt.row_consecutive, 3, 3, 2),
    (pt.row_consecutive, pt.column_consecutive, 3, 3, 2),
    (pt.row_cyclic, pt.row_cyclic, 3, 3, 3),
    (pt.row_cyclic, pt.row_consecutive, 3, 3, 2),
    (pt.column_cyclic, pt.row_cyclic, 2, 4, 2),
    (pt.column_consecutive, pt.column_cyclic, 4, 2, 2),
    (pt.row_consecutive, pt.column_cyclic, 2, 3, 2),
]


class TestExchangeTransposeBinary:
    @pytest.mark.parametrize("mk_b,mk_a,p,q,n", BINARY_CASES)
    def test_one_dim_conversions_produce_transpose(self, mk_b, mk_a, p, q, n):
        """Corollary 6: any storage-form conversion + transpose works."""
        before = mk_b(p, q, n)
        after = mk_a(q, p, n)
        A, out, _ = run_transpose(before, after)
        assert np.array_equal(out.to_global(), A.T)

    def test_two_dim_pairwise(self):
        before = pt.two_dim_cyclic(3, 3, 2, 2)
        after = pt.two_dim_cyclic(3, 3, 2, 2)
        A, out, net = run_transpose(before, after)
        assert np.array_equal(out.to_global(), A.T)

    def test_two_dim_consecutive_to_cyclic(self):
        """§6.2: transpose with change of assignment scheme."""
        before = pt.two_dim_consecutive(4, 4, 2, 2)
        after = pt.two_dim_cyclic(4, 4, 2, 2)
        A, out, _ = run_transpose(before, after)
        assert np.array_equal(out.to_global(), A.T)

    def test_rectangular_matrix(self):
        before = pt.row_consecutive(2, 5, 2)
        after = pt.row_consecutive(5, 2, 2)
        A, out, _ = run_transpose(before, after)
        assert np.array_equal(out.to_global(), A.T)

    def test_explicit_pair_schedule(self):
        before = pt.row_consecutive(2, 2, 2)
        after = pt.row_consecutive(2, 2, 2)
        A = global_matrix(2, 2)
        dm = DistributedMatrix.from_global(A, before)
        net = EnsembleNetwork(custom_machine(2))
        out = exchange_transpose(
            net, dm, after, pairs=[(3, 1), (2, 0)]
        )
        assert np.array_equal(out.to_global(), A.T)

    def test_all_policies_agree_on_result(self):
        before = pt.row_consecutive(3, 3, 3)
        after = pt.row_consecutive(3, 3, 3)
        results = []
        for mode in ("unbuffered", "buffered", "threshold"):
            _, out, _ = run_transpose(
                before, after, policy=BufferPolicy(mode=mode, min_unbuffered_run=4)
            )
            results.append(out.to_global())
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])


class TestExchangeTransposeGray:
    def test_one_dim_gray_to_gray(self):
        before = pt.row_consecutive(3, 3, 2, gray=True)
        after = pt.row_consecutive(3, 3, 2, gray=True)
        A, out, _ = run_transpose(before, after)
        assert np.array_equal(out.to_global(), A.T)

    def test_two_dim_gray_pairwise(self):
        """§6.1: same algorithm transposes the Gray-embedded matrix."""
        before = pt.two_dim_cyclic(3, 3, 2, 2, gray=True)
        after = pt.two_dim_cyclic(3, 3, 2, 2, gray=True)
        A, out, _ = run_transpose(before, after)
        assert np.array_equal(out.to_global(), A.T)

    def test_mixed_encoding_rejected(self):
        """Binary rows / Gray columns needs the §6.3 combined algorithm:
        the destination processor field is forced by the source processor
        bits and disagrees, so no local rearrangement can fix it."""
        before = pt.two_dim_mixed(
            3, 3, 2, 2, rows="cyclic", cols="cyclic", col_gray=True
        )
        after = pt.two_dim_mixed(
            3, 3, 2, 2, rows="cyclic", cols="cyclic", col_gray=True
        )
        A = global_matrix(3, 3)
        dm = DistributedMatrix.from_global(A, before)
        net = EnsembleNetwork(custom_machine(4))
        with pytest.raises(ValueError):
            exchange_transpose(net, dm, after)

    def test_gray_to_binary_one_dim_conversion(self):
        """1D Gray -> binary re-encoding rides the all-to-all for free."""
        before = pt.row_consecutive(3, 3, 2, gray=True)
        after = pt.row_consecutive(3, 3, 2)
        A, out, _ = run_transpose(before, after)
        assert np.array_equal(out.to_global(), A.T)

    def test_binary_to_gray_one_dim_conversion(self):
        before = pt.column_cyclic(3, 3, 3)
        after = pt.column_cyclic(3, 3, 3, gray=True)
        A, out, _ = run_transpose(before, after)
        assert np.array_equal(out.to_global(), A.T)

    def test_strip_encoding(self):
        lay = pt.row_cyclic(3, 3, 2, gray=True)
        assert strip_encoding(lay).is_gray is False
        assert strip_encoding(lay).proc_dims == lay.proc_dims

    def test_two_dim_gray_needs_no_local_rearrangement(self):
        """§6.1: for same-encoding 2D transposes the binary schedule
        commutes with the encoding — pre/post maps are identities."""
        from repro.transpose.exchange import (
            plan_gray_local_permutations,
            strip_encoding as se,
        )

        before = pt.two_dim_cyclic(3, 3, 2, 2, gray=True)
        after = pt.two_dim_cyclic(3, 3, 2, 2, gray=True)
        perm = transpose_bit_permutation(se(before), se(after))
        pre, post = plan_gray_local_permutations(before, after, perm)
        assert pre is None
        assert post is None

    def test_one_dim_gray_needs_local_rearrangement(self):
        from repro.transpose.exchange import (
            plan_gray_local_permutations,
            strip_encoding as se,
        )

        before = pt.row_consecutive(3, 3, 2, gray=True)
        after = pt.row_consecutive(3, 3, 2, gray=True)
        perm = transpose_bit_permutation(se(before), se(after))
        pre, post = plan_gray_local_permutations(before, after, perm)
        assert pre is not None or post is not None


class TestExecutorMechanics:
    def test_gray_frame_rejected(self):
        lay = pt.row_cyclic(2, 2, 1, gray=True)
        dm = DistributedMatrix.iota(lay)
        net = EnsembleNetwork(custom_machine(1))
        with pytest.raises(ValueError):
            ExchangeExecutor(net, dm)

    def test_network_layout_dimension_mismatch(self):
        lay = pt.row_cyclic(2, 2, 1)
        dm = DistributedMatrix.iota(lay)
        with pytest.raises(ValueError):
            ExchangeExecutor(EnsembleNetwork(custom_machine(3)), dm)

    def test_degenerate_step_rejected(self):
        lay = pt.row_cyclic(2, 2, 1)
        dm = DistributedMatrix.iota(lay)
        ex = ExchangeExecutor(EnsembleNetwork(custom_machine(1)), dm)
        with pytest.raises(ValueError):
            ex.step(2, 2)

    def test_local_step_moves_no_messages(self):
        lay = pt.row_cyclic(2, 2, 1)
        dm = DistributedMatrix.iota(lay)
        net = EnsembleNetwork(custom_machine(1))
        ex = ExchangeExecutor(net, dm)
        ex.step(1, 0)  # both vp dims (proc dim is 2 here)
        assert net.stats.messages == 0
        assert net.time == 0.0

    def test_local_step_charged_when_requested(self):
        lay = pt.row_cyclic(2, 2, 1)
        dm = DistributedMatrix.iota(lay)
        net = EnsembleNetwork(custom_machine(1, t_copy=1.0))
        ex = ExchangeExecutor(
            net, dm, policy=BufferPolicy(charge_local_moves=True)
        )
        ex.step(1, 0)
        assert net.stats.copy_time == pytest.approx(lay.local_size / 2)

    def test_proc_proc_step_distance_two(self):
        lay = pt.two_dim_cyclic(2, 2, 1, 1)
        dm = DistributedMatrix.iota(lay)
        net = EnsembleNetwork(custom_machine(2, tau=1.0, t_c=0.0))
        ex = ExchangeExecutor(net, dm)
        ex.step(2, 0)  # u_0 and v_0: the single SPT pair here
        # Two phases (two hops), each one start-up per moving node.
        assert net.stats.phases == 2
        assert net.time == pytest.approx(2.0)


class TestTiming:
    def test_unbuffered_startups_exceed_buffered(self):
        before = pt.row_consecutive(4, 4, 4)
        after = pt.row_consecutive(4, 4, 4)
        _, _, net_u = run_transpose(before, after, policy=BufferPolicy("unbuffered"))
        _, _, net_b = run_transpose(
            before, after, policy=BufferPolicy("buffered")
        )
        assert net_u.stats.startups > net_b.stats.startups
        assert net_u.stats.copied_elements == 0
        assert net_b.stats.copied_elements > 0

    def test_element_hops_match_formula(self):
        """1D all-to-all exchange moves n * PQ / (2N) elements per node."""
        p = q = 4
        n = 3
        before = pt.row_consecutive(p, q, n)
        after = pt.row_consecutive(q, p, n)
        _, _, net = run_transpose(before, after)
        PQ = 1 << (p + q)
        # Every node sends n * PQ/(2N) elements; total hops = N * that.
        assert net.stats.element_hops == n * PQ // 2

    def test_ipsc_one_dim_time_in_expected_range(self):
        """Sanity: simulated 1D transpose time is dominated by start-ups
        for a small matrix on a big cube."""
        before = pt.row_consecutive(5, 5, 5)
        after = pt.row_consecutive(5, 5, 5)
        _, _, net = run_transpose(before, after, machine=intel_ipsc(5))
        # At least n sequential exchange phases, each >= tau.
        assert net.time >= 5 * 5e-3


@settings(max_examples=20, deadline=None)
@given(
    p=st.integers(1, 4),
    q=st.integers(1, 4),
    data=st.data(),
)
def test_property_random_binary_layout_pairs(p, q, data):
    """Any (before, after) pair of binary layouts transposes correctly."""
    makers = [pt.row_cyclic, pt.row_consecutive, pt.column_cyclic, pt.column_consecutive]
    mk_b = data.draw(st.sampled_from(makers))
    mk_a = data.draw(st.sampled_from(makers))
    limit_b = p if mk_b in (pt.row_cyclic, pt.row_consecutive) else q
    limit_a = q if mk_a in (pt.row_cyclic, pt.row_consecutive) else p
    n = data.draw(st.integers(0, min(limit_b, limit_a)))
    before = mk_b(p, q, n)
    after = mk_a(q, p, n)
    A = global_matrix(p, q, seed=data.draw(st.integers(0, 99)))
    dm = DistributedMatrix.from_global(A, before)
    net = EnsembleNetwork(custom_machine(n))
    out = exchange_transpose(net, dm, after)
    assert np.array_equal(out.to_global(), A.T)
