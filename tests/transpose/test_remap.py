"""Tests for §6.2: transposition with change of assignment scheme."""

import numpy as np
import pytest

from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, custom_machine
from repro.transpose.remap import remap_pair_sequence, remap_transpose


def layouts(p, nr):
    before = pt.two_dim_consecutive(p, p, nr, nr)
    after = pt.two_dim_cyclic(p, p, nr, nr)
    return before, after


def matrix(p, seed=9):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 10**6, size=(1 << p, 1 << p)).astype(np.float64)


class TestPairSequences:
    @pytest.mark.parametrize("alg", [1, 2, 3])
    def test_sequences_realize_target(self, alg):
        """The assertion inside remap_pair_sequence already checks the
        residual is local; here we also check overall composition."""
        before, after = layouts(4, 2)
        pairs = remap_pair_sequence(before, after, alg)
        assert pairs  # non-empty

    def test_comm_step_counts(self):
        """Algorithm 1 uses 2n communication steps; 2 and 3 use n."""
        p, nr = 4, 2
        n = 2 * nr
        before, after = layouts(p, nr)
        proc = before.proc_dim_set

        def comm_steps(alg):
            """Routing steps: a (proc, vp) pair is one hop, a
            (proc, proc) pair crosses two dimensions (Lemma 6)."""
            hops = 0
            for a, b in remap_pair_sequence(before, after, alg):
                hops += (a in proc) + (b in proc)
            return hops

        assert comm_steps(1) == 2 * n
        assert comm_steps(2) == n
        assert comm_steps(3) == n

    def test_invalid_algorithm(self):
        before, after = layouts(4, 2)
        with pytest.raises(ValueError):
            remap_pair_sequence(before, after, 4)

    def test_requires_square(self):
        before = pt.two_dim_consecutive(4, 3, 1, 1)
        after = pt.two_dim_cyclic(3, 4, 1, 1)
        with pytest.raises(ValueError):
            remap_pair_sequence(before, after, 1)

    def test_requires_enough_virtual_space(self):
        before = pt.two_dim_consecutive(3, 3, 2, 2)
        after = pt.two_dim_cyclic(3, 3, 2, 2)
        with pytest.raises(ValueError):
            remap_pair_sequence(before, after, 2)


class TestRemapTranspose:
    @pytest.mark.parametrize("alg", [1, 2, 3])
    @pytest.mark.parametrize("p,nr", [(4, 2), (4, 1), (5, 2), (6, 3)])
    def test_produces_transpose(self, alg, p, nr):
        before, after = layouts(p, nr)
        A = matrix(p)
        net = EnsembleNetwork(custom_machine(2 * nr))
        out = remap_transpose(
            net, DistributedMatrix.from_global(A, before), after, algorithm=alg
        )
        assert np.array_equal(out.to_global(), A.T)

    def test_algorithm1_more_expensive_than_3(self):
        """2n vs n communication steps shows up directly in time."""
        p, nr = 5, 2
        before, after = layouts(p, nr)
        A = matrix(p)

        t1 = EnsembleNetwork(custom_machine(2 * nr, tau=1.0, t_c=1.0))
        remap_transpose(
            t1, DistributedMatrix.from_global(A, before), after, algorithm=1
        )
        t3 = EnsembleNetwork(custom_machine(2 * nr, tau=1.0, t_c=1.0))
        remap_transpose(
            t3, DistributedMatrix.from_global(A, before), after, algorithm=3
        )
        assert t3.time < t1.time

    def test_algorithms_give_identical_results(self):
        p, nr = 4, 2
        before, after = layouts(p, nr)
        A = matrix(p)
        outs = []
        for alg in (1, 2, 3):
            net = EnsembleNetwork(custom_machine(2 * nr))
            out = remap_transpose(
                net, DistributedMatrix.from_global(A, before), after, algorithm=alg
            )
            outs.append(out.local_data.copy())
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])


class TestOrderReversal:
    """§6.2: "the order between exchange-row and exchange-column
    operations can be reversed" — same result, same cost."""

    @pytest.mark.parametrize("alg", [1, 2, 3])
    def test_columns_first_equivalent(self, alg):
        p, nr = 4, 2
        before, after = layouts(p, nr)
        A = matrix(p)
        dm = DistributedMatrix.from_global(A, before)
        rf_net = EnsembleNetwork(custom_machine(2 * nr, tau=1.0, t_c=1.0))
        rf = remap_transpose(rf_net, dm, after, algorithm=alg)
        cf_net = EnsembleNetwork(custom_machine(2 * nr, tau=1.0, t_c=1.0))
        cf = remap_transpose(
            cf_net, dm, after, algorithm=alg, columns_first=True
        )
        assert np.array_equal(rf.local_data, cf.local_data)
        assert cf_net.time == pytest.approx(rf_net.time)
        assert np.array_equal(cf.to_global(), A.T)
