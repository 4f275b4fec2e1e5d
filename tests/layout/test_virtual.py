"""Tests for virtual-element squaring (Definition 2)."""

import numpy as np
import pytest

from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.layout.virtual import (
    extend_columns,
    extend_rows,
    padding_overhead,
    restrict_to,
    square_up,
)
from repro.machine import EnsembleNetwork, custom_machine
from repro.machine.params import PortModel
from repro.transpose.two_dim import two_dim_transpose_mpt, two_dim_transpose_spt


def rect_matrix(p, q, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 10**6, size=(1 << p, 1 << q)).astype(np.float64)


class TestExtend:
    def test_extend_columns_shifts_row_dims(self):
        lay = pt.row_consecutive(4, 2, 2)  # u dims at 5, 4
        ext = extend_columns(lay, 4)
        assert ext.q == 4
        assert ext.proc_dims == (7, 6)  # shifted by 2

    def test_extend_columns_keeps_column_dims(self):
        lay = pt.column_cyclic(4, 2, 2)  # v dims at 1, 0
        ext = extend_columns(lay, 4)
        assert ext.proc_dims == (1, 0)

    def test_extend_rows_keeps_everything(self):
        lay = pt.column_cyclic(2, 4, 2)
        ext = extend_rows(lay, 4)
        assert ext.p == 4
        assert ext.proc_dims == lay.proc_dims

    def test_shrinking_rejected(self):
        lay = pt.row_cyclic(3, 3, 1)
        with pytest.raises(ValueError):
            extend_columns(lay, 2)
        with pytest.raises(ValueError):
            extend_rows(lay, 2)

    def test_real_data_keeps_owner(self):
        """Extension must not move any real element."""
        lay = pt.two_dim_cyclic(4, 2, 1, 1)
        ext = extend_columns(lay, 4)
        for u in range(1 << 4):
            for v in range(1 << 2):
                w_small = (u << 2) | v
                w_big = (u << 4) | v
                assert lay.owner(w_small) == ext.owner(w_big)


class TestSquareUp:
    def test_square_matrix_is_untouched(self):
        dm = DistributedMatrix.iota(pt.row_cyclic(3, 3, 2))
        sq = square_up(dm)
        assert sq.matrix is dm
        assert sq.padded_axis == "none"

    def test_wide_matrix_pads_rows(self):
        A = rect_matrix(2, 4)
        dm = DistributedMatrix.from_global(A, pt.column_cyclic(2, 4, 2))
        sq = square_up(dm, fill=-1.0)
        assert sq.padded_axis == "rows"
        big = sq.matrix.to_global()
        assert big.shape == (16, 16)
        assert np.array_equal(big[:4, :], A)
        assert np.all(big[4:, :] == -1.0)

    def test_tall_matrix_pads_columns(self):
        A = rect_matrix(4, 2)
        dm = DistributedMatrix.from_global(A, pt.row_consecutive(4, 2, 2))
        sq = square_up(dm)
        assert sq.padded_axis == "columns"
        assert sq.matrix.to_global().shape == (16, 16)

    def test_restrict_round_trip(self):
        lay = pt.row_consecutive(4, 2, 2)
        A = rect_matrix(4, 2)
        dm = DistributedMatrix.from_global(A, lay)
        sq = square_up(dm)
        back = restrict_to(sq.matrix, lay)
        assert np.array_equal(back.to_global(), A)

    def test_restrict_rejects_growth(self):
        dm = DistributedMatrix.iota(pt.row_cyclic(2, 2, 1))
        with pytest.raises(ValueError):
            restrict_to(dm, pt.row_cyclic(3, 3, 1))

    def test_padding_overhead(self):
        assert padding_overhead(4, 4) == 0.0
        assert padding_overhead(4, 2) == pytest.approx(0.75)
        assert padding_overhead(2, 4) == pytest.approx(0.75)


class TestRectangularTransposeViaSquaring:
    """Definition 2's purpose: the square-only algorithms on P != Q."""

    @pytest.mark.parametrize("p,q", [(4, 2), (2, 4), (5, 3)])
    def test_spt_on_rectangular(self, p, q):
        half = 2
        A = rect_matrix(p, q)
        lay = pt.two_dim_cyclic(p, q, min(half, p), min(half, q))
        # Lay out the padded square directly with equal partitions.
        dm = DistributedMatrix.from_global(A, lay)
        sq = square_up(dm)
        sq_layout = sq.matrix.layout
        net = EnsembleNetwork(custom_machine(sq_layout.n))
        out = two_dim_transpose_spt(net, sq.matrix, sq_layout)
        target = pt.two_dim_cyclic(q, p, min(half, q), min(half, p))
        # The transposed padded matrix restricted to Q x P equals A.T —
        # needs matching processor fields, so rebuild via the global view.
        result = restrict_to(out, target)
        assert np.array_equal(result.to_global(), A.T)

    def test_mpt_on_rectangular(self):
        p, q = 5, 3
        A = rect_matrix(p, q)
        lay = pt.two_dim_cyclic(p, q, 2, 2)
        dm = DistributedMatrix.from_global(A, lay)
        sq = square_up(dm)
        net = EnsembleNetwork(
            custom_machine(sq.matrix.layout.n, port_model=PortModel.N_PORT)
        )
        out = two_dim_transpose_mpt(net, sq.matrix, sq.matrix.layout)
        result = restrict_to(out, pt.two_dim_cyclic(q, p, 2, 2))
        assert np.array_equal(result.to_global(), A.T)

    def test_overhead_matches_moved_elements(self):
        """Every virtual element travels, so the hop count scales by the
        padding factor relative to an equal-sized square of real data."""
        p, q = 4, 2
        lay = pt.two_dim_cyclic(p, q, 1, 1)
        dm = DistributedMatrix.from_global(rect_matrix(p, q), lay)
        sq = square_up(dm)
        net = EnsembleNetwork(custom_machine(sq.matrix.layout.n))
        two_dim_transpose_spt(net, sq.matrix, sq.matrix.layout)
        moved = net.stats.element_hops
        # All 2^{2*max(p,q)} elements participate (minus diagonal nodes'
        # stationary data): virtual share is padding_overhead.
        assert moved > 0
        assert padding_overhead(p, q) == pytest.approx(0.75)
