"""The §2 banded-matrix combined assignment: split processor fields.

The paper motivates combined assignments with a banded solver whose
matrix is stored with ``s`` high row bits for block rows, ``n_c``
interior row bits and ``n_c`` column bits for the 2D partitioning — the
real-processor dimensions form *two* fields in the row address.  This
exercises the multi-field Layout machinery end to end.
"""

import numpy as np

from repro.layout import DistributedMatrix, Layout, ProcField
from repro.layout.classify import classify_transpose
from repro.machine import EnsembleNetwork, custom_machine
from repro.transpose.one_dim import block_convert, block_transpose


def banded_layout(p: int, q: int, s: int, n_c: int, *, gray: bool = False) -> Layout:
    """The §2 address-field partitioning
    ``(u_{p-1}..u_{p-s} | rp) (.. | vp) (u_{q-1}..u_{q-n_c} | rp) (.. | vp)
    (v_{q-1}..v_{q-n_c} | rp) (.. | vp)`` with ``s + 2 n_c`` processor bits."""
    assert p >= q >= 2 * n_c and p - s >= q
    row_block = ProcField(tuple(q + j for j in range(p - 1, p - s - 1, -1)), gray)
    row_inner = ProcField(tuple(q + j for j in range(q - 1, q - n_c - 1, -1)), gray)
    col = ProcField(tuple(range(q - 1, q - n_c - 1, -1)), gray)
    return Layout(p, q, (row_block, row_inner, col), name="banded-combined")


class TestBandedLayout:
    P, Q, S, NC = 6, 4, 1, 1

    def make(self, **kw):
        return banded_layout(self.P, self.Q, self.S, self.NC, **kw)

    def test_field_structure(self):
        lay = self.make()
        assert lay.n == self.S + 2 * self.NC
        assert len(lay.fields) == 3
        # Row processor dims are split into two groups (non-contiguous).
        assert lay.fields[0].dims == (9,)  # u_5
        assert lay.fields[1].dims == (7,)  # u_3
        assert lay.fields[2].dims == (3,)  # v_3

    def test_scatter_gather_round_trip(self):
        lay = self.make()
        rng = np.random.default_rng(5)
        A = rng.standard_normal((1 << self.P, 1 << self.Q))
        dm = DistributedMatrix.from_global(A, lay)
        assert np.array_equal(dm.to_global(), A)

    def test_gray_variant_round_trip(self):
        lay = self.make(gray=True)
        dm = DistributedMatrix.iota(lay)
        for proc in range(lay.num_procs):
            for off in (0, lay.local_size - 1):
                w = int(dm.local(proc)[off])
                assert lay.owner(w) == proc

    def test_block_assignment_is_cyclic_in_superblocks(self):
        """The s field makes block rows cyclic with respect to the row
        blocks below it (the paper's 'blocks assigned cyclically with
        respect to the row addresses')."""
        lay = self.make()
        owners_col0 = [lay.owner(u << self.Q) for u in range(1 << self.P)]
        first = owners_col0[:16]
        # The inner row field (u_3) repeats every 16 rows ...
        assert owners_col0[16:32] == first
        # ... while the s block field (u_5) flips at row 32.
        assert owners_col0[32:48] == [o + 4 for o in first]
        # Inner pattern: rows 0-7 on the low inner index, 8-15 on the high.
        assert first == [0] * 8 + [2] * 8

    def test_transpose_via_block_router(self):
        """The general block transpose handles the split-field layout."""
        lay = self.make()
        after = Layout(
            self.Q,
            self.P,
            # Mirror: rows of A^T are the old columns.
            (
                ProcField((self.P + self.Q - 1,)),  # v_3 -> top of new rows? see below
            ),
        )
        # Simpler: transpose into a plain 2D cyclic layout of matching n.
        from repro.layout import partition as pt

        after = pt.two_dim_mixed(
            self.Q, self.P, 1, 2, rows="cyclic", cols="cyclic"
        )
        assert after.n == lay.n
        A = np.arange(1 << (self.P + self.Q), dtype=np.float64).reshape(
            1 << self.P, 1 << self.Q
        )
        net = EnsembleNetwork(custom_machine(lay.n))
        out = block_transpose(
            net, DistributedMatrix.from_global(A, lay), after
        )
        assert np.array_equal(out.to_global(), A.T)

    def test_conversion_to_plain_layout(self):
        """Converting the banded storage to a plain 2D layout (the phase
        change between solver stages the paper describes)."""
        from repro.layout import partition as pt

        lay = self.make()
        target = pt.two_dim_mixed(self.P, self.Q, 2, 1)
        assert target.n == lay.n
        A = np.arange(1 << (self.P + self.Q), dtype=np.float64).reshape(
            1 << self.P, 1 << self.Q
        )
        net = EnsembleNetwork(custom_machine(lay.n))
        out = block_convert(net, DistributedMatrix.from_global(A, lay), target)
        assert np.array_equal(out.to_global(), A)
        info = classify_transpose(
            lay, pt.two_dim_mixed(self.Q, self.P, 1, 2)
        )
        assert info.comm_class is not None  # classification applies too
