"""Transposition with change of assignment scheme (§6.2).

The paper's worked case: a matrix stored *consecutively* in both axes
(two-dimensional, ``n_r = n_c``) transposed into a *cyclically* stored
result, with ``p = q >= 2 n_r``.  Three exchange-based algorithms differ
in how dimension pairs are ordered:

1. convert row assignment, convert column assignment, then transpose
   globally — ``2n`` communication steps;
2. transpose locally first, then the two conversions, then local
   transposes of the per-node sub-matrices — ``n`` communication steps;
3. pair the conversion and transpose exchanges directly (consecutive-
   column to cyclic-column *between rows*, and vice versa) — ``n``
   communication steps and no pre-transposition, at the cost of a final
   local shuffle.

Each algorithm is expressed as an explicit pair sequence for the
exchange executor; whatever local (virtual-virtual) residue the comm
steps leave is computed against the exact target permutation and
appended as free local steps, so all three provably produce ``A^T``.
"""

from __future__ import annotations

from repro.layout.fields import Layout
from repro.layout.matrix import DistributedMatrix
from repro.machine.engine import EnsembleNetwork
from repro.transpose.exchange import (
    BufferPolicy,
    exchange_transpose,
    plan_exchange_sequence,
    transpose_bit_permutation,
)

__all__ = ["remap_transpose", "remap_pair_sequence"]


def _field_positions(p: int, q: int, nr: int) -> dict[str, list[int]]:
    """MSB-first position lists of the six §6.2 sub-fields.

    ``u1``/``v1`` are the consecutive (before) processor fields, ``u3`` /
    ``v3`` the cyclic (after) fields, ``u2``/``v2`` the middles.
    """
    m = p + q
    return {
        "u1": list(range(m - 1, m - nr - 1, -1)),
        "u2": list(range(m - nr - 1, q + nr - 1, -1)),
        "u3": list(range(q + nr - 1, q - 1, -1)),
        "v1": list(range(q - 1, q - nr - 1, -1)),
        "v2": list(range(q - nr - 1, nr - 1, -1)),
        "v3": list(range(nr - 1, -1, -1)),
    }


def remap_pair_sequence(
    before: Layout, after: Layout, algorithm: int, *, columns_first: bool = False
) -> list[tuple[int, int]]:
    """The §6.2 exchange schedule for consecutive -> cyclic transposition.

    The sequence starts with the algorithm's communication steps (pairs
    touching processor dimensions) and ends with the residual local
    steps that align the virtual dimensions with the target layout.
    """
    p, q = before.p, before.q
    if p != q:
        raise ValueError("the §6.2 algorithms assume a square matrix (p == q)")
    nr = before.fields[0].width
    if any(f.width != nr for f in before.fields + after.fields):
        raise ValueError("the §6.2 algorithms assume n_r == n_c")
    if p < 2 * nr:
        raise ValueError("the §6.2 algorithms assume p, q >= 2 n_r")
    f = _field_positions(p, q, nr)

    if algorithm == 1:
        # Convert rows (u1 <-> u3), convert columns (v1 <-> v3), then
        # transpose globally: 2n communication steps.  §6.2: "the order
        # between exchange-row and exchange-column operations can be
        # reversed".
        row_conv = list(zip(f["u1"], f["u3"]))
        col_conv = list(zip(f["v1"], f["v3"]))
        pairs = col_conv + row_conv if columns_first else row_conv + col_conv
        pairs += [(q + j, j) for j in range(q - 1, -1, -1)]
    elif algorithm == 2:
        # Local transpose of the vp sub-matrix (u2u3 <-> v2v3) first;
        # the conversions then run within each axis — after the local
        # transpose the v3 content sits at the u3 *positions*, so the
        # row conversion (u1 <-> u3 positions) deposits it into the row
        # processor field directly.  n communication steps; the final
        # local sub-matrix transposes fall out of the residual.
        pairs = [(q + j, j) for j in range(q - nr - 1, -1, -1)]
        row_conv = list(zip(f["u1"], f["u3"]))
        col_conv = list(zip(f["v1"], f["v3"]))
        pairs += col_conv + row_conv if columns_first else row_conv + col_conv
    elif algorithm == 3:
        # Pair conversion with transposition directly: u1 <-> v3 within
        # column subcubes, v1 <-> u3 within row subcubes; n communication
        # steps, a local shuffle patches the rest.
        row_part = list(zip(f["u1"], f["v3"]))
        col_part = list(zip(f["v1"], f["u3"]))
        pairs = col_part + row_part if columns_first else row_part + col_part
    else:
        raise ValueError(f"§6.2 defines algorithms 1, 2 and 3; got {algorithm}")

    # Residual: whatever remains to reach the exact target permutation
    # must involve only virtual dimensions (free local movement).
    target = transpose_bit_permutation(before, after)
    pos = {d: d for d in range(before.m)}
    for a, b in pairs:
        for o, loc in pos.items():
            if loc == a:
                pos[o] = b
            elif loc == b:
                pos[o] = a
    residual = {pos[o]: target[o] for o in pos}
    proc = before.proc_dim_set
    local_steps = plan_exchange_sequence(residual, before)
    for a, b in local_steps:
        if a in proc or b in proc:
            raise AssertionError(
                f"algorithm {algorithm} left a non-local residual ({a},{b})"
            )
    return pairs + local_steps


def remap_transpose(
    network: EnsembleNetwork,
    dm: DistributedMatrix,
    after: Layout,
    *,
    algorithm: int = 3,
    columns_first: bool = False,
    policy: BufferPolicy | None = None,
) -> DistributedMatrix:
    """Transpose 2D-consecutive data into 2D-cyclic layout (§6.2).

    ``columns_first`` reverses the exchange-row / exchange-column order,
    which §6.2 notes is immaterial — a property the tests verify.
    """
    pairs = remap_pair_sequence(
        dm.layout, after, algorithm, columns_first=columns_first
    )
    return exchange_transpose(network, dm, after, policy=policy, pairs=pairs)
