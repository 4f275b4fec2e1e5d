"""``payload_move``: a direct planned transpose of real float64 data.

Why: the same engine used the other way — few messages, large numpy
blocks — so ``layout`` and numpy movement dominate and per-message
Python overhead is negligible; an engine change that speeds virtual
replay but slows payload-carrying phases shows here.
"""

from __future__ import annotations

import numpy as np

from benchmarks.wall import adapter as A
from benchmarks.wall.workloads import Workload, probe, span_median

LOG_SIDE = 9  # 512 x 512 = 2^18 elements
MATRICES = 4


class PayloadMove(Workload):
    name = "payload_move"
    pool_size = MATRICES

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        side = 1 << LOG_SIDE
        self.matrices = [rng.standard_normal((side, side)) for _ in range(MATRICES)]
        self.layout = A.partition.two_dim_cyclic(LOG_SIDE, LOG_SIDE, 3, 3)
        self.params = A.custom_machine(6)

    def operation(self, index: int, tracer):
        data = self.matrices[index % MATRICES]
        with tracer.span("layout.from_global"):
            matrix = A.DistributedMatrix.from_global(data, self.layout)
        with tracer.span("transpose.transpose"):
            result = A.transpose(A.EnsembleNetwork(self.params), matrix, algorithm="spt")
        with tracer.span("layout.to_global"):
            moved = result.matrix.to_global()
        if not np.array_equal(moved, data.T):
            return "transposed payload is not bit-identical to data.T"
        if result.stats.messages != 192:
            return f"spt sent {result.stats.messages} messages, not 192"
        return None

    def layers(self, traced, untraced, tracer, effort) -> dict:
        transpose_s = span_median(tracer, "transpose.transpose")
        data = self.matrices[0]

        rows = A.partition.row_consecutive(8, 8, 4)
        small = np.random.default_rng(self.seed).standard_normal((256, 256))
        small_params = A.custom_machine(4)

        def exchange_1d():
            matrix = A.DistributedMatrix.from_global(small, rows)
            A.transpose(A.EnsembleNetwork(small_params), matrix, algorithm="exchange")

        return {
            "layout.from_global_ms": span_median(tracer, "layout.from_global") * 1e3,
            "transpose.transpose_ms": transpose_s * 1e3,
            "layout.to_global_ms": span_median(tracer, "layout.to_global") * 1e3,
            "transpose.payload_elems_per_s": data.size / transpose_s,
            "transpose.exchange_1d_ms": probe(exchange_1d, effort.reps) * 1e3,
            # The plain single-thread baseline, a base for ratios only.
            "numpy.reference_transpose_ms": probe(
                lambda: np.ascontiguousarray(data.T), effort.reps
            )
            * 1e3,
        }
