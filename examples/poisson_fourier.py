#!/usr/bin/env python
"""Poisson's equation by the Fourier (FACR-family) method, distributed.

The paper's second motivating application (§1): "the solution of
Poisson's problem by the Fourier Analysis Cyclic Reduction (FACR)
method" — Fourier-analyze along one axis, solve independent tridiagonal
systems along the other, synthesize back.  Between the two phases the
data must be *transposed*, which is where this library earns its keep.

We solve  u_xx + u_yy = f  on a grid periodic in x and Dirichlet in y:

1. rows (fixed y) are node-local under the consecutive-row layout, so
   the FFT along x is local;
2. transpose (all-to-all exchange on the simulated iPSC);
3. each Fourier mode's tridiagonal system in y is now node-local;
4. transpose back, inverse FFT along x.

The result is verified by applying the discrete Laplacian and checking
the residual against f to machine precision.

Run:  python examples/poisson_fourier.py
"""

import numpy as np

from repro import (
    BufferPolicy,
    EnsembleNetwork,
    DistributedMatrix,
    intel_ipsc,
    row_consecutive,
)
from repro.transpose import one_dim_transpose_exchange

GRID_BITS = 5  # 32 x 32
CUBE_DIM = 3  # 8 nodes
H = 1.0  # grid spacing (unit)


def tridiag_dirichlet_solve(diag: float, rhs: np.ndarray) -> np.ndarray:
    """Solve tridiag(1, diag, 1) u = rhs along the last axis (complex)."""
    m = rhs.shape[-1]
    cp = np.empty(m, dtype=np.complex128)
    u = np.array(rhs, dtype=np.complex128, copy=True)
    cp[0] = 1.0 / diag
    u[..., 0] = u[..., 0] / diag
    for i in range(1, m):
        denom = diag - cp[i - 1]
        cp[i] = 1.0 / denom
        u[..., i] = (u[..., i] - u[..., i - 1]) / denom
    for i in range(m - 2, -1, -1):
        u[..., i] -= cp[i] * u[..., i + 1]
    return u


def discrete_laplacian(u: np.ndarray) -> np.ndarray:
    """Periodic in axis 1 (x), Dirichlet (zero) in axis 0 (y)."""
    lap = -4.0 * u
    lap += np.roll(u, 1, axis=1) + np.roll(u, -1, axis=1)  # periodic x
    lap[1:, :] += u[:-1, :]
    lap[:-1, :] += u[1:, :]
    return lap / H**2


class DistributedPoissonSolver:
    """FFT_x -> transpose -> tridiag_y -> transpose -> IFFT_x."""

    def __init__(self) -> None:
        self.layout = row_consecutive(GRID_BITS, GRID_BITS, CUBE_DIM)
        self.policy = BufferPolicy(mode="threshold")
        self.comm_time = 0.0
        n_grid = 1 << GRID_BITS
        k = np.arange(n_grid)
        self.eigen_x = 2.0 * np.cos(2.0 * np.pi * k / n_grid) - 2.0

    def _transpose(self, dm: DistributedMatrix) -> DistributedMatrix:
        net = EnsembleNetwork(intel_ipsc(CUBE_DIM))
        out = one_dim_transpose_exchange(net, dm, self.layout, policy=self.policy)
        self.comm_time += net.time
        return out

    def _map_rows(self, dm: DistributedMatrix, fn) -> DistributedMatrix:
        rows_per = dm.layout.local_block_shape()[0]
        return dm.map_local(lambda tile, proc: fn(tile, proc, rows_per))

    def solve(self, f: np.ndarray) -> np.ndarray:
        n_grid = 1 << GRID_BITS
        # Complex-valued distributed state (FFT coefficients in flight).
        dm = DistributedMatrix(
            self.layout,
            DistributedMatrix.from_global(
                f.astype(np.complex128), self.layout
            ).local_data,
        )
        # 1. FFT along x: rows are local.
        dm = self._map_rows(dm, lambda b, x, r: np.fft.fft(b, axis=1))
        # 2. Transpose: Fourier modes become rows.
        dm = self._transpose(dm)

        # 3. Per-mode tridiagonal solve in y.  After the transpose, node x
        # holds modes k = x*rows_per .. as its local rows.
        def solve_modes(block, node, rows_per):
            out = np.empty_like(block)
            for r in range(block.shape[0]):
                k = node * rows_per + r
                diag = self.eigen_x[k] - 2.0
                out[r] = tridiag_dirichlet_solve(diag, H**2 * block[r])
            return out

        dm = self._map_rows(dm, solve_modes)
        # 4. Transpose back and synthesize.
        dm = self._transpose(dm)
        dm = self._map_rows(dm, lambda b, x, r: np.fft.ifft(b, axis=1))
        return dm.to_global().real


def main() -> None:
    n_grid = 1 << GRID_BITS
    rng = np.random.default_rng(3)
    f = rng.standard_normal((n_grid, n_grid))

    solver = DistributedPoissonSolver()
    u = solver.solve(f)
    residual = discrete_laplacian(u) - f
    err = np.max(np.abs(residual)) / np.max(np.abs(f))
    print(f"Poisson {n_grid}x{n_grid} (periodic x, Dirichlet y) on "
          f"{1 << CUBE_DIM} simulated nodes")
    print(f"relative residual |Au - f| / |f|: {err:.3e}")
    print(f"modelled transpose communication (iPSC): "
          f"{solver.comm_time * 1e3:.1f} ms over 2 transposes")
    assert err < 1e-10


if __name__ == "__main__":
    main()
