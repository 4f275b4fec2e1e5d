#!/usr/bin/env python
"""ADI heat-equation solver with transposition between sweep directions.

The paper's opening motivation: "the solution of partial differential
equations by the Alternating Direction Method is typically carried out by
transposing the data between the solution phases in the different
directions".  This example does exactly that, on the simulated cube:

* the 2D grid is distributed by consecutive block rows, so tridiagonal
  solves along ``x`` are node-local;
* before each ``y``-direction phase the grid is *transposed* with the
  library's all-to-all exchange algorithm, making the ``y`` solves local;
* a Peaceman-Rachford step needs the orthogonal second difference on its
  right-hand side, so each half-step is: transpose, form the RHS locally,
  transpose back, solve locally.

The distributed result is checked step by step against a sequential
reference solver on the gathered grid.

Run:  python examples/adi_heat_equation.py
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

GRID_BITS = 5  # 32 x 32 grid
CUBE_DIM = 3  # 8 processors
STEPS = 5
R = 0.4  # diffusion number r = alpha dt / h^2


def tridiag_solve(c: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - c * d2) u = rhs along the last axis (Thomas algorithm).

    ``d2`` is the 1-D second-difference with Dirichlet (zero) boundaries:
    diagonal ``1 + 2c``, off-diagonals ``-c``.  Vectorized over leading
    axes.
    """
    m = rhs.shape[-1]
    diag = 1 + 2 * c
    cp = np.empty(m)
    u = np.array(rhs, dtype=np.float64, copy=True)
    cp[0] = -c / diag
    u[..., 0] = u[..., 0] / diag
    for i in range(1, m):
        denom = diag + c * cp[i - 1]
        cp[i] = -c / denom
        u[..., i] = (u[..., i] + c * u[..., i - 1]) / denom
    for i in range(m - 2, -1, -1):
        u[..., i] -= cp[i] * u[..., i + 1]
    return u


def second_difference(u: np.ndarray) -> np.ndarray:
    """Second difference along the last axis, zero boundaries."""
    d = -2 * u
    d[..., 1:] += u[..., :-1]
    d[..., :-1] += u[..., 1:]
    return d


def reference_adi_step(U: np.ndarray) -> np.ndarray:
    """One sequential Peaceman-Rachford step on the global grid."""
    half = R / 2
    rhs = U + half * second_difference(U.T).T  # (I + r/2 dyy) U
    U_star = tridiag_solve(half, rhs)  # x-implicit
    rhs2 = U_star + half * second_difference(U_star)  # (I + r/2 dxx)
    return tridiag_solve(half, rhs2.T).T  # y-implicit


class DistributedAdi:
    """The same step, with each directional phase local to the nodes."""

    def __init__(self, U0: np.ndarray) -> None:
        self.row_layout = row_consecutive(GRID_BITS, GRID_BITS, CUBE_DIM)
        self.col_view = row_consecutive(GRID_BITS, GRID_BITS, CUBE_DIM)
        self.dm = DistributedMatrix.from_global(U0, self.row_layout)
        self.policy = BufferPolicy(mode="threshold")
        self.comm_time = 0.0

    def _transpose(self, dm: DistributedMatrix) -> DistributedMatrix:
        net = EnsembleNetwork(intel_ipsc(CUBE_DIM))
        out = one_dim_transpose_exchange(
            net, dm, self.row_layout, policy=self.policy
        )
        self.comm_time += net.time
        return out

    @staticmethod
    def _map_local(dm: DistributedMatrix, fn) -> DistributedMatrix:
        return dm.map_local(lambda tile, proc: fn(tile))

    def step(self) -> None:
        half = R / 2
        # Phase 1: x-implicit.  The RHS needs the y second difference:
        # transpose, difference locally (rows of U^T are grid columns),
        # transpose back.
        t = self._transpose(self.dm)
        t = self._map_local(t, lambda b: b + half * second_difference(b))
        rhs = self._transpose(t)
        u_star = self._map_local(rhs, lambda b: tridiag_solve(half, b))
        # Phase 2: y-implicit, by the mirror dance.
        u_star = self._map_local(
            u_star, lambda b: b + half * second_difference(b)
        )
        t = self._transpose(u_star)
        t = self._map_local(t, lambda b: tridiag_solve(half, b))
        self.dm = self._transpose(t)

    def grid(self) -> np.ndarray:
        return self.dm.to_global()


def main() -> None:
    n_grid = 1 << GRID_BITS
    x = np.linspace(0, 1, n_grid)
    U0 = np.outer(np.sin(np.pi * x), np.sin(2 * np.pi * x))

    solver = DistributedAdi(U0)
    reference = U0.copy()
    for step in range(1, STEPS + 1):
        solver.step()
        reference = reference_adi_step(reference)
        err = np.max(np.abs(solver.grid() - reference))
        print(f"step {step}: max |distributed - sequential| = {err:.3e}")
        assert err < 1e-12

    energy0 = float(np.sum(U0**2))
    energyT = float(np.sum(reference**2))
    print(f"\ndiffusion sanity: energy {energy0:.4f} -> {energyT:.4f} (decreasing)")
    print(
        f"modelled communication spent in {4 * STEPS} transposes on the "
        f"{1 << CUBE_DIM}-node iPSC: {solver.comm_time * 1e3:.1f} ms"
    )


if __name__ == "__main__":
    main()
