#!/usr/bin/env python
"""Algorithm advisor: §9's decision procedure, then a reality check.

For a grid of (machine, matrix size) points this example ranks every
applicable algorithm with the paper's closed-form models, prints the
advisor report, and then *runs* the top recommendation on the simulator
to confirm the prediction is honest (within the scheduling constants).

Run:  python examples/algorithm_advisor.py
"""

import numpy as np

from repro import EnsembleNetwork, DistributedMatrix, transpose, two_dim_cyclic, row_consecutive
from repro.analysis.report import estimate_transpose_options, format_report
from repro.machine.presets import connection_machine, intel_ipsc


def check_prediction(machine, M_bits: int) -> tuple[str, float, float]:
    """Run the planner's choice and compare with the top estimate."""
    p = M_bits // 2
    n = machine.n
    best = estimate_transpose_options(machine, 1 << M_bits)[0]
    if best.partitioning == "1D":
        layout = row_consecutive(p, M_bits - p, n)
    else:
        layout = two_dim_cyclic(p, M_bits - p, n // 2, n // 2)
    A = np.zeros((1 << p, 1 << (M_bits - p)))
    net = EnsembleNetwork(machine)
    result = transpose(net, DistributedMatrix.from_global(A, layout))
    return best.name, best.time, net.time


def main() -> None:
    scenarios = [
        (intel_ipsc(6), 16),
        (intel_ipsc(4), 20),
        (connection_machine(6), 16),
        (connection_machine(10), 20),
    ]
    for machine, bits in scenarios:
        print(format_report(machine, 1 << bits))
        name, predicted, measured = check_prediction(machine, bits)
        ratio = measured / predicted
        print(
            f"reality check: ran the recommended partitioning -> "
            f"{measured * 1e3:.2f} ms measured vs {predicted * 1e3:.2f} ms "
            f"predicted for '{name}' ({ratio:.2f}x)\n"
        )
        assert 0.3 < ratio < 4.0, "model and simulator disagree badly"


if __name__ == "__main__":
    main()
