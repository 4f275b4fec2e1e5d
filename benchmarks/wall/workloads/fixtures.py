"""Problems and compiled plans several workloads and probes share."""

from __future__ import annotations

from functools import cache
from time import perf_counter

from benchmarks.wall import adapter as A


def cm_problem(n: int, log_elements: int):
    """``(params, before)``: 2^log_elements elements, 2-d cyclic, on the
    Connection Machine preset of dimension ``n``."""
    half = log_elements // 2
    return (
        A.connection_machine(n),
        A.partition.two_dim_cyclic(half, half, n // 2, n // 2),
    )


def capture(n: int, log_elements: int, algorithm: str):
    """One cache-miss compile: ``(result, plan)``."""
    params, before = cm_problem(n, log_elements)
    return A.capture_transpose(params, A.synthetic_matrix(before), algorithm=algorithm)


@cache
def compiled(n: int, log_elements: int, algorithm: str):
    """``(params, plan, capture_seconds)``, compiled once per process."""
    params, _ = cm_problem(n, log_elements)
    t0 = perf_counter()
    _, plan = capture(n, log_elements, algorithm)
    return params, plan, perf_counter() - t0
