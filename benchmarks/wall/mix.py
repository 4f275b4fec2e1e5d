"""Seeded request mixes and arrival schedules (pure functions of the seed).

Nothing here imports the program: a request is a plain dict in the
``BatchRequest`` vocabulary, so the self-tests can check determinism
without the program on the path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The four small transposes every served request is drawn from …
POOL = (
    {"n": 4, "machine": "cm", "layout": "2d", "elements": 1 << 8},
    {"n": 4, "machine": "cm", "layout": "2d", "elements": 1 << 10},
    {"n": 4, "machine": "cm", "layout": "1d-rows", "elements": 1 << 9},
    {"n": 4, "machine": "cm", "layout": "1d-cols", "elements": 1 << 8},
)
#: … and the pipeline every ``FFT_EVERY``-th request is replaced by.
FFT = {"n": 4, "machine": "cm", "workload": "fft@16x16"}
FFT_EVERY = 8
PROBLEMS = (*POOL, FFT)
FFT_INDEX = len(POOL)

#: Open loop: offered rate, and the share of requests carrying faults.
OPEN_RATE = 120.0
FAULT_EVERY = 10
TENANTS = 4


#: Requests per balanced block of :func:`problem_stream`.
BLOCK = 32


def problem_stream(seed: int, stream):
    """Endless indices into :data:`PROBLEMS` for one client: every
    eighth is the fft pipeline, the rest a seeded shuffle in which each
    pool entry comes up equally often per block of ``BLOCK`` — the seed
    sets the order, never the proportions, so the traffic mix is the
    same from seed to seed."""
    rng = random.Random(f"{seed}/{stream}")
    pool_draws = BLOCK - BLOCK // FFT_EVERY
    while True:
        draws = list(range(len(POOL))) * (pool_draws // len(POOL))
        rng.shuffle(draws)
        for position in range(1, BLOCK + 1):
            yield FFT_INDEX if position % FFT_EVERY == 0 else draws.pop()


@dataclass(frozen=True)
class Arrival:
    """One open-loop request: when it is due and what it asks for."""

    due: float  # seconds after the schedule starts
    problem: int  # index into PROBLEMS
    faults: str | None  # loadgen-style fault spec, or None

    @property
    def kind(self) -> str:
        if self.faults is not None:
            return "faulted"
        return "fft" if self.problem == FFT_INDEX else "clean"


def open_schedule(seed: int, rate: float, seconds: float, part: int = 0) -> list[Arrival]:
    """Poisson arrivals at ``rate`` requests/s over ``seconds``, given
    their number: ``round(rate * seconds)`` independent uniform instants
    (a Poisson process conditioned on its count), so every seed offers
    the same load.  ``part`` numbers the successive schedules of one run."""
    rng = random.Random(f"{seed}/open/{part}")
    problems = problem_stream(seed, stream=f"open/{part}")
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))
    # Every tenth request is faulted, from a seeded offset.
    offset = rng.randrange(FAULT_EVERY)
    arrivals = []
    for index, due in enumerate(dues):
        faults = None
        if index % FAULT_EVERY == offset:
            faults = (
                f"seed={rng.randrange(1 << 16)},link_rate=0.03,"
                "transient_rate=0.4,window=4"
            )
        arrivals.append(Arrival(due, next(problems), faults))
    return arrivals
