from collections import Counter
from itertools import islice

from benchmarks.wall import mix


def test_request_mix_is_a_pure_function_of_the_seed():
    first = list(islice(mix.problem_stream(7, 0), 200))
    assert first == list(islice(mix.problem_stream(7, 0), 200))
    assert first != list(islice(mix.problem_stream(7, 1), 200))
    assert first != list(islice(mix.problem_stream(8, 0), 200))


def test_every_eighth_request_is_the_fft_pipeline():
    stream = list(islice(mix.problem_stream(3, 0), 80))
    for position, problem in enumerate(stream, start=1):
        assert (problem == mix.FFT_INDEX) == (position % mix.FFT_EVERY == 0)


def test_the_seed_sets_the_order_never_the_proportions():
    for seed in (1, 2, 3):
        block = Counter(islice(mix.problem_stream(seed, 0), mix.BLOCK))
        assert block == {0: 7, 1: 7, 2: 7, 3: 7, mix.FFT_INDEX: 4}


def test_open_schedule_is_a_pure_function_of_the_seed():
    assert mix.open_schedule(7, 120, 5) == mix.open_schedule(7, 120, 5)
    assert mix.open_schedule(7, 120, 5) != mix.open_schedule(11, 120, 5)
    assert mix.open_schedule(7, 120, 5) != mix.open_schedule(7, 120, 5, part=1)


def test_open_schedule_offers_the_same_load_for_every_seed():
    for seed in (7, 11):
        schedule = mix.open_schedule(seed, 120, 10)
        dues = [a.due for a in schedule]
        assert len(schedule) == 1200
        assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] < 10
        faulted = [a for a in schedule if a.faults is not None]
        assert len(faulted) == 1200 // mix.FAULT_EVERY
        assert all(a.kind == "faulted" for a in faulted)
        assert all("link_rate=0.03,transient_rate=0.4,window=4" in a.faults for a in faulted)
        assert {a.kind for a in schedule} == {"clean", "fft", "faulted"}
