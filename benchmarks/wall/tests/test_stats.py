import pytest

from benchmarks.wall import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([3, 1, 2], 50) == 2
    assert stats.percentile([7], 99) == 7


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 0)


def test_sample_count_rule_needs_ten_samples_beyond():
    assert not stats.tail_supported(199, 95)
    assert stats.tail_supported(200, 95)
    assert not stats.tail_supported(999, 99)
    assert stats.tail_supported(1000, 99)
    assert stats.highest_supported(1200) == 99
    assert stats.highest_supported(250) == 95
    assert stats.highest_supported(27) is None
