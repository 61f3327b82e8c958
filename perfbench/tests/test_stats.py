"""Percentiles, quartiles and spreads the benchmark reports."""

import statistics

import pytest

import serve_load
import stats


def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile(list(reversed(values)), 1) == 1


def test_percentile_of_one_sample_and_small_sets():
    assert stats.percentile([7.5], 99) == 7.5
    # 13 commands: p99 is the slowest one, p50 the 7th.
    commands = [float(v) for v in range(13, 0, -1)]
    assert stats.percentile(commands, 99) == 13.0
    assert stats.percentile(commands, 50) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_samples_beyond_p99():
    # A serve block of 1000 requests leaves exactly 10 beyond its p99.
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.samples_beyond(999, 99) == 9
    assert stats.samples_beyond(5000, 99) == 50
    values = list(range(1000))
    p99 = stats.percentile(values, 99)
    assert sum(1 for v in values if v > p99) == stats.samples_beyond(1000, 99)


def test_summary_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
    q1, _, q3 = statistics.quantiles(values, n=4)
    summary = stats.summarize(values)
    assert summary == {"median": statistics.median(values), "q1": q1,
                       "q3": q3, "n": 10}
    assert stats.relative_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))


def test_summary_of_one_sample():
    assert stats.summarize([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}
    assert stats.relative_spread([2.0]) == 0.0


def test_histogram_quantile_interpolates_inside_a_log2_bucket():
    # 10 observations in [0.5, 1), 90 in [1, 2).
    buckets = [(0.0, 0), (1.0, 10), (2.0, 100), (float("inf"), 100)]
    assert serve_load.histogram_quantile(buckets, 10) == pytest.approx(1.0)
    assert serve_load.histogram_quantile(buckets, 5) == pytest.approx(0.75)
    # Rank 55 is the 45th of 90 in [1, 2): halfway.
    assert serve_load.histogram_quantile(buckets, 55) == pytest.approx(1.5)
    assert serve_load.histogram_quantile([], 99) == 0.0


def test_histogram_buckets_parse_openmetrics():
    text = (
        '# TYPE repro_serve_latency_s histogram\n'
        'repro_serve_latency_s_bucket{le="0.5"} 3\n'
        'repro_serve_latency_s_bucket{le="+Inf"} 4\n'
        'repro_serve_latency_s_bucket{le="0.25"} 1\n'
        'repro_serve_latency_s_count 4\n'
    )
    assert serve_load.histogram_buckets(text, "repro_serve_latency_s") == [
        (0.25, 1), (0.5, 3), (float("inf"), 4)]
