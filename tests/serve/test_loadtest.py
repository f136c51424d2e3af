"""Latency percentiles of the serve load test."""

import math

import pytest

from repro.serve.loadtest import _percentile_ms


def _nearest_rank_ms(samples, fraction):
    """The nearest-rank definition: the ceil(f·n)-th smallest sample."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1] * 1e3


@pytest.mark.parametrize(
    "samples, fraction, expected_ms",
    [
        ([1.0, 2.0], 0.50, 1000.0),
        ([1.0, 2.0, 3.0, 4.0], 0.50, 2000.0),
        ([float(i) for i in range(1, 101)], 0.99, 99_000.0),
        ([float(i) for i in range(1, 101)], 0.95, 95_000.0),
        ([3.0, 1.0, 2.0], 0.50, 2000.0),
        ([3.0, 1.0, 2.0], 0.99, 3000.0),
        ([0.25], 0.50, 250.0),
        ([0.25], 0.99, 250.0),
        ([2.0, 1.0], 1.00, 2000.0),
        ([2.0, 1.0], 0.0, 1000.0),
    ],
)
def test_percentile_is_nearest_rank(samples, fraction, expected_ms):
    assert _percentile_ms(samples, fraction) == expected_ms
    assert _percentile_ms(samples, fraction) == _nearest_rank_ms(
        samples, fraction
    )


@pytest.mark.parametrize("n", range(1, 21))
@pytest.mark.parametrize("fraction", [0.50, 0.95, 0.99])
def test_percentile_matches_nearest_rank_on_small_lists(n, fraction):
    samples = [float(i) for i in range(n, 0, -1)]
    assert _percentile_ms(samples, fraction) == _nearest_rank_ms(
        samples, fraction
    )


def test_percentile_of_no_samples_is_zero():
    assert _percentile_ms([], 0.99) == 0.0
