"""The stdlib analysis helpers against equivalent numpy expressions.

``cluster_tiers``, ``detect_outliers_iqr`` and ``geometric_summary``
stay numpy-free so the simulator's import path is stdlib-only; these
properties pin them to the numpy expressions they must agree with
(numpy is a test-time dependency here).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import _percentile, cluster_tiers, detect_outliers_iqr
from repro.core.report import geometric_summary

finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
non_negative = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)
positive = st.floats(
    min_value=1e-9, max_value=1e12, allow_nan=False, allow_infinity=False
)
# Repeated values exercise ties (equal order statistics, shared tiers).
samples = st.lists(
    st.sampled_from([0.0, 1.0, 2.5, 37.7, 50.0]) | finite, min_size=2, max_size=60
)


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


@settings(max_examples=300, deadline=None)
@given(samples, st.floats(min_value=0.5, max_value=3.0))
def test_outliers_match_numpy_percentile(values, factor):
    ascending = sorted(values)
    ported = [_percentile(ascending, 25), _percentile(ascending, 75)]
    assert ported == np.percentile(np.asarray(values, dtype=float), [25, 75]).tolist()
    expected = []
    if len(values) >= 4:
        arr = np.asarray(values, dtype=float)
        q1, q3 = np.percentile(arr, [25, 75])
        iqr = q3 - q1
        lo, hi = q1 - factor * iqr, q3 + factor * iqr
        expected = [i for i, v in enumerate(arr) if v < lo or v > hi]
    assert detect_outliers_iqr(values, factor=factor) == expected


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from([0.0, 37.7, 38.0, 50.0]) | non_negative,
        min_size=1,
        max_size=60,
    ),
    st.floats(min_value=0.01, max_value=0.5),
)
def test_tiers_match_numpy_argsort(values, rel_gap):
    order = np.argsort(values)
    sorted_values = np.asarray(values, dtype=float)[order]
    groups = [[int(order[0])]]
    for prev, idx in zip(sorted_values[:-1], range(1, len(order))):
        current = sorted_values[idx]
        if prev > 0 and (current - prev) / max(current, prev) > rel_gap:
            groups.append([])
        groups[-1].append(int(order[idx]))
    centers = [float(np.asarray(values, dtype=float)[g].mean()) for g in groups]

    tiers = cluster_tiers(values, rel_gap=rel_gap)
    # numpy's argsort is not stable, so equal values may list in
    # another order inside a tier; the membership is what must agree.
    assert [sorted(t.members) for t in tiers] == [sorted(g) for g in groups]
    assert all(_close(t.center, c) for t, c in zip(tiers, centers))


@settings(max_examples=300, deadline=None)
@given(st.lists(positive | finite, min_size=1, max_size=60))
def test_summary_matches_numpy(values):
    arr = np.asarray(values, dtype=float)
    summary = geometric_summary(values)
    assert summary["min"] == float(arr.min())
    assert summary["max"] == float(arr.max())
    # Relative to the largest magnitude: with mixed signs the mean may
    # cancel to ~0, where no summation order is relatively accurate.
    assert math.isclose(
        summary["mean"],
        float(arr.mean()),
        rel_tol=1e-12,
        abs_tol=1e-12 * float(np.abs(arr).max()),
    )
    if (arr > 0).all():
        assert _close(summary["gmean"], float(np.exp(np.log(arr).mean())))
    else:
        assert "gmean" not in summary
