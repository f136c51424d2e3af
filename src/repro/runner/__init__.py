"""Parallel sweep execution with content-addressed result caching.

The reproduction's measurement grid — size sweeps, the 8×8 P2P
matrix, collective scaling curves — is a set of *independent*
deterministic simulations.  This subsystem exploits that twice over:

- :class:`SweepRunner` fans :class:`SimPoint` work units out over a
  process pool (``jobs=N``) with deterministic ordering, so parallel
  output is bit-identical to serial;
- :class:`ResultCache` memoizes each point on disk, keyed by a
  content hash of its parameters, calibration fingerprint, topology
  fingerprint and package version — a warm ``repro run all`` never
  recomputes an unchanged point.

Entry points: ``repro run/methodology/validate --jobs N``,
``Session.runner()``, or the sweep functions' ``runner=`` parameter.
"""

from __future__ import annotations

from typing import Any, Sequence

from .cache import CACHE_DIR_ENV, CacheStats, ResultCache, default_cache_dir
from .keys import UncacheableValueError, canonical_token, point_key
from .points import (
    SimPoint,
    execute_point,
    execute_point_observed,
    resolve_callable,
)
from .runner import RunnerStats, SweepRunner, resolve_jobs


def execute_points(
    points: Sequence[SimPoint], runner: SweepRunner | None = None
) -> list[Any]:
    """Execute a point grid serially, or via ``runner`` when given.

    The bench-suite sweep functions call this so their serial path and
    their runner path share one decomposition — which is what makes
    "parallel ≡ serial" checkable rather than hopeful.
    """
    if runner is None:
        return [point.execute() for point in points]
    return runner.run_points(points)


__all__ = [
    "SweepRunner",
    "SimPoint",
    "ResultCache",
    "RunnerStats",
    "CacheStats",
    "CACHE_DIR_ENV",
    "UncacheableValueError",
    "canonical_token",
    "default_cache_dir",
    "execute_point",
    "execute_point_observed",
    "execute_points",
    "point_key",
    "resolve_callable",
    "resolve_jobs",
]
