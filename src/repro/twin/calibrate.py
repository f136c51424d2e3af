"""Auto-calibrator: fit efficiency constants to a telemetry stream.

The performance model is mechanistic; its empirical content lives in
the bounded efficiency constants of
:class:`~repro.core.calibration.CalibrationProfile`.  When a machine's
telemetry drifts from the model — different ROCm release, different
firmware SDMA tuning, a degraded link — the constants are what should
absorb the difference.  The fitter minimizes the duration-weighted sum
of squared relative residuals between predicted and measured durations
over the stream, by deterministic coordinate descent: each pass runs a
golden-section line search per sensitive field over its validity
bounds, and passes repeat until the objective stops improving.

There is no randomness anywhere (fixed probe offsets, fixed bracket
arithmetic), so the same telemetry and base profile always fit to the
same constants — a requirement for the fitted profile's fingerprint to
be a meaningful result-cache key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..context import resolve_default as resolve_default_topology
from ..core.calibration import CalibrationProfile, DEFAULT_CALIBRATION
from ..errors import CalibrationError, TelemetryError
from ..topology.node import NodeTopology
from .replay import predicted_duration, record_point
from .schema import TelemetryRecord, TelemetryStream

#: The fittable constants: every bounded efficiency field of the
#: profile, with the search interval the fitter may explore.  The
#: validity constraint is ``0 < value <= 1``; the lower bound here is
#: a practical floor (a fabric running below 5 % efficiency is broken
#: hardware, not a calibration problem).
FIT_BOUNDS: dict[str, tuple[float, float]] = {
    "sdma_xgmi_efficiency": (0.05, 1.0),
    "sdma_cpu_link_efficiency": (0.05, 1.0),
    "hbm_stream_efficiency": (0.05, 1.0),
    "kernel_xgmi_uni_efficiency": (0.05, 1.0),
    "kernel_xgmi_bidir_efficiency": (0.05, 1.0),
    "kernel_cpu_uni_efficiency": (0.05, 1.0),
    "kernel_cpu_cached_efficiency": (0.05, 1.0),
    "pageable_efficiency": (0.05, 1.0),
    "mpi_protocol_efficiency": (0.05, 1.0),
}

#: Relative probe offset of the sensitivity check.
_PROBE_STEP = 0.02
#: A field whose probe moves the objective by less than this fraction
#: of it is insensitive for this stream and is skipped (e.g. the SDMA
#: xGMI efficiency when every record rides the flat engine-bound
#: region, or the pageable efficiency when no pageable H2D was seen).
_SENSITIVITY_FLOOR = 1e-12

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class _Objective:
    """Duration-weighted squared-relative-residual objective.

    One call simulates every (distinct) record under the candidate
    profile.  Records sharing kind and fields collapse to one
    simulation — telemetry streams repeat operations, predictions
    don't care about timestamps.
    """

    def __init__(
        self, records: Sequence[TelemetryRecord], topology: NodeTopology
    ) -> None:
        self.records = records
        self.topology = topology
        #: Measured durations, which are also the residual weights.
        self.measured = [float(r.duration) for r in records]
        self.weight_sum = math.fsum(self.measured)
        self.evaluations = 0

    def residuals(self, profile: CalibrationProfile) -> list[float]:
        self.evaluations += 1
        memo: dict[tuple[str, tuple], float] = {}
        residuals = []
        for record, measured in zip(self.records, self.measured):
            key = (record.kind, record.fields)
            value = memo.get(key)
            if value is None:
                point = record_point(
                    record, topology=self.topology, calibration=profile
                )
                value = predicted_duration(record, point.execute())
                memo[key] = value
            residuals.append((value - measured) / measured)
        return residuals

    def __call__(self, profile: CalibrationProfile) -> float:
        residuals = self.residuals(profile)
        return math.fsum(
            weight * r * r for weight, r in zip(self.measured, residuals)
        )

    def rms(self, objective_value: float) -> float:
        """Weighted RMS relative residual for an objective value."""
        if self.weight_sum <= 0:
            return 0.0
        return math.sqrt(max(objective_value, 0.0) / self.weight_sum)


def _golden_section(
    fn: Callable[[float], float], lo: float, hi: float, *, xtol: float
) -> tuple[float, float]:
    """Deterministic golden-section minimum of ``fn`` on ``[lo, hi]``."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc = fn(c)
    fd = fn(d)
    while hi - lo > xtol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = fn(d)
    x = 0.5 * (lo + hi)
    return x, fn(x)


@dataclass(frozen=True)
class CalibrationFit:
    """Result of one auto-calibration run."""

    profile: CalibrationProfile
    base_fingerprint: str
    telemetry_name: str
    telemetry_fingerprint: str
    fitted_fields: tuple[str, ...]
    skipped_fields: tuple[str, ...]
    initial_rms: float
    final_rms: float
    evaluations: int
    passes: int
    record_count: int

    def provenance(self) -> dict[str, Any]:
        """Provenance block for :func:`~repro.core.calibration.profile_to_json`."""
        return {
            "source": "fitted-from-telemetry",
            "telemetry": self.telemetry_name,
            "telemetry_fingerprint": self.telemetry_fingerprint,
            "fitted_fields": list(self.fitted_fields),
            "initial_rms": self.initial_rms,
            "final_rms": self.final_rms,
            "evaluations": self.evaluations,
        }

    def to_json(self) -> dict[str, Any]:
        """Plain JSON-able fit summary (the ``repro calibrate --json`` payload)."""
        return {
            "schema": "repro-calibration-fit/1",
            "telemetry": self.telemetry_name,
            "telemetry_fingerprint": self.telemetry_fingerprint,
            "base_fingerprint": self.base_fingerprint,
            "profile_fingerprint": self.profile.fingerprint(),
            "fitted_fields": {
                name: getattr(self.profile, name) for name in self.fitted_fields
            },
            "skipped_fields": list(self.skipped_fields),
            "initial_rms": self.initial_rms,
            "final_rms": self.final_rms,
            "evaluations": self.evaluations,
            "passes": self.passes,
            "record_count": self.record_count,
        }

    def describe(self) -> str:
        """Human-readable fit summary (the ``repro calibrate`` output)."""
        lines = [
            f"Calibration fit against {self.telemetry_name!r} "
            f"({self.record_count} record(s)):",
            f"  residual RMS {self.initial_rms:.3%} -> {self.final_rms:.3%} "
            f"in {self.passes} pass(es), {self.evaluations} evaluation(s)",
        ]
        for name in self.fitted_fields:
            lines.append(f"    {name:<32s} = {getattr(self.profile, name):.6f}")
        if self.skipped_fields:
            lines.append(
                "  insensitive for this stream: "
                + ", ".join(self.skipped_fields)
            )
        lines.append(f"  fitted profile fingerprint {self.profile.fingerprint()[:12]}")
        return "\n".join(lines)


def fit_calibration(
    telemetry: TelemetryStream,
    *,
    topology: NodeTopology | None = None,
    base: CalibrationProfile | None = None,
    fields: Sequence[str] | None = None,
    max_passes: int = 4,
    tol: float = 1e-10,
    xtol: float = 1e-5,
) -> CalibrationFit:
    """Fit efficiency constants so the model reproduces ``telemetry``.

    ``fields`` narrows the fit to a subset of :data:`FIT_BOUNDS` (e.g.
    just the SDMA efficiencies when only copy telemetry is trusted);
    by default every fittable field the stream is actually sensitive
    to participates.  ``xtol`` is the line-search resolution in field
    units, ``tol`` the relative pass-over-pass improvement below which
    coordinate descent stops.
    """
    if not telemetry.records:
        raise TelemetryError("cannot calibrate against an empty telemetry stream")
    if max_passes < 1:
        raise CalibrationError(f"max_passes must be >= 1, got {max_passes!r}")
    topology = resolve_default_topology(topology)
    base = base if base is not None else DEFAULT_CALIBRATION
    if fields is None:
        candidates = sorted(FIT_BOUNDS)
    else:
        candidates = list(dict.fromkeys(fields))
        unknown = [name for name in candidates if name not in FIT_BOUNDS]
        if unknown:
            raise CalibrationError(
                f"not fittable field(s): {', '.join(unknown)} "
                f"(fittable: {', '.join(sorted(FIT_BOUNDS))})"
            )

    objective = _Objective(telemetry.records, topology)
    base_value = objective(base)
    floor = _SENSITIVITY_FLOOR * max(base_value, 1e-30)

    active: list[str] = []
    skipped: list[str] = []
    for name in candidates:
        lo, hi = FIT_BOUNDS[name]
        value = getattr(base, name)
        delta = 0.0
        for factor in (1.0 - _PROBE_STEP, 1.0 + _PROBE_STEP):
            probe = min(max(value * factor, lo), hi)
            if probe == value:
                continue
            delta = max(delta, abs(objective(base.with_(**{name: probe})) - base_value))
        if delta > floor:
            active.append(name)
        else:
            skipped.append(name)

    profile = base
    best = base_value
    passes = 0
    for _ in range(max_passes):
        passes += 1
        pass_start = best
        for name in active:
            lo, hi = FIT_BOUNDS[name]
            current = profile

            def line(x: float, _name: str = name, _profile: CalibrationProfile = current) -> float:
                return objective(_profile.with_(**{_name: x}))

            x, fx = _golden_section(line, lo, hi, xtol=xtol)
            if fx < best:
                profile = profile.with_(**{name: x})
                best = fx
        if pass_start - best <= tol * max(pass_start, 1e-30):
            break

    return CalibrationFit(
        profile=profile,
        base_fingerprint=base.fingerprint(),
        telemetry_name=telemetry.name,
        telemetry_fingerprint=telemetry.fingerprint(),
        fitted_fields=tuple(active),
        skipped_fields=tuple(skipped),
        initial_rms=objective.rms(base_value),
        final_rms=objective.rms(best),
        evaluations=objective.evaluations,
        passes=passes,
        record_count=len(telemetry.records),
    )
