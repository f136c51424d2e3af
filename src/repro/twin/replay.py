"""Windowed shadow replay: re-simulate telemetry, measure drift.

The digital-twin loop (OpenDT-style) applied to the data-movement
model: every telemetry record names an operation the machine measured;
the replayer re-simulates it as a picklable :class:`~repro.runner.SimPoint`
through the normal :class:`~repro.runner.SweepRunner` path — so
caching, spans and fault scenarios apply unchanged — and compares the
predicted duration against the measured one.  The relative error is
*drift*; it is attributed per link (the route's bottleneck edge), per
link tier and per interface, time-weighted by measured duration, and
accumulated into a ledger with configurable alert thresholds.

A record kind maps 1:1 onto a bench-suite measurement function (the
same functions the figure artifacts sweep), which is what makes the
synthetic round trip exact: telemetry synthesized from an artifact's
own points replays through the identical simulations and reports zero
drift under the generating profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..context import resolve_default as resolve_default_topology
from ..core.calibration import CalibrationProfile, DEFAULT_CALIBRATION
from ..errors import TelemetryError
from ..obs.metrics import MetricsRegistry, metric_name, resolve_metrics
from ..runner import SimPoint, SweepRunner
from ..topology.node import NodeTopology
from ..topology.routing import route_between
from .schema import (
    LATENCY_RECORD_BYTES,
    TelemetryRecord,
    TelemetryStream,
    TelemetryWindow,
)

#: Default drift alert threshold: 5% absolute relative error.
DEFAULT_ALERT_THRESHOLD = 0.05


def record_point(
    record: TelemetryRecord,
    *,
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
    label_prefix: str = "shadow",
) -> SimPoint:
    """The :class:`SimPoint` that re-simulates one telemetry record.

    The mapping mirrors the figure sweeps' own point construction, so
    a replayed record and the artifact measurement it came from share
    one result-cache entry when their parameters agree.
    """
    kwargs = record.kwargs
    label = f"{label_prefix}/{record.kind}/{record.t:.9f}"
    if record.kind == "transfer":
        if kwargs.get("peer_access", True):
            return SimPoint.make(
                "shadow",
                label,
                "repro.bench_suites.p2p_matrix:measure_pair_bandwidth",
                src_gcd=kwargs["src"],
                dst_gcd=kwargs["dst"],
                size=kwargs["bytes"],
                topology=topology,
                calibration=calibration,
            )
        return SimPoint.make(
            "shadow",
            label,
            "repro.bench_suites.comm_scope:measure_peer_copy",
            src_gcd=kwargs["src"],
            dst_gcd=kwargs["dst"],
            size=kwargs["bytes"],
            topology=topology,
            calibration=calibration,
        )
    if record.kind == "latency":
        return SimPoint.make(
            "shadow",
            label,
            "repro.bench_suites.p2p_matrix:measure_pair_latency",
            src_gcd=kwargs["src"],
            dst_gcd=kwargs["dst"],
            repetitions=kwargs["repetitions"],
            topology=topology,
            calibration=calibration,
        )
    if record.kind == "h2d":
        return SimPoint.make(
            "shadow",
            label,
            "repro.bench_suites.comm_scope:measure_h2d",
            interface=kwargs["interface"],
            size=kwargs["bytes"],
            gcd=kwargs["gcd"],
            topology=topology,
            calibration=calibration,
        )
    if record.kind == "stream":
        if kwargs["executor"] == kwargs["data"]:
            return SimPoint.make(
                "shadow",
                label,
                "repro.bench_suites.stream:local_stream_copy",
                gcd=kwargs["executor"],
                size=kwargs["bytes"],
                topology=topology,
                calibration=calibration,
            )
        return SimPoint.make(
            "shadow",
            label,
            "repro.bench_suites.stream:remote_stream_copy",
            executor_gcd=kwargs["executor"],
            data_gcd=kwargs["data"],
            size=kwargs["bytes"],
            topology=topology,
            calibration=calibration,
        )
    if record.kind == "host_stream":
        return SimPoint.make(
            "shadow",
            label,
            "repro.bench_suites.stream:multi_gpu_cpu_stream",
            placement=tuple(kwargs["gcds"]),
            size=kwargs["bytes"],
            topology=topology,
            calibration=calibration,
        )
    if record.kind == "collective":
        if kwargs["library"] == "rccl":
            return SimPoint.make(
                "shadow",
                label,
                "repro.bench_suites.rccl_tests:rccl_collective_latency",
                collective=kwargs["collective"],
                num_threads=kwargs["ranks"],
                message_bytes=kwargs["bytes"],
                topology=topology,
                calibration=calibration,
            )
        return SimPoint.make(
            "shadow",
            label,
            "repro.bench_suites.osu:osu_collective_latency",
            collective=kwargs["collective"],
            num_partners=kwargs["ranks"],
            message_bytes=kwargs["bytes"],
            topology=topology,
            calibration=calibration,
        )
    if record.kind == "mpi":
        return SimPoint.make(
            "shadow",
            label,
            "repro.bench_suites.osu:osu_bw",
            src_gcd=kwargs["src"],
            dst_gcd=kwargs["dst"],
            message_bytes=kwargs["bytes"],
            sdma_enabled=kwargs.get("sdma", True),
            topology=topology,
            calibration=calibration,
        )
    raise TelemetryError(f"no replay mapping for record kind {record.kind!r}")


def predicted_duration(record: TelemetryRecord, output: float) -> float:
    """Convert a replayed point's output into a predicted duration.

    Inverts each measurement function's reporting convention —
    bandwidths (bytes/s, with the STREAM 2·S convention where it
    applies) back into seconds, latencies passed through.
    """
    kwargs = record.kwargs
    if output <= 0:
        raise TelemetryError(
            f"replayed {record.kind} record produced a non-positive "
            f"output {output!r}"
        )
    if record.kind in ("transfer", "mpi", "h2d"):
        return kwargs["bytes"] / output
    if record.kind == "stream":
        return 2.0 * kwargs["bytes"] / output
    if record.kind == "host_stream":
        return len(kwargs["gcds"]) * 2.0 * kwargs["bytes"] / output
    # latency / collective functions report seconds directly.
    return output


def record_bytes(record: TelemetryRecord) -> int:
    """Payload bytes a record moved (16 for the latency ping)."""
    if record.kind == "latency":
        return LATENCY_RECORD_BYTES
    return record.kwargs["bytes"]


def attribute_record(
    record: TelemetryRecord, topology: NodeTopology
) -> tuple[str | None, str | None, str]:
    """``(link name, tier name, interface)`` drift dimensions of a record.

    Point-to-point kinds attribute to the *bottleneck* link of the
    bandwidth-maximizing route (the edge whose capacity bounds the
    transfer — the same convention the hardware model uses to pick the
    rate tier); host-side kinds attribute to the GCD's CPU link; kinds
    that span many links at once (collectives) carry only the
    interface dimension.
    """
    kwargs = record.kwargs
    if record.kind in ("transfer", "latency", "mpi"):
        route = route_between(topology, kwargs["src"], kwargs["dst"])
        link = min(route.links, key=lambda l: l.capacity_per_direction)
        interface = {
            "transfer": "memcpy_peer",
            "latency": "memcpy_peer_latency",
            "mpi": "mpi_p2p",
        }[record.kind]
        return link.name, link.tier.name.lower(), interface
    if record.kind == "stream":
        if kwargs["executor"] == kwargs["data"]:
            return None, None, "hbm_stream"
        route = route_between(topology, kwargs["executor"], kwargs["data"])
        link = min(route.links, key=lambda l: l.capacity_per_direction)
        return link.name, link.tier.name.lower(), "kernel_stream"
    if record.kind == "h2d":
        link = topology.cpu_link_of_gcd(kwargs["gcd"])
        return link.name, link.tier.name.lower(), f"h2d/{kwargs['interface']}"
    if record.kind == "host_stream":
        # Listing-1 kernels stream over every placed GCD's CPU link;
        # attribute to the first for a stable single-link dimension.
        link = topology.cpu_link_of_gcd(kwargs["gcds"][0])
        return link.name, link.tier.name.lower(), "multi_gpu_stream"
    if record.kind == "collective":
        return None, None, f"{kwargs['library']}/{kwargs['collective']}"
    return None, None, record.kind


@dataclass
class DriftStat:
    """Accumulated drift of one ledger dimension value."""

    count: int = 0
    weight: float = 0.0  #: summed measured seconds (the time weights)
    _abs_integral: float = 0.0
    _signed_integral: float = 0.0
    max_abs: float = 0.0
    worst: float = 0.0  #: signed drift of the worst record

    def add(self, drift: float, weight: float) -> None:
        """Fold one record's signed relative drift in at ``weight`` seconds."""
        self.count += 1
        self.weight += weight
        self._abs_integral += abs(drift) * weight
        self._signed_integral += drift * weight
        if abs(drift) > self.max_abs:
            self.max_abs = abs(drift)
            self.worst = drift

    @property
    def mean_abs(self) -> float:
        """Time-weighted mean absolute relative error."""
        return self._abs_integral / self.weight if self.weight > 0 else 0.0

    @property
    def mean_signed(self) -> float:
        """Time-weighted mean signed relative error (bias)."""
        return self._signed_integral / self.weight if self.weight > 0 else 0.0

    def to_json(self) -> dict[str, Any]:
        """Plain JSON-able ledger entry."""
        return {
            "count": self.count,
            "weight_seconds": self.weight,
            "mean_abs_drift": self.mean_abs,
            "mean_signed_drift": self.mean_signed,
            "max_abs_drift": self.max_abs,
            "worst_drift": self.worst,
        }


@dataclass
class ShadowReport:
    """Everything one shadow replay learned."""

    telemetry_name: str
    telemetry_fingerprint: str
    calibration_fingerprint: str
    window_seconds: float | None
    alert_threshold: float
    overall: DriftStat
    by_link: dict[str, DriftStat]
    by_tier: dict[str, DriftStat]
    by_interface: dict[str, DriftStat]
    windows: list[dict[str, Any]]
    records: list[dict[str, Any]]
    alerts: list[dict[str, Any]] = field(default_factory=list)
    runner: dict[str, Any] | None = None

    @property
    def max_abs_drift(self) -> float:
        """Largest absolute per-record drift anywhere in the replay."""
        return self.overall.max_abs

    @property
    def max_link_drift(self) -> float:
        """Largest absolute drift over the per-link ledger."""
        return max((s.max_abs for s in self.by_link.values()), default=0.0)

    def to_json(self) -> dict[str, Any]:
        """Plain JSON-able report (the ``repro shadow --json`` payload)."""
        return {
            "schema": "repro-shadow/1",
            "telemetry": self.telemetry_name,
            "telemetry_fingerprint": self.telemetry_fingerprint,
            "calibration_fingerprint": self.calibration_fingerprint,
            "window_seconds": self.window_seconds,
            "alert_threshold": self.alert_threshold,
            "record_count": self.overall.count,
            "max_abs_drift": self.max_abs_drift,
            "overall": self.overall.to_json(),
            "by_link": {k: v.to_json() for k, v in sorted(self.by_link.items())},
            "by_tier": {k: v.to_json() for k, v in sorted(self.by_tier.items())},
            "by_interface": {
                k: v.to_json() for k, v in sorted(self.by_interface.items())
            },
            "windows": self.windows,
            "alerts": self.alerts,
            "records": self.records,
            "runner": self.runner,
        }

    def describe(self, *, top: int = 8) -> str:
        """Human-readable drift summary (the ``repro shadow`` output)."""
        lines = [
            f"Shadow replay of {self.telemetry_name!r}: "
            f"{self.overall.count} record(s), "
            f"{len(self.windows)} window(s)"
            + (
                f" of {self.window_seconds:g} s"
                if self.window_seconds is not None
                else ""
            ),
            f"  calibration {self.calibration_fingerprint[:12]}, "
            f"telemetry {self.telemetry_fingerprint[:12]}",
            f"  overall drift: mean |e| {self.overall.mean_abs:.3%}, "
            f"bias {self.overall.mean_signed:+.3%}, "
            f"max |e| {self.overall.max_abs:.3%}",
        ]
        ranked = sorted(
            self.by_link.items(), key=lambda kv: kv[1].max_abs, reverse=True
        )
        if ranked:
            shown = ranked[:top]
            lines.append(f"  per-link drift (top {len(shown)} of {len(ranked)}):")
            for name, stat in shown:
                flag = " ALERT" if stat.max_abs > self.alert_threshold else ""
                lines.append(
                    f"    {name:<28s} mean |e| {stat.mean_abs:>8.3%}  "
                    f"max |e| {stat.max_abs:>8.3%}  "
                    f"({stat.count} rec){flag}"
                )
        for title, ledger in (
            ("per-tier", self.by_tier),
            ("per-interface", self.by_interface),
        ):
            if ledger:
                lines.append(f"  {title} drift:")
                for name, stat in sorted(ledger.items()):
                    flag = " ALERT" if stat.max_abs > self.alert_threshold else ""
                    lines.append(
                        f"    {name:<28s} mean |e| {stat.mean_abs:>8.3%}  "
                        f"max |e| {stat.max_abs:>8.3%}  "
                        f"({stat.count} rec){flag}"
                    )
        if self.alerts:
            lines.append(
                f"  {len(self.alerts)} alert(s) above the "
                f"{self.alert_threshold:.1%} threshold"
            )
        else:
            lines.append(
                f"  no drift above the {self.alert_threshold:.1%} threshold"
            )
        return "\n".join(lines)


class ShadowReplayer:
    """Replays a telemetry stream window by window.

    ``runner`` routes the per-window point grids through the normal
    sweep machinery (process pool, result cache, span capture);
    without one, points execute serially in-process.  ``metrics``
    receives ``drift/...`` time series — the drift level bracketed
    over each record's measured interval, so the registry's
    time-weighted means match the ledger's.
    """

    def __init__(
        self,
        telemetry: TelemetryStream,
        *,
        topology: NodeTopology | None = None,
        calibration: CalibrationProfile | None = None,
        window: float | None = None,
        alert_threshold: float = DEFAULT_ALERT_THRESHOLD,
        runner: SweepRunner | None = None,
        metrics: "MetricsRegistry | bool | None" = None,
    ) -> None:
        if alert_threshold <= 0:
            raise TelemetryError(
                f"alert threshold must be positive, got {alert_threshold!r}"
            )
        self.telemetry = telemetry
        self.topology = resolve_default_topology(topology)
        self.calibration = calibration or DEFAULT_CALIBRATION
        self.window = window
        self.alert_threshold = alert_threshold
        self.runner = runner
        self.metrics = resolve_metrics(metrics)

    def replay(self) -> ShadowReport:
        """Re-simulate every window and assemble the drift ledger."""
        report = ShadowReport(
            telemetry_name=self.telemetry.name,
            telemetry_fingerprint=self.telemetry.fingerprint(),
            calibration_fingerprint=self.calibration.fingerprint(),
            window_seconds=self.window,
            alert_threshold=self.alert_threshold,
            overall=DriftStat(),
            by_link={},
            by_tier={},
            by_interface={},
            windows=[],
            records=[],
        )
        for window in self.telemetry.windows(self.window):
            self._replay_window(window, report)
        for dimension, ledger in (
            ("link", report.by_link),
            ("tier", report.by_tier),
            ("interface", report.by_interface),
        ):
            for key, stat in sorted(ledger.items()):
                if stat.max_abs > self.alert_threshold:
                    report.alerts.append(
                        {
                            "dimension": dimension,
                            "key": key,
                            "max_abs_drift": stat.max_abs,
                            "worst_drift": stat.worst,
                            "threshold": self.alert_threshold,
                        }
                    )
        if self.runner is not None:
            report.runner = self.runner.stats.as_dict()
        return report

    def _replay_window(self, window: TelemetryWindow, report: ShadowReport) -> None:
        points = [
            record_point(
                record,
                topology=self.topology,
                calibration=self.calibration,
                label_prefix=f"w{window.index}",
            )
            for record in window.records
        ]
        if self.runner is not None:
            outputs = self.runner.run_points(points)
        else:
            outputs = [point.execute() for point in points]
        stat = DriftStat()
        for record, output in zip(window.records, outputs):
            predicted = predicted_duration(record, output)
            drift = (predicted - record.duration) / record.duration
            link, tier, interface = attribute_record(record, self.topology)
            stat.add(drift, record.duration)
            report.overall.add(drift, record.duration)
            if link is not None:
                report.by_link.setdefault(link, DriftStat()).add(
                    drift, record.duration
                )
            if tier is not None:
                report.by_tier.setdefault(tier, DriftStat()).add(
                    drift, record.duration
                )
            report.by_interface.setdefault(interface, DriftStat()).add(
                drift, record.duration
            )
            self._publish(record, drift, link, tier, interface)
            report.records.append(
                {
                    "t": record.t,
                    "kind": record.kind,
                    "window": window.index,
                    "link": link,
                    "tier": tier,
                    "interface": interface,
                    "bytes": record_bytes(record),
                    "measured_duration": record.duration,
                    "predicted_duration": predicted,
                    "drift": drift,
                }
            )
        report.windows.append(
            {
                "index": window.index,
                "start": window.start,
                "end": window.end,
                "records": len(window.records),
                "mean_abs_drift": stat.mean_abs,
                "max_abs_drift": stat.max_abs,
            }
        )

    def _publish(
        self,
        record: TelemetryRecord,
        drift: float,
        link: str | None,
        tier: str | None,
        interface: str,
    ) -> None:
        metrics = self.metrics
        if not metrics:
            return
        for dimension, key in (
            ("link", link),
            ("tier", tier),
            ("interface", interface),
        ):
            if key is None:
                continue
            series = metrics.timeseries(metric_name(("drift", dimension, key)))
            # Bracket the drift level over the record's measured
            # interval so the series' time-weighted mean integrates
            # |drift| · duration, matching the ledger's weights.
            series.observe(record.t, abs(drift))
            series.observe(record.end, 0.0)


def shadow_replay(
    telemetry: TelemetryStream,
    *,
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
    window: float | None = None,
    alert_threshold: float = DEFAULT_ALERT_THRESHOLD,
    runner: SweepRunner | None = None,
    metrics: "MetricsRegistry | bool | None" = None,
) -> ShadowReport:
    """One-call shadow replay (see :class:`ShadowReplayer`)."""
    return ShadowReplayer(
        telemetry,
        topology=topology,
        calibration=calibration,
        window=window,
        alert_threshold=alert_threshold,
        runner=runner,
        metrics=metrics,
    ).replay()
