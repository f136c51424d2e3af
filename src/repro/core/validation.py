"""System validation: the paper's intended artifact use.

"Our test and evaluation method serves as a base for validating memory
and communication strategies on a system" (abstract).  This module
packages that: :func:`validate_node` runs quick probes of every
data-movement interface on a node and checks each against the
*expectation derived from the node's own calibration* — not against
the paper's numbers — so it works unchanged on what-if scenarios
(:mod:`repro.core.whatif`) and custom topologies.

A failed check means the measured behaviour disagrees with the
configured capability: on real hardware that is a misconfiguration
(wrong XNACK build, SDMA setting, NUMA binding); in the simulator it
flags a modelling regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..context import resolve_default as resolve_default_topology
from ..runner import SimPoint, SweepRunner, execute_points
from ..topology.link import LinkTier
from ..topology.node import NodeTopology
from ..units import GiB, MiB, to_gbps, to_us
from .calibration import CalibrationProfile, DEFAULT_CALIBRATION


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one validation probe."""

    check_id: str
    passed: bool
    observed: float
    expected: float
    unit: str
    detail: str = ""

    def format(self) -> str:
        """One PASS/FAIL report line."""
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"[{status}] {self.check_id:32s} observed "
            f"{self.observed:10.2f} {self.unit}, expected "
            f"{self.expected:10.2f} {self.unit}"
        )
        if self.detail:
            line += f"  ({self.detail})"
        return line

    def as_dict(self) -> dict:
        """Machine-readable form (``repro validate --json``)."""
        return {
            "check_id": self.check_id,
            "passed": self.passed,
            "observed": self.observed,
            "expected": self.expected,
            "unit": self.unit,
            "detail": self.detail,
        }


@dataclass
class ValidationReport:
    """All check results of one validation run."""

    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every check passed."""
        return all(result.passed for result in self.results)

    @property
    def failures(self) -> list[CheckResult]:
        """The failed checks, in run order."""
        return [result for result in self.results if not result.passed]

    def text(self) -> str:
        """Full report: one line per check plus a tally."""
        lines = [result.format() for result in self.results]
        lines.append(
            f"{sum(r.passed for r in self.results)}/{len(self.results)} "
            "checks passed"
        )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """Machine-readable form (``repro validate --json``)."""
        return {
            "passed": self.passed,
            "checks": [result.as_dict() for result in self.results],
            "total": len(self.results),
            "failed": len(self.failures),
        }


def _within(observed: float, expected: float, rel_tol: float) -> bool:
    if expected == 0:
        return observed == 0
    return abs(observed - expected) <= rel_tol * abs(expected)


def validation_points(
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
    *,
    probe_bytes: int = 512 * MiB,
) -> list[SimPoint]:
    """The validation battery decomposed into independent sim points.

    Probe order matches :func:`validate_node`'s report order: the three
    H2D interfaces, the multi-GCD scaling probes, three probes per
    GCD0 neighbor (SDMA, kernel zero-copy, latency), then local HBM.
    """
    topology = resolve_default_topology(topology)
    if calibration is None:
        calibration = DEFAULT_CALIBRATION
    points = [
        SimPoint.make(
            "validate",
            "h2d/pinned_memcpy",
            "repro.bench_suites.comm_scope:measure_h2d",
            interface="pinned_memcpy",
            size=probe_bytes,
            topology=topology,
            calibration=calibration,
        ),
        SimPoint.make(
            "validate",
            "h2d/managed_zerocopy",
            "repro.bench_suites.comm_scope:measure_h2d",
            interface="managed_zerocopy",
            size=probe_bytes,
            topology=topology,
            calibration=calibration,
        ),
        SimPoint.make(
            "validate",
            "h2d/managed_migration",
            "repro.bench_suites.comm_scope:measure_h2d",
            interface="managed_migration",
            size=min(probe_bytes, 256 * MiB),
            topology=topology,
            calibration=calibration,
        ),
        SimPoint.make(
            "validate",
            "scaling/one",
            "repro.bench_suites.stream:multi_gpu_cpu_stream",
            placement=(0,),
            size=probe_bytes,
            topology=topology,
            calibration=calibration,
        ),
    ]
    sibling = topology.package_peer(0)
    if sibling is not None:
        points.append(
            SimPoint.make(
                "validate",
                "scaling/same_gpu",
                "repro.bench_suites.stream:multi_gpu_cpu_stream",
                placement=(0, sibling),
                size=probe_bytes,
                topology=topology,
                calibration=calibration,
            )
        )
    for dst in topology.gcd_neighbors(0):
        points.append(
            SimPoint.make(
                "validate",
                f"p2p/sdma/0-{dst}",
                "repro.bench_suites.p2p_matrix:measure_pair_bandwidth",
                src_gcd=0,
                dst_gcd=dst,
                size=probe_bytes,
                topology=topology,
                calibration=calibration,
            )
        )
        points.append(
            SimPoint.make(
                "validate",
                f"p2p/kernel/0-{dst}",
                "repro.bench_suites.stream:remote_stream_copy",
                executor_gcd=0,
                data_gcd=dst,
                size=probe_bytes,
                topology=topology,
                calibration=calibration,
            )
        )
        points.append(
            SimPoint.make(
                "validate",
                f"p2p/latency/0-{dst}",
                "repro.bench_suites.p2p_matrix:measure_pair_latency",
                src_gcd=0,
                dst_gcd=dst,
                topology=topology,
                calibration=calibration,
            )
        )
    points.append(
        SimPoint.make(
            "validate",
            "local/hbm_stream",
            "repro.bench_suites.stream:local_stream_copy",
            gcd=0,
            size=min(probe_bytes, 1 * GiB),
            topology=topology,
            calibration=calibration,
        )
    )
    return points


def validate_node(
    topology: NodeTopology | None = None,
    calibration: CalibrationProfile | None = None,
    *,
    rel_tol: float = 0.05,
    probe_bytes: int = 512 * MiB,
    runner: SweepRunner | None = None,
) -> ValidationReport:
    """Run the validation battery; returns a :class:`ValidationReport`.

    Each check's *expected* value is computed from the calibration
    profile and topology, so the battery validates mechanism ↔
    configuration consistency rather than specific magnitudes.  With a
    ``runner``, the probes fan out through its cache/worker pool and
    the report is assembled from outputs in probe order.
    """
    topology = resolve_default_topology(topology)
    if calibration is None:
        calibration = DEFAULT_CALIBRATION
    points = validation_points(
        topology, calibration, probe_bytes=probe_bytes
    )
    outputs = iter(execute_points(points, runner))
    report = ValidationReport()

    def check(
        check_id: str,
        observed: float,
        expected: float,
        unit: str,
        *,
        tol: float = rel_tol,
        detail: str = "",
    ) -> None:
        report.results.append(
            CheckResult(
                check_id,
                _within(observed, expected, tol),
                observed,
                expected,
                unit,
                detail,
            )
        )

    # --- CPU-GPU interfaces -------------------------------------------------
    pinned = next(outputs)
    check(
        "h2d.pinned_memcpy",
        to_gbps(pinned),
        to_gbps(calibration.sdma_cap_for_tier(LinkTier.CPU)),
        "GB/s",
        detail="SDMA engine over the CPU link",
    )

    zerocopy = next(outputs)
    check(
        "h2d.managed_zerocopy",
        to_gbps(zerocopy),
        to_gbps(
            calibration.kernel_remote_cap(LinkTier.CPU, bidirectional=False)
        ),
        "GB/s",
        detail="kernel zero-copy over the CPU link",
    )

    migration = next(outputs)
    check(
        "h2d.managed_migration",
        to_gbps(migration),
        to_gbps(calibration.page_migration_bw()),
        "GB/s",
        detail="XNACK fault-bound page migration",
    )

    # --- multi-GCD scaling ----------------------------------------------------
    one = next(outputs)
    gcd0 = topology.gcd(0)
    sibling = topology.package_peer(0)
    if sibling is not None:
        same = next(outputs)
        check(
            "scaling.same_gpu_flat",
            to_gbps(same),
            to_gbps(one),
            "GB/s",
            detail="both GCDs share one NUMA IF port",
        )

    # --- GPU-GPU interfaces ------------------------------------------------------
    neighbors = topology.gcd_neighbors(0)
    for dst in neighbors:
        tier = topology.peer_tier(0, dst)
        assert tier is not None
        sdma = next(outputs)
        check(
            f"p2p.sdma.gcd0->{dst}",
            to_gbps(sdma),
            to_gbps(calibration.sdma_cap_for_tier(tier)),
            "GB/s",
            detail=f"{tier.name.lower()} link, engine-capped",
        )
        kernel = next(outputs)
        check(
            f"p2p.kernel_bidir.gcd0<->{dst}",
            to_gbps(kernel),
            to_gbps(
                2
                * calibration.kernel_remote_cap(tier, bidirectional=True)
            ),
            "GB/s",
            detail=f"{tier.name.lower()} link, zero-copy both directions",
        )
        latency = next(outputs)
        from ..hip.memcpy import pair_jitter

        expected_latency = calibration.p2p_latency(
            1, tier, pair_jitter(0, dst)
        )
        check(
            f"p2p.latency.gcd0->{dst}",
            to_us(latency),
            to_us(expected_latency),
            "us",
            tol=0.02,
            detail="hipMemcpyPeerAsync, event-timed",
        )

    # --- local memory ----------------------------------------------------------------
    local = next(outputs)
    check(
        "local.hbm_stream",
        to_gbps(local),
        to_gbps(calibration.hbm_stream_bw(gcd0.hbm_peak_bw)),
        "GB/s",
        detail="STREAM copy in local HBM",
    )

    return report
