"""Calibration profile: the empirical constants of the performance model.

The simulator is mechanistic — links, engines, routes, fair sharing —
but mechanisms need efficiency constants, and those come from the
measurements the paper reports *in its text*.  Every field below cites
the statement it was calibrated to.  Changing a constant changes the
corresponding figure reproduction and nothing else; the benchmark
assertions in ``benchmarks/`` pin the shapes, so a mis-calibration is
caught immediately.

Units follow the paper: bandwidths in bytes/s with 1 GB/s = 1e9 B/s,
latencies in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping

from ..errors import CalibrationError
from ..topology.link import LinkTier
from ..units import GiB, KiB, MiB, gbps, us


@dataclass(frozen=True)
class CalibrationProfile:
    """All empirical constants, with paper provenance.

    Construct via :meth:`default` (MI250X / ROCm 5.7 values) and adjust
    with :meth:`with_` for what-if studies.
    """

    # --- SDMA copy engines (paper §V-A2) --------------------------------
    #: Peak throughput of one SDMA engine.  "the SDMA engines [...] are
    #: tuned for PCIe-4.0 x16, and cannot utilize the full bandwidth of
    #: GPU-GPU Infinity Fabric" — measured plateau is 50 GB/s on dual
    #: and quad links (Fig. 6c / Fig. 7).
    sdma_engine_throughput: float = gbps(50.0)
    #: SDMA protocol efficiency on an xGMI link: 37–38 GB/s on a single
    #: 50 GB/s link (Fig. 6c) → ≈ 75.5 %.
    sdma_xgmi_efficiency: float = 0.755
    #: SDMA protocol efficiency on the CPU link: 28.3 GB/s of 36 GB/s
    #: (Fig. 2/3, pinned hipMemcpy) → ≈ 78.6 %.
    sdma_cpu_link_efficiency: float = 0.786

    # --- hipMemcpyPeer latency model (Fig. 6b) ----------------------------
    #: Lowest observed p2p latency: 8.7 µs (single-link pairs).
    p2p_latency_base: float = us(8.7)
    #: Added latency per hop beyond the first on the bandwidth-maximizing
    #: route; calibrated so the 3-hop pairs 1-7/3-5 land in the reported
    #: 17.8–18.2 µs window.
    p2p_latency_per_extra_hop: float = us(4.55)
    #: Engine-fanout setup cost of *direct* (one-hop) copies, by bundle
    #: tier: striping across a wider bundle costs more queue setup.
    #: Same-GPU quad pairs measure 10.5–10.8 µs, single-link pairs
    #: < 10 µs, so single carries no setup cost.  Routed (multi-hop)
    #: copies pay per-hop forwarding instead, not fanout setup.
    p2p_latency_tier_setup: Mapping[str, float] = field(
        default_factory=lambda: {
            "single": us(0.0),
            "dual": us(1.4),
            "quad": us(1.8),
            "cpu": us(1.0),
        }
    )
    #: Deterministic per-pair jitter amplitude (the matrix in Fig. 6b is
    #: not perfectly flat within a class); keeps values inside the
    #: reported class ranges (quad band width is 0.3 µs).
    p2p_latency_jitter: float = us(0.3)

    # --- GPU kernel direct (zero-copy) access ------------------------------
    #: Local HBM STREAM copy efficiency: 1400 GB/s of 1.6 TB/s (§V-B).
    hbm_stream_efficiency: float = 0.875
    #: Unidirectional kernel remote access over xGMI, fraction of the
    #: bottleneck link's per-direction peak.  Calibrated with Fig. 10's
    #: relation (SDMA-off MPI ≈ direct − 10–15 %, direct ≈ available
    #: bandwidth on single links).
    kernel_xgmi_uni_efficiency: float = 0.88
    #: Bidirectional kernel remote streaming, per direction: Fig. 9
    #: reports 43–44 % of the theoretical bidirectional peak for all
    #: three tiers.
    kernel_xgmi_bidir_efficiency: float = 0.435
    #: Unidirectional kernel zero-copy over the CPU link: 25.5 GB/s of
    #: 36 GB/s (Fig. 3, managed zero-copy) → ≈ 70.8 %.
    kernel_cpu_uni_efficiency: float = 0.708
    #: Below the 32 MB last-level cache, zero-copy tracks pinned-memcpy
    #: behaviour (Fig. 3): efficiency rises to the pinned value.
    kernel_cpu_cached_efficiency: float = 0.786
    #: The "32 MB L3 GPU cache" the paper invokes for the crossover.
    llc_bytes: int = 32 * MiB
    #: Kernel launch overhead (HIP, back-to-back launch+sync).
    kernel_launch_overhead: float = us(2.2)

    # --- CPU side (paper §II, §IV) -------------------------------------------
    #: DDR4 bandwidth of the socket (204.8 GB/s) split over 4 domains.
    dram_bw_per_numa: float = gbps(204.8 / 4)
    #: DDR memory latency (96 ns).
    dram_latency: float = 96e-9
    #: Socket-internal inter-NUMA fabric capacity; "much higher [...]
    #: compared to the bandwidth over the interconnect" (§IV-B) — high
    #: enough never to bind for CPU-GPU traffic.
    socket_fabric_bw: float = gbps(160.0)
    #: Aggregate Infinity Fabric port capacity of one NUMA domain (both
    #: directions summed).  "each NUMA domain on the CPU handling two
    #: Infinity Fabric links" (§IV-C): two same-domain GCDs do not
    #: outperform one (Fig. 4), so the port saturates at ≈ one GCD's
    #: bidirectional streaming throughput.
    numa_ifport_bw: float = gbps(45.0)

    # --- pageable-memory hipMemcpy (Fig. 3) -----------------------------------
    #: Peak efficiency of pageable (malloc) hipMemcpy relative to the
    #: CPU link: below pinned, "varying results when increasing the
    #: transfer size [...] non-predictable paging operations".
    pageable_efficiency: float = 0.62
    #: Relative amplitude of the deterministic size-dependent variation.
    pageable_jitter: float = 0.18
    #: Staging chunk for the pinned bounce buffer.
    pageable_chunk_bytes: int = 4 * MiB

    # --- managed memory / XNACK page migration (Fig. 3) -------------------------
    #: Migration granule.  ROCm migrates at small-page granularity; the
    #: observed 2.8 GB/s effective bandwidth is fault-overhead-bound.
    page_size: int = 4 * KiB
    #: Per-fault service time (GPU interrupt, driver, page-table
    #: update).  4 KiB / (1.32 µs + 4 KiB/28.3 GB/s) ≈ 2.8 GB/s — the
    #: paper's page-migration bandwidth.
    xnack_fault_service: float = us(1.32)
    #: Faults the driver can batch-service concurrently (prefetch-like
    #: coalescing for sequential access is modeled separately).
    xnack_fault_concurrency: int = 1

    #: Host-side single-threaded memcpy rate (pageable staging copies,
    #: hipMemcpyHostToHost).  A Zen 3 core streams ~12 GB/s per thread.
    host_memcpy_rate: float = gbps(12.0)

    # --- memcpy call overheads --------------------------------------------------
    #: Host-side latency of a hipMemcpy H2D/D2H call (driver + doorbell).
    memcpy_host_latency: float = us(10.0)
    #: Latency of an async enqueue (returns immediately; cost on stream).
    memcpy_async_enqueue: float = us(1.5)

    # --- MPI layer (paper §V-C, §VI) ----------------------------------------------
    #: GPU-aware MPI bandwidth relative to a direct copy kernel when
    #: SDMA is disabled: "10–15 % lower bandwidth than the direct
    #: peer-to-peer copy kernel" (Fig. 10) → factor 0.87.
    mpi_protocol_efficiency: float = 0.87
    #: One-time cost to exchange + map an IPC handle for a device
    #: buffer into the peer process (§VI: "memory mapping overhead").
    mpi_ipc_map_overhead: float = us(45.0)
    #: Per-message host-side MPI overhead (matching, progress engine,
    #: GPU-stream synchronisation in the Cray MPICH GPU pipeline).
    mpi_message_overhead: float = us(3.0)
    #: Rendezvous threshold: messages above switch to rendezvous.
    mpi_eager_threshold: int = 8 * KiB

    # --- RCCL layer (paper §VI) --------------------------------------------------------
    #: Per-ring-step launch/synchronisation overhead of the RCCL
    #: persistent kernel.  Calibrated so a two-rank single-pass ring
    #: collective at 1 MiB sits near (slightly above) the 17.4 µs
    #: analytical bound of §VI.
    rccl_step_overhead: float = us(3.6)
    #: Base one-time launch overhead per collective call (persistent
    #: kernel launch + cross-rank semaphore setup).
    rccl_launch_overhead: float = us(11.0)
    #: Pipeline chunk size for ring collectives.
    rccl_chunk_bytes: int = 128 * KiB
    #: Extra per-step latency of a *relayed* ring segment (a segment
    #: between GCDs with no direct link, routed through an intermediate
    #: die).  RCCL's greedy ring search produces such segments for some
    #: rank subsets — notably 7 of 8 GCDs — and none for the full node,
    #: which is the mechanism behind Fig. 12's 7→8 latency drop.
    rccl_relay_penalty: float = us(2.4)
    #: Bandwidth efficiency of a relayed ring segment relative to the
    #: direct kernel rate: the ring FIFO's flow control sustains fewer
    #: outstanding requests over the doubled round-trip.
    rccl_relay_efficiency: float = 0.7
    #: Bandwidth efficiency of RCCL's low-latency (LL) protocol, which
    #: interleaves a flag word with every data word — 50 % of the
    #: payload bandwidth.  RCCL picks LL for the single-producer
    #: Broadcast at the paper's 1 MiB size, which is why MPI's binomial
    #: tree beats RCCL broadcast (Fig. 11b) while RCCL wins every other
    #: collective.
    rccl_ll_efficiency: float = 0.5

    # --- misc -----------------------------------------------------------------------------
    #: Granularity floor for bandwidth ramps: fixed per-call latencies
    #: dominate below a few MiB, giving the Fig. 3/7 ramp shapes.
    min_transfer_bytes: int = 1

    # -------------------------------------------------------------------------

    def __post_init__(self) -> None:
        for name, lo, hi in (
            ("sdma_xgmi_efficiency", 0.0, 1.0),
            ("sdma_cpu_link_efficiency", 0.0, 1.0),
            ("hbm_stream_efficiency", 0.0, 1.0),
            ("kernel_xgmi_uni_efficiency", 0.0, 1.0),
            ("kernel_xgmi_bidir_efficiency", 0.0, 1.0),
            ("kernel_cpu_uni_efficiency", 0.0, 1.0),
            ("kernel_cpu_cached_efficiency", 0.0, 1.0),
            ("pageable_efficiency", 0.0, 1.0),
            ("mpi_protocol_efficiency", 0.0, 1.0),
        ):
            value = getattr(self, name)
            if not (lo < value <= hi):
                raise CalibrationError(f"{name}={value} outside ({lo}, {hi}]")
        for name in (
            "sdma_engine_throughput",
            "p2p_latency_base",
            "dram_bw_per_numa",
            "socket_fabric_bw",
            "numa_ifport_bw",
            "xnack_fault_service",
            "rccl_step_overhead",
        ):
            if getattr(self, name) <= 0:
                raise CalibrationError(f"{name} must be positive")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise CalibrationError("page_size must be a positive power of two")
        if self.llc_bytes <= 0:
            raise CalibrationError("llc_bytes must be positive")

    @classmethod
    def default(cls) -> "CalibrationProfile":
        """MI250X / ROCm 5.7 profile — the paper's testbed."""
        return cls()

    def with_(self, **changes: object) -> "CalibrationProfile":
        """Copy of the profile with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def fingerprint(self) -> str:
        """Stable content hash over every calibration constant.

        Floats are hashed via :meth:`float.hex`, so any change to any
        constant — however small — yields a different fingerprint.
        The result cache (:mod:`repro.runner`) folds this into its
        point keys, which is how perturbing one constant invalidates
        exactly the simulation points that used this profile.  The
        digest is computed once per instance (:meth:`with_` builds a
        new one), like :meth:`NodeTopology.fingerprint`.
        """
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        # Kept in the instance ``__dict__``, outside the dataclass
        # fields: ``==``, ``repr`` and ``asdict`` never see it.
        import dataclasses
        import hashlib

        def encode(value: object) -> str:
            if isinstance(value, float):
                return value.hex()
            if isinstance(value, Mapping):
                inner = ",".join(
                    f"{key}={encode(value[key])}" for key in sorted(value)
                )
                return "{" + inner + "}"
            return repr(value)

        parts = [
            f"{field_.name}={encode(getattr(self, field_.name))}"
            for field_ in dataclasses.fields(self)
        ]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    # -- derived rates ------------------------------------------------------

    def sdma_cap_for_tier(self, tier: LinkTier) -> float:
        """Rate cap of an SDMA copy whose bottleneck link has ``tier``.

        ``min(engine throughput, protocol efficiency × link peak)``:
        reproduces the 37–38 / 50 / 50 GB/s tiers of Fig. 6c and the
        28.3 GB/s pinned H2D peak of Fig. 3.
        """
        if tier is LinkTier.CPU:
            protocol = self.sdma_cpu_link_efficiency
        else:
            protocol = self.sdma_xgmi_efficiency
        return min(
            self.sdma_engine_throughput, protocol * tier.peak_unidirectional
        )

    def kernel_remote_cap(
        self,
        tier: LinkTier,
        *,
        bidirectional: bool,
        working_set: int | None = None,
        cacheable: bool = False,
    ) -> float:
        """Per-direction rate cap for kernel (zero-copy) remote access.

        ``bidirectional`` selects the Fig. 8/9 regime (43–44 % of peak
        per direction) versus the Fig. 10 direct-copy regime.

        ``cacheable`` marks accesses the GPU may cache.  Coherent
        memory on MI250X is *never* cacheable (§II-C), so on the
        default profile the LLC boost below never fires for
        pinned/managed zero-copy — their ceiling stays at 25.5 GB/s
        while pinned hipMemcpy reaches 28.3 GB/s, reproducing Fig. 3's
        separation at large sizes.  A cache-coherent-fabric what-if
        (MI300A-style) can pass ``cacheable=True``: LLC-resident
        working sets then stream at the engine-level efficiency.
        """
        if tier is LinkTier.CPU:
            eff = self.kernel_cpu_uni_efficiency
            if (
                cacheable
                and not bidirectional
                and working_set is not None
                and working_set <= self.llc_bytes
            ):
                eff = self.kernel_cpu_cached_efficiency
            return eff * tier.peak_unidirectional
        eff = (
            self.kernel_xgmi_bidir_efficiency
            if bidirectional
            else self.kernel_xgmi_uni_efficiency
        )
        return eff * tier.peak_unidirectional

    def hbm_stream_bw(self, hbm_peak: float) -> float:
        """Achievable STREAM bandwidth of local HBM (read+write counted)."""
        return self.hbm_stream_efficiency * hbm_peak

    def page_migration_bw(self, link_rate: float | None = None) -> float:
        """Effective page-migration bandwidth (the 2.8 GB/s of Fig. 3)."""
        rate = link_rate if link_rate is not None else self.sdma_cap_for_tier(LinkTier.CPU)
        per_page = self.xnack_fault_service + self.page_size / rate
        return self.page_size / per_page

    def p2p_latency(
        self, num_hops: int, direct_tier: LinkTier | None, pair_jitter: float = 0.0
    ) -> float:
        """hipMemcpyPeer small-transfer latency along a routed path.

        ``direct_tier`` is the bundle tier for one-hop copies (fanout
        setup applies) and must be ``None`` for routed multi-hop copies
        (per-hop forwarding applies instead).  ``pair_jitter`` ∈ [0, 1)
        scales the deterministic jitter term.
        """
        if num_hops < 1:
            raise CalibrationError("p2p latency needs at least one hop")
        if (num_hops == 1) != (direct_tier is not None):
            raise CalibrationError(
                "direct_tier must be given exactly for one-hop copies"
            )
        setup = 0.0
        if direct_tier is not None:
            tier_key = direct_tier.name.lower()
            try:
                setup = self.p2p_latency_tier_setup[tier_key]
            except KeyError:
                raise CalibrationError(
                    f"no tier setup cost for {tier_key!r}"
                ) from None
        if not 0.0 <= pair_jitter < 1.0:
            raise CalibrationError("pair_jitter must be in [0, 1)")
        return (
            self.p2p_latency_base
            + setup
            + (num_hops - 1) * self.p2p_latency_per_extra_hop
            + pair_jitter * self.p2p_latency_jitter
        )

    def describe(self) -> str:
        """Multi-line summary of the key calibrated rates."""
        lines = ["CalibrationProfile (MI250X / ROCm 5.7 defaults):"]
        lines.append(
            f"  SDMA: engine {self.sdma_engine_throughput/1e9:.0f} GB/s, "
            f"xGMI eff {self.sdma_xgmi_efficiency:.1%}, "
            f"CPU-link eff {self.sdma_cpu_link_efficiency:.1%}"
        )
        lines.append(
            f"  kernel access: xGMI uni {self.kernel_xgmi_uni_efficiency:.1%} "
            f"/ bidir {self.kernel_xgmi_bidir_efficiency:.1%}/dir, "
            f"CPU uni {self.kernel_cpu_uni_efficiency:.1%}"
        )
        lines.append(
            f"  HBM STREAM eff {self.hbm_stream_efficiency:.1%}; "
            f"LLC {self.llc_bytes // MiB} MiB"
        )
        lines.append(
            f"  page migration: {self.page_migration_bw()/1e9:.2f} GB/s "
            f"({self.page_size // KiB} KiB pages, "
            f"{self.xnack_fault_service*1e6:.2f} us/fault)"
        )
        lines.append(
            f"  NUMA IF port {self.numa_ifport_bw/1e9:.0f} GB/s; "
            f"DRAM {self.dram_bw_per_numa*4/1e9:.1f} GB/s socket"
        )
        return "\n".join(lines)


#: Shared default profile.  Immutable, so sharing is safe.
DEFAULT_CALIBRATION = CalibrationProfile.default()


# -- profile serialization --------------------------------------------------

#: Schema tag of serialized calibration profiles.
CALIBRATION_SCHEMA = "repro-calibration/1"

_PROFILE_FIELDS = {"schema", "fingerprint", "provenance", "constants"}
_PROVENANCE_FIELDS = {
    "source",
    "telemetry",
    "telemetry_fingerprint",
    "fitted_fields",
    "initial_rms",
    "final_rms",
    "evaluations",
}


def profile_to_json(
    profile: CalibrationProfile,
    *,
    provenance: Mapping[str, object] | None = None,
) -> dict:
    """Serialize a profile (every constant) plus optional provenance.

    ``provenance`` records where the constants came from — ``source``
    is ``"default"`` for the built-in MI250X profile or
    ``"fitted-from-telemetry"`` for an auto-calibrated one, in which
    case the telemetry fingerprint and residual summary ride along so
    reports can show *why* the model predicts what it predicts.
    """
    import dataclasses

    constants: dict[str, object] = {}
    for field_ in dataclasses.fields(profile):
        value = getattr(profile, field_.name)
        if isinstance(value, Mapping):
            value = {key: value[key] for key in sorted(value)}
        constants[field_.name] = value
    entry: dict[str, object] = {
        "schema": CALIBRATION_SCHEMA,
        "fingerprint": profile.fingerprint(),
        "constants": constants,
    }
    if provenance is not None:
        unknown = set(provenance) - _PROVENANCE_FIELDS
        if unknown:
            raise CalibrationError(
                f"unknown provenance field(s): {', '.join(sorted(unknown))}"
            )
        entry["provenance"] = dict(provenance)
    return entry


def profile_from_json(entry: object) -> tuple[CalibrationProfile, dict]:
    """Parse a serialized profile; returns ``(profile, provenance)``.

    Validation is strict (unknown keys rejected, schema tag required)
    and the stored fingerprint must match the reconstructed profile's,
    so a hand-edited constant that forgot to drop the fingerprint is
    caught instead of silently keying the result cache wrong.
    """
    import dataclasses

    if not isinstance(entry, Mapping):
        raise CalibrationError(
            f"calibration profile must be a JSON object, got {type(entry).__name__}"
        )
    unknown = set(entry) - _PROFILE_FIELDS
    if unknown:
        raise CalibrationError(
            f"unknown calibration profile field(s): {', '.join(sorted(unknown))}"
        )
    schema = entry.get("schema")
    if schema != CALIBRATION_SCHEMA:
        raise CalibrationError(
            f"unsupported calibration schema {schema!r} "
            f"(expected {CALIBRATION_SCHEMA!r})"
        )
    constants = entry.get("constants")
    if not isinstance(constants, Mapping):
        raise CalibrationError("calibration profile needs a 'constants' object")
    known = {field_.name for field_ in dataclasses.fields(CalibrationProfile)}
    unknown = set(constants) - known
    if unknown:
        raise CalibrationError(
            f"unknown calibration constant(s): {', '.join(sorted(unknown))}"
        )
    profile = CalibrationProfile(**dict(constants))
    declared = entry.get("fingerprint")
    if declared is not None and declared != profile.fingerprint():
        raise CalibrationError(
            "calibration fingerprint mismatch: profile constants were "
            "edited without refreshing (or removing) the stored fingerprint"
        )
    provenance = entry.get("provenance", {})
    if not isinstance(provenance, Mapping):
        raise CalibrationError("calibration provenance must be a JSON object")
    unknown = set(provenance) - _PROVENANCE_FIELDS
    if unknown:
        raise CalibrationError(
            f"unknown provenance field(s): {', '.join(sorted(unknown))}"
        )
    return profile, dict(provenance)


def dump_profile(
    profile: CalibrationProfile,
    path: object,
    *,
    provenance: Mapping[str, object] | None = None,
) -> None:
    """Write a profile as pretty-printed JSON to ``path``."""
    import json
    import pathlib

    text = json.dumps(
        profile_to_json(profile, provenance=provenance), indent=2, sort_keys=True
    )
    pathlib.Path(path).write_text(text + "\n", encoding="utf-8")


def load_profile(path: object) -> tuple[CalibrationProfile, dict]:
    """Load a profile written by :func:`dump_profile`."""
    import json
    import pathlib

    try:
        entry = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CalibrationError(f"calibration profile is not valid JSON: {exc}")
    return profile_from_json(entry)
