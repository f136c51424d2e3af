"""GPU kernel cost models: STREAM-style kernels with zero-copy access.

Kernels are the second data-movement interface the paper studies
(Table II's "GPU kernel" rows): instead of SDMA engines, compute units
issue loads/stores directly, and remote addresses travel over Infinity
Fabric as *zero-copy* traffic.  The performance regimes (paper §IV-A,
§V-B):

- local HBM streaming at 87 % of the 1.6 TB/s peak;
- unidirectional remote streaming at high link efficiency;
- bidirectional remote streaming (copy kernels with both operands
  remote) at 43–44 % of the theoretical *bidirectional* peak per
  Fig. 9 — request/response interference between the two directions;
- managed memory with XNACK: fault-and-migrate first (2.8 GB/s
  effective), then local-speed access.

A kernel here is a DES process producing the right set of flows and a
launch overhead; its duration is governed by the slowest flow.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, Hashable, Iterable

from ..config import SimEnvironment
from ..errors import CoherenceError, PeerAccessError
from ..memory.buffer import Buffer, Location, MemoryKind
from ..memory.coherence import CoherencePolicy
from ..memory.pages import MigrationEngine
from ..topology.link import LinkTier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hardware.node import HardwareNode


class KernelApi:
    """Kernel launch interface of the simulated runtime."""

    def __init__(
        self,
        node: "HardwareNode",
        env: SimEnvironment,
        coherence: CoherencePolicy | None = None,
    ) -> None:
        self.node = node
        self.env = env
        self.coherence = coherence if coherence is not None else CoherencePolicy()
        self.migration = MigrationEngine(node)

    # -- residency & access planning ------------------------------------------

    def _effective_residency(
        self, device_index: int, buffer: Buffer, nbytes: int
    ) -> tuple[Location, bool]:
        """Where accesses to ``buffer`` will be served from, and whether
        an XNACK migration must run first."""
        buffer.check_live()
        if buffer.kind is MemoryKind.PAGEABLE:
            raise CoherenceError(
                "pageable (malloc) memory is not GPU-accessible; use "
                "pinned, managed, or an explicit hipMemcpy"
            )
        if buffer.kind is MemoryKind.DEVICE:
            home = buffer.home
            if home.index != device_index:
                if not self.node.gcd(device_index).can_access_peer(home.index):
                    raise PeerAccessError(
                        f"GCD {device_index} accessing GCD {home.index} memory "
                        "without hipDeviceEnablePeerAccess"
                    )
            return home, False
        if buffer.kind is MemoryKind.MANAGED:
            if self.env.xnack_enabled:
                return Location.gcd(device_index), True
            return buffer.residency(0), False
        # Pinned host memory: zero-copy at its NUMA home.
        return buffer.home, False

    def _flow_plan(
        self,
        device_index: int,
        location: Location,
        nbytes: int,
        *,
        is_read: bool,
        bidirectional: bool,
        working_set: int,
        cacheable: bool,
    ) -> tuple[list[Hashable], float]:
        """(channels, cap) for streaming ``nbytes`` to/from ``location``."""
        if location.is_device and location.index == device_index:
            return [self.node.gcd(device_index).hbm.channel], math.inf
        if location.is_host:
            if is_read:
                channels = self.node.host_to_gcd_channels(
                    location.index, device_index
                )
            else:
                channels = self.node.gcd_to_host_channels(
                    device_index, location.index
                )
            cap = self.node.calibration.kernel_remote_cap(
                LinkTier.CPU,
                bidirectional=bidirectional,
                working_set=working_set,
                cacheable=cacheable,
            )
            return channels, cap
        # Remote GCD.
        if is_read:
            channels = self.node.gcd_to_gcd_channels(location.index, device_index)
            route = self.node.gcd_route(location.index, device_index)
        else:
            channels = self.node.gcd_to_gcd_channels(device_index, location.index)
            route = self.node.gcd_route(device_index, location.index)
        tier = self.node.bottleneck_tier(route)
        cap = self.node.calibration.kernel_remote_cap(
            tier, bidirectional=bidirectional, working_set=working_set
        )
        return channels, cap

    # -- kernels --------------------------------------------------------------------

    def _launch(
        self,
        device_index: int,
        reads: Iterable[tuple[Buffer, int]],
        writes: Iterable[tuple[Buffer, int]],
        *,
        label: str,
    ) -> Generator:
        """Generic streaming kernel: byte volumes per operand.

        The kernel is *bidirectional* if at least one read operand and
        one write operand are remote — both fabric directions then
        carry payload concurrently.
        """
        reads = list(reads)
        writes = list(writes)
        engine = self.node.engine
        spans = self.node.spans
        span = (
            spans.begin("kernel", label, start=engine.now, device=device_index)
            if spans
            else None
        )
        yield engine.timeout(self.node.calibration.kernel_launch_overhead)

        plans: list[tuple[Buffer, Location, int, bool]] = []
        migrations = []
        for is_read, operands in ((True, reads), (False, writes)):
            for buffer, volume in operands:
                location, needs_migration = self._effective_residency(
                    device_index, buffer, volume
                )
                if needs_migration:
                    migrations.append((buffer, volume))
                plans.append((buffer, location, volume, is_read))

        # XNACK migrations run first (faults happen at first touch).
        for buffer, volume in migrations:
            yield from self.migration.migrate_for_access(
                buffer,
                0,
                min(volume, buffer.size),
                device_index,
                xnack_enabled=self.env.xnack_enabled,
                parent_span=span,
            )

        remote_reads = any(
            not (loc.is_device and loc.index == device_index)
            for _b, loc, _v, r in plans
            if r
        )
        remote_writes = any(
            not (loc.is_device and loc.index == device_index)
            for _b, loc, _v, r in plans
            if not r
        )
        bidirectional = remote_reads and remote_writes

        working_set = sum(volume for _b, _loc, volume, _r in plans)
        flows = []
        for buffer, location, volume, is_read in plans:
            if volume == 0:
                continue
            channels, cap = self._flow_plan(
                device_index,
                location,
                volume,
                is_read=is_read,
                bidirectional=bidirectional,
                working_set=working_set,
                cacheable=self.coherence.gpu_cacheable(buffer),
            )
            flows.append(
                self.node.start_flow(
                    channels,
                    volume,
                    cap=cap,
                    label=f"{label}:{'r' if is_read else 'w'}@{location}",
                    span=span,
                )
            )
        if flows:
            yield engine.all_of([flow.done for flow in flows])
        if span is not None:
            spans.finish(span, engine.now)
        metrics = self.node.metrics
        if metrics:
            metrics.counter("hip/kernel_launches").inc()
            metrics.counter(f"hip/kernel_launches/gcd{device_index}").inc()

    def stream_copy(
        self,
        device_index: int,
        dst: Buffer,
        src: Buffer,
        nbytes: int | None = None,
    ) -> Generator:
        """STREAM copy kernel ``b[i] = a[i]`` (the paper's workhorse)."""
        if nbytes is None:
            nbytes = min(src.size, dst.size)
        yield from self._launch(
            device_index,
            reads=[(src, nbytes)],
            writes=[(dst, nbytes)],
            label="stream_copy",
        )
        dst.copy_payload_from(src, nbytes)

    def stream_triad(
        self,
        device_index: int,
        dst: Buffer,
        src_a: Buffer,
        src_b: Buffer,
        nbytes: int | None = None,
    ) -> Generator:
        """STREAM triad ``a[i] = b[i] + s*c[i]``."""
        if nbytes is None:
            nbytes = min(dst.size, src_a.size, src_b.size)
        yield from self._launch(
            device_index,
            reads=[(src_a, nbytes), (src_b, nbytes)],
            writes=[(dst, nbytes)],
            label="stream_triad",
        )
        if dst.has_data or src_a.has_data or src_b.has_data:
            # Functional mode: a[i] = b[i] + c[i] on the byte view
            # (scalar s = 1; uint8 wrap-around semantics).
            a = src_a.ensure_data()
            b = src_b.ensure_data()
            dst.ensure_data()[:nbytes] = a[:nbytes] + b[:nbytes]

    def init_array(
        self, device_index: int, dst: Buffer, nbytes: int | None = None
    ) -> Generator:
        """Write-only initialisation kernel (Listing 1's init_array)."""
        if nbytes is None:
            nbytes = dst.size
        yield from self._launch(
            device_index, reads=[], writes=[(dst, nbytes)], label="init_array"
        )
        if dst.has_data:
            dst.ensure_data()[:nbytes] = 1

    def read_sum(
        self, device_index: int, src: Buffer, nbytes: int | None = None
    ) -> Generator:
        """Read-only reduction kernel (unidirectional remote regime)."""
        if nbytes is None:
            nbytes = src.size
        yield from self._launch(
            device_index, reads=[(src, nbytes)], writes=[], label="read_sum"
        )
        if src.has_data:
            return int(src.ensure_data()[:nbytes].sum())
        return None
