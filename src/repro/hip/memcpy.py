"""Explicit data movement: hipMemcpy / hipMemcpyPeer and friends.

The engine-based copy paths the paper measures:

- **Host↔device hipMemcpy** uses an SDMA engine; from pinned memory it
  peaks at 28.3 GB/s (Fig. 3).  Pageable memory is staged through a
  pinned bounce buffer with "non-predictable paging operations"
  producing the varying Fig. 3 curve.
- **hipMemcpyPeer** programs an SDMA engine over the
  *bandwidth-maximizing* route; the engine cap (not the link) is the
  bottleneck, producing the two-tier Fig. 6c matrix and the 75/50/25 %
  utilization of Fig. 7.  ``HSA_ENABLE_PEER_SDMA=0`` switches to a
  blit copy kernel that can drive wide links (§V-A2).
- Small-transfer latency follows the Fig. 6b model implemented in
  :meth:`repro.hardware.sdma.SdmaEngines.copy_latency`.
"""

from __future__ import annotations

import hashlib
import math
from typing import TYPE_CHECKING, Generator, Hashable

from ..config import SimEnvironment
from ..errors import HipError
from ..memory.buffer import Buffer, Location, MemoryKind
from ..sim.engine import Event
from ..topology.link import LinkTier
from .enums import MemcpyKind
from .stream import Stream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hardware.node import HardwareNode


def pair_jitter(src_index: int, dst_index: int) -> float:
    """Deterministic per-pair jitter in [0, 1) for the latency matrix.

    Derived from a stable hash so the Fig. 6b matrix is identical
    across runs and machines.
    """
    digest = hashlib.md5(f"p2p:{src_index}->{dst_index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") / 2**32


def pageable_variation(nbytes: int) -> float:
    """Deterministic multiplicative variation for pageable copies.

    Models the paper's "non-predictable paging operations" as a
    size-keyed factor in [1 - jitter, 1]; deterministic per size so
    sweeps are reproducible.
    """
    digest = hashlib.md5(f"pageable:{nbytes}".encode()).digest()
    return int.from_bytes(digest[:4], "big") / 2**32


class CopyApi:
    """hipMemcpy-family implementation."""

    def __init__(self, node: "HardwareNode", env: SimEnvironment) -> None:
        self.node = node
        self.env = env
        self._calibration = node.calibration

    # -- kind resolution ----------------------------------------------------

    @staticmethod
    def resolve_kind(dst: Buffer, src: Buffer) -> MemcpyKind:
        """hipMemcpyDefault resolution from buffer homes."""
        src_dev = src.kind is MemoryKind.DEVICE or (
            src.kind is MemoryKind.MANAGED and src.residency(0).is_device
        )
        dst_dev = dst.kind is MemoryKind.DEVICE or (
            dst.kind is MemoryKind.MANAGED and dst.residency(0).is_device
        )
        if src_dev and dst_dev:
            return MemcpyKind.DEVICE_TO_DEVICE
        if src_dev:
            return MemcpyKind.DEVICE_TO_HOST
        if dst_dev:
            return MemcpyKind.HOST_TO_DEVICE
        return MemcpyKind.HOST_TO_HOST

    # -- rate/channel planning ------------------------------------------------

    def _pageable_cap(self, nbytes: int) -> float:
        base = self._calibration.pageable_efficiency * LinkTier.CPU.peak_unidirectional
        jitter = self._calibration.pageable_jitter * pageable_variation(nbytes)
        return base * (1.0 - jitter)

    def _h2d_plan(
        self, dst: Buffer, src: Buffer, nbytes: int
    ) -> tuple[list[Hashable], float]:
        device = dst.residency(0).index if dst.residency(0).is_device else None
        if device is None:
            raise HipError(
                "hipErrorInvalidValue", "H2D copy with non-device destination"
            )
        numa = src.home.index
        channels = self.node.host_to_gcd_channels(numa, device)
        engine, efficiency = self.node.gcd(device).sdma.plan_engine(
            outbound=False
        )
        channels.append(engine)
        if src.kind is MemoryKind.PAGEABLE:
            cap = self._pageable_cap(nbytes)
            channels.append(self.node.cpu.dram_channel(numa))  # staging reads
        else:
            cap = self._calibration.sdma_cap_for_tier(LinkTier.CPU)
        return channels, cap * efficiency

    def _d2h_plan(
        self, dst: Buffer, src: Buffer, nbytes: int
    ) -> tuple[list[Hashable], float]:
        device = src.residency(0).index if src.residency(0).is_device else None
        if device is None:
            raise HipError(
                "hipErrorInvalidValue", "D2H copy with non-device source"
            )
        numa = dst.home.index
        channels = self.node.gcd_to_host_channels(device, numa)
        engine, efficiency = self.node.gcd(device).sdma.plan_engine(
            outbound=True
        )
        channels.append(engine)
        if dst.kind is MemoryKind.PAGEABLE:
            cap = self._pageable_cap(nbytes)
        else:
            cap = self._calibration.sdma_cap_for_tier(LinkTier.CPU)
        return channels, cap * efficiency

    def _h2h_plan(
        self, dst: Buffer, src: Buffer, nbytes: int
    ) -> tuple[list[Hashable], float]:
        channels = self.node.cpu.host_memcpy_channels(src.home.index, dst.home.index)
        return channels, self._calibration.host_memcpy_rate

    def _d2d_plan(
        self, dst: Buffer, src: Buffer, nbytes: int
    ) -> tuple[list[Hashable], float]:
        src_loc, dst_loc = src.residency(0), dst.residency(0)
        if src_loc.index == dst_loc.index:
            channels = [self.node.gcd(src_loc.index).hbm.channel]
            return channels, self._calibration.sdma_engine_throughput
        return self._peer_plan(dst_loc.index, src_loc.index)

    def _peer_plan(
        self, dst_device: int, src_device: int
    ) -> tuple[list[Hashable], float]:
        route = self.node.gcd_route(src_device, dst_device)
        channels = self.node.gcd_to_gcd_channels(src_device, dst_device)
        if self._peer_sdma_active:
            sdma = self.node.gcd(src_device).sdma
            engine, efficiency = sdma.plan_engine(outbound=True)
            channels.append(engine)
            cap = sdma.rate_cap_for_route(route) * efficiency
        else:
            tier = self.node.bottleneck_tier(route)
            cap = self._calibration.kernel_remote_cap(tier, bidirectional=False)
        return channels, cap

    @property
    def _peer_sdma_active(self) -> bool:
        return self.env.sdma_enabled and self.env.peer_sdma_enabled

    # -- synchronous operations (DES processes) -----------------------------------

    def memcpy(
        self,
        dst: Buffer,
        src: Buffer,
        nbytes: int | None = None,
        kind: MemcpyKind = MemcpyKind.DEFAULT,
    ) -> Generator:
        """Blocking hipMemcpy: host latency + engine transfer."""
        dst.check_live()
        src.check_live()
        if nbytes is None:
            nbytes = min(dst.size, src.size)
        if nbytes < 0 or nbytes > src.size or nbytes > dst.size:
            raise HipError(
                "hipErrorInvalidValue",
                f"copy of {nbytes} bytes exceeds a buffer",
            )
        if kind is MemcpyKind.DEFAULT:
            kind = self.resolve_kind(dst, src)
        spans = self.node.spans
        span = (
            spans.begin(
                "memcpy",
                f"memcpy:{kind.value}",
                start=self.node.engine.now,
                bytes=nbytes,
            )
            if spans
            else None
        )
        yield self.node.engine.timeout(self._calibration.memcpy_host_latency)
        if nbytes > 0:
            channels, cap = self._plan_for_kind(kind, dst, src, nbytes)
            flow = self.node.start_flow(
                channels, nbytes, cap=cap, label=f"memcpy:{kind.value}", span=span
            )
            yield flow.done
            dst.copy_payload_from(src, nbytes)
        if span is not None:
            spans.finish(span, self.node.engine.now)
        metrics = self.node.metrics
        if metrics:
            metrics.counter(f"hip/memcpy/{kind.value}").inc()
            metrics.counter(f"hip/memcpy/{kind.value}/bytes").inc(nbytes)

    def _plan_for_kind(
        self, kind: MemcpyKind, dst: Buffer, src: Buffer, nbytes: int
    ) -> tuple[list[Hashable], float]:
        if kind is MemcpyKind.HOST_TO_DEVICE:
            return self._h2d_plan(dst, src, nbytes)
        if kind is MemcpyKind.DEVICE_TO_HOST:
            return self._d2h_plan(dst, src, nbytes)
        if kind is MemcpyKind.HOST_TO_HOST:
            return self._h2h_plan(dst, src, nbytes)
        if kind is MemcpyKind.DEVICE_TO_DEVICE:
            return self._d2d_plan(dst, src, nbytes)
        raise HipError("hipErrorInvalidValue", f"bad memcpy kind {kind!r}")

    def memcpy_peer(
        self,
        dst: Buffer,
        dst_device: int,
        src: Buffer,
        src_device: int,
        nbytes: int | None = None,
    ) -> Generator:
        """Blocking hipMemcpyPeer along the bandwidth-maximizing route."""
        yield from self._peer_transfer(dst, dst_device, src, src_device, nbytes)

    def _peer_transfer(
        self,
        dst: Buffer,
        dst_device: int,
        src: Buffer,
        src_device: int,
        nbytes: int | None,
    ) -> Generator:
        dst.check_live()
        src.check_live()
        if nbytes is None:
            nbytes = min(dst.size, src.size)
        if nbytes < 0 or nbytes > src.size or nbytes > dst.size:
            raise HipError(
                "hipErrorInvalidValue",
                f"peer copy of {nbytes} bytes exceeds a buffer",
            )
        spans = self.node.spans
        span = (
            spans.begin(
                "memcpy",
                f"memcpy_peer:{src_device}->{dst_device}",
                start=self.node.engine.now,
                bytes=nbytes,
                src=src_device,
                dst=dst_device,
            )
            if spans
            else None
        )
        if src_device == dst_device:
            yield self.node.engine.timeout(self._calibration.p2p_latency_base)
            if nbytes > 0:
                flow = self.node.start_flow(
                    [self.node.gcd(src_device).hbm.channel],
                    nbytes,
                    cap=self._calibration.sdma_engine_throughput,
                    label="memcpy_peer:local",
                    span=span,
                )
                yield flow.done
                dst.copy_payload_from(src, nbytes)
            if span is not None:
                spans.finish(span, self.node.engine.now)
            return
        route = self.node.gcd_route(src_device, dst_device)
        jitter = pair_jitter(src_device, dst_device)
        if self._peer_sdma_active:
            latency = self.node.gcd(src_device).sdma.copy_latency(route, jitter)
        else:
            latency = (
                self._calibration.kernel_launch_overhead
                + self._calibration.p2p_latency_base
            )
        yield self.node.engine.timeout(latency)
        if nbytes > 0:
            channels, cap = self._peer_plan(dst_device, src_device)
            flow = self.node.start_flow(
                channels,
                nbytes,
                cap=cap,
                label=f"memcpy_peer:{src_device}->{dst_device}",
                span=span,
            )
            yield flow.done
            dst.copy_payload_from(src, nbytes)
        if span is not None:
            spans.finish(span, self.node.engine.now)
        metrics = self.node.metrics
        if metrics:
            metrics.counter("hip/memcpy/peer").inc()
            metrics.counter("hip/memcpy/peer/bytes").inc(nbytes)

    # -- async variants -------------------------------------------------------------

    def memcpy_async(
        self,
        dst: Buffer,
        src: Buffer,
        nbytes: int | None,
        kind: MemcpyKind,
        stream: Stream,
    ) -> Event:
        """hipMemcpyAsync: enqueue on a stream, return completion event."""

        def operation() -> Generator:
            # The stream pays the device-side cost; host-side latency is
            # the (cheap) enqueue, paid by the caller synchronously.
            d, s, n, k = dst, src, nbytes, kind
            d.check_live()
            s.check_live()
            count = min(d.size, s.size) if n is None else n
            if k is MemcpyKind.DEFAULT:
                k = self.resolve_kind(d, s)
            if count > 0:
                spans = self.node.spans
                span = (
                    spans.begin(
                        "memcpy",
                        f"memcpyAsync:{k.value}",
                        start=self.node.engine.now,
                        bytes=count,
                    )
                    if spans
                    else None
                )
                channels, cap = self._plan_for_kind(k, d, s, count)
                flow = self.node.start_flow(
                    channels, count, cap=cap, label=f"memcpyAsync:{k.value}", span=span
                )
                yield flow.done
                d.copy_payload_from(s, count)
                if span is not None:
                    spans.finish(span, self.node.engine.now)

        return stream.enqueue(operation, label="memcpyAsync")

    def memcpy_peer_async(
        self,
        dst: Buffer,
        dst_device: int,
        src: Buffer,
        src_device: int,
        nbytes: int | None,
        stream: Stream,
    ) -> Event:
        """hipMemcpyPeerAsync — the operation Fig. 6b times with events."""

        def operation() -> Generator:
            yield from self._peer_transfer(dst, dst_device, src, src_device, nbytes)

        return stream.enqueue(operation, label="memcpyPeerAsync")
