"""The HIP runtime facade.

:class:`HipRuntime` composes the allocation, copy, kernel and peer
APIs into one object with HIP-shaped methods, adds device management
(including ``HIP_VISIBLE_DEVICES`` logical→physical mapping), streams,
events and synchronisation.

Device ordinals accepted by this class are **logical** — they pass
through the environment's visibility mask, exactly like the real
runtime (§IV-C uses this to place the multi-GCD STREAM benchmark).
All internal layers work with physical GCD indices.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..config import SimEnvironment
from ..errors import ConfigurationError, InvalidDeviceError
from ..hardware.node import HardwareNode
from ..memory.allocator import AddressSpace
from ..memory.buffer import Buffer
from ..memory.coherence import CoherencePolicy
from ..memory.pages import MigrationEngine
from ..memory.placement import PlacementPolicy
from ..sim.engine import Event
from .enums import HostMallocFlags, MemcpyKind
from .event import HipEvent
from .kernel import KernelApi
from .malloc import AllocApi
from .memcpy import CopyApi
from .peer import PeerApi
from .stream import Stream


class HipRuntime:
    """A process's view of the HIP runtime on one simulated node."""

    def __init__(
        self,
        node: HardwareNode,
        env: SimEnvironment | None = None,
        *,
        coherence: CoherencePolicy | None = None,
    ) -> None:
        self.node = node
        self.env = env if env is not None else SimEnvironment()
        self.coherence = coherence if coherence is not None else CoherencePolicy()
        self.space = AddressSpace(page_size=self.node.calibration.page_size)
        self.alloc_api = AllocApi(self.node, self.space)
        self.copy_api = CopyApi(self.node, self.env)
        self.kernel_api = KernelApi(self.node, self.env, self.coherence)
        self.peer_api = PeerApi(self.node)
        self.migration = MigrationEngine(self.node)
        self._current_device = 0
        self._null_streams: dict[int, Stream] = {}
        self._user_streams: dict[int, list[Stream]] = {}

    # -- device management ------------------------------------------------

    @property
    def engine(self):
        """The node's DES engine."""
        return self.node.engine

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self.node.engine.now

    def device_count(self) -> int:
        """``hipGetDeviceCount`` under the visibility mask."""
        return self.env.num_visible_devices(self.node.num_gcds)

    def _physical(self, logical: Optional[int] = None) -> int:
        if logical is None:
            logical = self._current_device
        try:
            return self.env.map_logical_device(logical, self.node.num_gcds)
        except ConfigurationError as exc:
            # Only the runtime's own "bad ordinal / not visible"
            # rejection maps to hipErrorInvalidDevice; unexpected
            # failures (e.g. AttributeError from a malformed
            # environment) must propagate unmasked.
            raise InvalidDeviceError(str(exc)) from exc

    def set_device(self, logical: int) -> None:
        """``hipSetDevice``."""
        self._physical(logical)  # validate
        self._current_device = logical

    def get_device(self) -> int:
        """``hipGetDevice`` (logical ordinal)."""
        return self._current_device

    def physical_device(self, logical: Optional[int] = None) -> int:
        """The physical GCD index behind a logical ordinal."""
        return self._physical(logical)

    # -- allocation ----------------------------------------------------------

    def malloc(self, size: int, *, device: Optional[int] = None, label: str = "") -> Buffer:
        """``hipMalloc`` on the current (or given) device."""
        return self.alloc_api.malloc(self._physical(device), size, label=label)

    def host_malloc(
        self,
        size: int,
        flags: HostMallocFlags = HostMallocFlags.DEFAULT,
        *,
        device: Optional[int] = None,
        policy: Optional[PlacementPolicy] = None,
        label: str = "",
    ) -> Buffer:
        """``hipHostMalloc``: pinned host memory (coherent by default)."""
        return self.alloc_api.host_malloc(
            self._physical(device), size, flags, policy=policy, label=label
        )

    def malloc_managed(
        self, size: int, *, device: Optional[int] = None, label: str = ""
    ) -> Buffer:
        """``hipMallocManaged``: unified memory, host-first residency."""
        return self.alloc_api.malloc_managed(
            self._physical(device), size, label=label
        )

    def pageable_malloc(
        self, size: int, *, numa_index: int = 0, label: str = ""
    ) -> Buffer:
        """Plain ``malloc``: pageable host memory."""
        return self.alloc_api.pageable_malloc(size, numa_index=numa_index, label=label)

    def free(self, buffer: Buffer) -> None:
        """``hipFree``/``hipHostFree``: release an allocation."""
        self.alloc_api.free(buffer)

    # -- streams & events ---------------------------------------------------------

    def null_stream(self, device: Optional[int] = None) -> Stream:
        """The device's legacy default stream (created lazily)."""
        physical = self._physical(device)
        stream = self._null_streams.get(physical)
        if stream is None:
            stream = Stream(self.engine, physical, name=f"null@gcd{physical}")
            self._null_streams[physical] = stream
        return stream

    def stream_create(self, *, device: Optional[int] = None) -> Stream:
        """``hipStreamCreate`` on the current (or given) device."""
        physical = self._physical(device)
        stream = Stream(self.engine, physical)
        self._user_streams.setdefault(physical, []).append(stream)
        return stream

    def stream_destroy(self, stream: Stream) -> None:
        """``hipStreamDestroy``; pending work still drains."""
        stream.destroy()

    def event_create(self, name: str = "") -> HipEvent:
        """``hipEventCreate``."""
        return HipEvent(self.engine, name=name)

    def device_synchronize(self, device: Optional[int] = None) -> Generator:
        """``hipDeviceSynchronize``: drain every stream of the device."""
        physical = self._physical(device)
        tails = []
        null = self._null_streams.get(physical)
        if null is not None:
            tails.append(null.tail_event)
        for stream in self._user_streams.get(physical, []):
            tails.append(stream.tail_event)
        pending = [t for t in tails if not t.processed]
        if pending:
            yield self.engine.all_of(pending)

    # -- copies -------------------------------------------------------------------------

    def memcpy(
        self,
        dst: Buffer,
        src: Buffer,
        nbytes: int | None = None,
        kind: MemcpyKind = MemcpyKind.DEFAULT,
    ) -> Generator:
        """Blocking ``hipMemcpy`` (DES process; drive with ``yield from``)."""
        yield from self.copy_api.memcpy(dst, src, nbytes, kind)

    def memcpy_async(
        self,
        dst: Buffer,
        src: Buffer,
        nbytes: int | None = None,
        kind: MemcpyKind = MemcpyKind.DEFAULT,
        stream: Optional[Stream] = None,
    ) -> Event:
        """``hipMemcpyAsync``: enqueue on a stream, return its event."""
        if stream is None:
            stream = self.null_stream()
        return self.copy_api.memcpy_async(dst, src, nbytes, kind, stream)

    def memcpy_peer(
        self,
        dst: Buffer,
        dst_device: int,
        src: Buffer,
        src_device: int,
        nbytes: int | None = None,
    ) -> Generator:
        """Blocking ``hipMemcpyPeer`` over the bandwidth-max route."""
        yield from self.copy_api.memcpy_peer(
            dst, self._physical(dst_device), src, self._physical(src_device), nbytes
        )

    def memcpy_peer_async(
        self,
        dst: Buffer,
        dst_device: int,
        src: Buffer,
        src_device: int,
        nbytes: int | None = None,
        stream: Optional[Stream] = None,
    ) -> Event:
        """``hipMemcpyPeerAsync`` (the Fig. 6b operation)."""
        if stream is None:
            stream = self.null_stream()
        return self.copy_api.memcpy_peer_async(
            dst,
            self._physical(dst_device),
            src,
            self._physical(src_device),
            nbytes,
            stream,
        )

    # -- kernels ------------------------------------------------------------------------

    def launch_stream_copy(
        self,
        dst: Buffer,
        src: Buffer,
        nbytes: int | None = None,
        *,
        device: Optional[int] = None,
        stream: Optional[Stream] = None,
    ) -> Event:
        """Launch the STREAM copy kernel (async, like a real launch)."""
        physical = self._physical(device)
        if stream is None:
            stream = self.null_stream(device)
        return stream.enqueue(
            lambda: self.kernel_api.stream_copy(physical, dst, src, nbytes),
            label="stream_copy",
        )

    def launch_stream_triad(
        self,
        dst: Buffer,
        src_a: Buffer,
        src_b: Buffer,
        nbytes: int | None = None,
        *,
        device: Optional[int] = None,
        stream: Optional[Stream] = None,
    ) -> Event:
        """Launch the STREAM triad kernel (async)."""
        physical = self._physical(device)
        if stream is None:
            stream = self.null_stream(device)
        return stream.enqueue(
            lambda: self.kernel_api.stream_triad(physical, dst, src_a, src_b, nbytes),
            label="stream_triad",
        )

    def launch_init_array(
        self,
        dst: Buffer,
        nbytes: int | None = None,
        *,
        device: Optional[int] = None,
        stream: Optional[Stream] = None,
    ) -> Event:
        """Launch the write-only init kernel of Listing 1 (async)."""
        physical = self._physical(device)
        if stream is None:
            stream = self.null_stream(device)
        return stream.enqueue(
            lambda: self.kernel_api.init_array(physical, dst, nbytes),
            label="init_array",
        )

    def launch_read_sum(
        self,
        src: Buffer,
        nbytes: int | None = None,
        *,
        device: Optional[int] = None,
        stream: Optional[Stream] = None,
    ) -> Event:
        """Launch the read-only reduction kernel (async)."""
        physical = self._physical(device)
        if stream is None:
            stream = self.null_stream(device)
        return stream.enqueue(
            lambda: self.kernel_api.read_sum(physical, src, nbytes),
            label="read_sum",
        )

    # -- peer access ----------------------------------------------------------------------

    def can_access_peer(self, device: int, peer: int) -> bool:
        """``hipDeviceCanAccessPeer``."""
        return self.peer_api.can_access_peer(
            self._physical(device), self._physical(peer)
        )

    def enable_peer_access(self, peer: int, *, device: Optional[int] = None) -> None:
        """``hipDeviceEnablePeerAccess`` for the current device."""
        self.peer_api.enable_peer_access(
            self._physical(device), self._physical(peer)
        )

    def enable_all_peer_access(self) -> int:
        """Enable peer access between every pair (benchmark setup)."""
        return self.peer_api.enable_all_pairs()

    # -- managed-memory helpers --------------------------------------------------------------

    def mem_prefetch(self, buffer: Buffer, device: Optional[int] = None) -> Generator:
        """``hipMemPrefetchAsync`` + sync: bulk-migrate managed memory."""
        from ..memory.buffer import Location

        target = Location.gcd(self._physical(device))
        yield from self.migration.prefetch(buffer, target)

    # -- driver -----------------------------------------------------------------------------------

    def run(self, process: Generator, name: str = "") -> Any:
        """Drive a simulation process to completion; returns its value."""
        return self.engine.run_process(process, name)
