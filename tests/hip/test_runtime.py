"""Tests for the HipRuntime facade: devices, allocation, sync."""

import pytest

from repro.config import SimEnvironment
from repro.errors import AllocationError, InvalidDeviceError
from repro.hardware.node import HardwareNode
from repro.hip.enums import HostMallocFlags
from repro.hip.runtime import HipRuntime
from repro.memory.buffer import MemoryKind
from repro.memory.placement import ExplicitNumaPolicy
from repro.units import GiB, MiB


class TestDeviceManagement:
    def test_device_count(self, hip):
        assert hip.device_count() == 8

    def test_set_get_device(self, hip):
        hip.set_device(5)
        assert hip.get_device() == 5
        assert hip.physical_device() == 5

    def test_invalid_device(self, hip):
        with pytest.raises(InvalidDeviceError):
            hip.set_device(8)

    def test_visible_devices_remap(self):
        env = SimEnvironment(visible_devices=(6, 2))
        hip = HipRuntime(HardwareNode(), env=env)
        assert hip.device_count() == 2
        hip.set_device(0)
        assert hip.physical_device() == 6
        hip.set_device(1)
        assert hip.physical_device() == 2
        with pytest.raises(InvalidDeviceError):
            hip.set_device(2)

    def test_visible_devices_affects_allocation(self):
        env = SimEnvironment(visible_devices=(7,))
        hip = HipRuntime(HardwareNode(), env=env)
        hip.set_device(0)
        buffer = hip.malloc(1 * MiB)
        assert buffer.home.index == 7


class TestAllocationApis:
    def test_malloc_is_device_memory(self, hip):
        buffer = hip.malloc(1 * MiB, device=3)
        assert buffer.kind is MemoryKind.DEVICE
        assert buffer.home.index == 3
        assert hip.node.gcd(3).hbm.allocated_bytes == 1 * MiB

    def test_free_returns_hbm(self, hip):
        buffer = hip.malloc(1 * MiB, device=3)
        hip.free(buffer)
        assert hip.node.gcd(3).hbm.allocated_bytes == 0

    def test_device_oom(self, hip):
        hip.malloc(60 * 10**9, device=0)
        with pytest.raises(AllocationError):
            hip.malloc(10 * 10**9, device=0)

    def test_host_malloc_default_coherent(self, hip):
        buffer = hip.host_malloc(1 * MiB)
        assert buffer.kind is MemoryKind.PINNED_COHERENT

    def test_host_malloc_noncoherent_flag(self, hip):
        buffer = hip.host_malloc(1 * MiB, HostMallocFlags.NON_COHERENT)
        assert buffer.kind is MemoryKind.PINNED_NONCOHERENT

    def test_conflicting_flags(self, hip):
        with pytest.raises(AllocationError):
            hip.host_malloc(
                1 * MiB,
                HostMallocFlags.COHERENT | HostMallocFlags.NON_COHERENT,
            )

    def test_host_malloc_numa_follows_device(self, hip):
        # §IV-B: default placement is the active GPU's NUMA node.
        hip.set_device(6)
        buffer = hip.host_malloc(1 * MiB)
        assert buffer.home.index == 3

    def test_numa_user_policy(self, hip):
        buffer = hip.host_malloc(
            1 * MiB,
            HostMallocFlags.NUMA_USER,
            policy=ExplicitNumaPolicy(2),
        )
        assert buffer.home.index == 2

    def test_numa_user_without_policy(self, hip):
        with pytest.raises(AllocationError):
            hip.host_malloc(1 * MiB, HostMallocFlags.NUMA_USER)

    def test_managed_allocation(self, hip):
        buffer = hip.malloc_managed(1 * MiB, device=4)
        assert buffer.kind is MemoryKind.MANAGED
        assert buffer.home.is_host and buffer.home.index == 2
        assert buffer.page_table is not None

    def test_pageable(self, hip):
        buffer = hip.pageable_malloc(1 * MiB, numa_index=1)
        assert buffer.kind is MemoryKind.PAGEABLE
        assert buffer.home.index == 1

    def test_register_host_buffer(self, hip):
        pageable = hip.pageable_malloc(1 * MiB)
        pinned = hip.alloc_api.register_host_buffer(pageable)
        assert pinned.kind is MemoryKind.PINNED_COHERENT
        assert pinned.address == pageable.address
        with pytest.raises(AllocationError):
            hip.alloc_api.register_host_buffer(hip.host_malloc(1 * MiB))


class TestSynchronization:
    def test_device_synchronize_waits_for_all_streams(self, hip):
        a = hip.malloc(64 * MiB, device=0)
        b = hip.malloc(64 * MiB, device=0)
        stream = hip.stream_create(device=0)
        hip.launch_stream_copy(b, a, device=0)  # null stream
        hip.launch_stream_copy(a, b, device=0, stream=stream)

        def run():
            yield from hip.device_synchronize(0)
            return hip.now

        elapsed = hip.run(run())
        assert elapsed > 0
        assert hip.null_stream(0).pending_operations == 0
        assert stream.pending_operations == 0

    def test_sync_of_idle_device_is_instant(self, hip):
        def run():
            yield from hip.device_synchronize(4)
            return hip.now

        assert hip.run(run()) == 0.0
