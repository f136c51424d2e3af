"""HBM2e stack model.

Each GCD owns 64 GB of HBM2e with a 1.6 TB/s peak (paper §II).  The
paper's local-memory reference point is the STREAM copy kernel at
1400 GB/s — 87 % of peak (§V-B) — which calibrates the achievable
streaming efficiency.

The stack is represented as a single flow-network channel whose
capacity is the *achievable* streaming bandwidth; a STREAM copy of
``S`` bytes pushes ``2S`` bytes (read + write) through it, so the
reported STREAM bandwidth ``2S/t`` lands exactly on the calibrated
value.  Capacity accounting (allocation sizes) is tracked here too so
out-of-memory conditions surface like real ``hipErrorOutOfMemory``.
"""

from __future__ import annotations

from typing import Hashable

from ..core.calibration import CalibrationProfile
from ..errors import AllocationError
from ..topology.node import GcdInfo


def hbm_channel_id(gcd_index: int) -> Hashable:
    """Flow-network channel id of a GCD's HBM stack."""
    return ("hbm", gcd_index)


def hbm_channels(
    gcd: GcdInfo, calibration: CalibrationProfile
) -> list[tuple[Hashable, float]]:
    """``(channel id, capacity)`` of a GCD's HBM: its achievable stream rate."""
    return [(hbm_channel_id(gcd.index), calibration.hbm_stream_bw(gcd.hbm_peak_bw))]


class HbmStack:
    """One GCD's HBM: a bandwidth channel plus a capacity ledger."""

    def __init__(self, gcd: GcdInfo, calibration: CalibrationProfile) -> None:
        self.gcd_index = gcd.index
        self.capacity_bytes = gcd.hbm_bytes
        self.peak_bandwidth = gcd.hbm_peak_bw
        self.stream_bandwidth = calibration.hbm_stream_bw(gcd.hbm_peak_bw)
        self._allocated = 0
        self.channel = hbm_channel_id(gcd.index)

    @property
    def allocated_bytes(self) -> int:
        """Bytes currently reserved on this stack."""
        return self._allocated

    @property
    def free_bytes(self) -> int:
        """Remaining capacity of this stack."""
        return self.capacity_bytes - self._allocated

    def reserve(self, size: int) -> None:
        """Account for an allocation; raises on exhaustion."""
        if size < 0:
            raise AllocationError("allocation size must be non-negative")
        if self._allocated + size > self.capacity_bytes:
            raise AllocationError(
                f"GCD {self.gcd_index} HBM exhausted: "
                f"{self._allocated + size} > {self.capacity_bytes} bytes"
            )
        self._allocated += size

    def release(self, size: int) -> None:
        """Return bytes to the ledger; over-release raises."""
        if size < 0 or size > self._allocated:
            raise AllocationError(
                f"GCD {self.gcd_index}: releasing {size} bytes of "
                f"{self._allocated} allocated"
            )
        self._allocated -= size
