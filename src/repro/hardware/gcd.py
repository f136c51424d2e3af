"""One Graphics Compute Die as a live simulation object.

A :class:`GcdDevice` bundles the per-die resources — HBM stack, cache
hierarchy, SDMA engine pair — and carries the static
:class:`~repro.topology.node.GcdInfo`.  The HIP runtime layer holds one
of these per physical device; kernels and copies acquire channels and
caps through it.
"""

from __future__ import annotations

from ..core.calibration import CalibrationProfile
from ..topology.node import GcdInfo
from .cache import CacheHierarchy
from .hbm import HbmStack
from .sdma import SdmaEngines


class GcdDevice:
    """Live per-GCD hardware state."""

    def __init__(self, info: GcdInfo, calibration: CalibrationProfile) -> None:
        self.info = info
        self.index = info.index
        self.hbm = HbmStack(info, calibration)
        self.cache = CacheHierarchy(info, calibration)
        self.sdma = SdmaEngines(info.index, calibration)
        self._calibration = calibration
        self._peer_access: set[int] = set()

    # -- peer access registry (hipDeviceEnablePeerAccess) -----------------

    def enable_peer_access(self, peer_index: int) -> bool:
        """Enable direct access to a peer; returns False if already on."""
        if peer_index == self.index:
            return False
        if peer_index in self._peer_access:
            return False
        self._peer_access.add(peer_index)
        return True

    def disable_peer_access(self, peer_index: int) -> bool:
        """Disable a peer mapping; returns False if it was off."""
        if peer_index in self._peer_access:
            self._peer_access.remove(peer_index)
            return True
        return False

    def can_access_peer(self, peer_index: int) -> bool:
        """Whether kernels on this die may touch the peer's memory."""
        return peer_index == self.index or peer_index in self._peer_access

    @property
    def peer_set(self) -> frozenset[int]:
        """Frozen set of peers with access enabled."""
        return frozenset(self._peer_access)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GcdDevice {self.index} pkg{self.info.gpu_package} "
            f"numa{self.info.numa_domain}>"
        )
