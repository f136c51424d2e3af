"""Infinity Fabric link model.

Paper §II-A: each xGMI link operates on 16 bits per transaction at
25 GT/s, i.e. 50 GB/s peak per direction (50+50 GB/s bidirectional).
GCD-GCD connections bundle one, two, or four such links (the paper's
*single*, *dual*, and *quad* tiers), while each GCD additionally has a
single Infinity Fabric link to the host CPU with 36 GB/s per direction.

A :class:`Link` here is one *edge* of the topology graph — i.e. a whole
bundle, with ``width`` physical xGMI links — because that is the
granularity at which routing and bandwidth sharing operate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from ..errors import TopologyError
from ..units import gbps

#: Peak bandwidth of one xGMI link, one direction (16 bit × 25 GT/s).
XGMI_LINK_BW = gbps(50.0)

#: Peak bandwidth of the CPU-GCD Infinity Fabric link, one direction.
CPU_LINK_BW = gbps(36.0)

#: Peak bandwidth of one inter-node NIC, one direction.  Frontier/LUMI
#: attach one Slingshot-11 NIC (200 Gb/s ≈ 25 GB/s) per NUMA domain.
NIC_LINK_BW = gbps(25.0)


class LinkTier(enum.Enum):
    """Bandwidth tier of a GCD-GCD connection, the CPU tier, or the
    inter-node NIC tier."""

    SINGLE = 1  #: one xGMI link:   50 GB/s per direction
    DUAL = 2    #: two xGMI links: 100 GB/s per direction
    QUAD = 4    #: four xGMI links: 200 GB/s per direction
    CPU = 0     #: CPU-GCD link:    36 GB/s per direction
    NIC = -1    #: inter-node NIC:  25 GB/s per direction

    @property
    def width(self) -> int:
        """Number of physical xGMI links in the bundle (CPU/NIC: 1)."""
        return self.value if self.value > 0 else 1

    @property
    def peak_unidirectional(self) -> float:
        """Peak bytes/s in one direction."""
        if self is LinkTier.CPU:
            return CPU_LINK_BW
        if self is LinkTier.NIC:
            return NIC_LINK_BW
        return self.value * XGMI_LINK_BW

    @property
    def peak_bidirectional(self) -> float:
        """Peak bytes/s summed over both directions."""
        return 2.0 * self.peak_unidirectional

    @classmethod
    def from_width(cls, width: int) -> "LinkTier":
        """Tier for a GCD-GCD bundle of ``width`` xGMI links."""
        try:
            return {1: cls.SINGLE, 2: cls.DUAL, 4: cls.QUAD}[width]
        except KeyError:
            raise TopologyError(
                f"GCD-GCD bundles have width 1, 2 or 4, not {width}"
            ) from None


@dataclass(frozen=True, order=True)
class LinkEndpoint:
    """One end of a link: either a GCD or a CPU NUMA domain port.

    ``kind`` is ``"gcd"`` or ``"numa"``; ``index`` is the GCD index
    (0–7) or the NUMA domain index (0–3).
    """

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in ("gcd", "numa"):
            raise TopologyError(f"unknown endpoint kind {self.kind!r}")
        if self.index < 0:
            raise TopologyError("endpoint index must be non-negative")

    @classmethod
    def gcd(cls, index: int) -> "LinkEndpoint":
        return cls("gcd", index)

    @classmethod
    def numa(cls, index: int) -> "LinkEndpoint":
        return cls("numa", index)

    @property
    def is_gcd(self) -> bool:
        """True for GCD endpoints."""
        return self.kind == "gcd"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}{self.index}"


EndpointLike = Union[LinkEndpoint, int]


def as_endpoint(value: EndpointLike) -> LinkEndpoint:
    """Coerce a bare int (GCD index) or endpoint to a :class:`LinkEndpoint`."""
    if isinstance(value, LinkEndpoint):
        return value
    return LinkEndpoint.gcd(int(value))


@dataclass(frozen=True)
class Link:
    """An undirected edge of the node topology.

    Capacity is *per direction*; the two directions of an Infinity
    Fabric link are independent 50 GB/s (or 36 GB/s) channels, which is
    why the paper reports "50+50 GB/s".  The simulator therefore tracks
    flow occupancy per direction (see :mod:`repro.sim.fairshare`).

    ``capacity_override`` replaces the tier's peak per-direction
    bandwidth (bytes/s) for this one edge.  Real MI250X nodes show
    per-link heterogeneity the fixed tier table cannot express
    (Pearson 2023); an override lets a measured or calibrated capacity
    be carried as data while the tier keeps describing the physical
    bundle (width, endpoint rules, routing preferences).
    """

    a: LinkEndpoint
    b: LinkEndpoint
    tier: LinkTier
    capacity_override: float | None = None

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise TopologyError(f"self-link at {self.a}")
        if self.capacity_override is not None:
            override = float(self.capacity_override)
            if not override > 0.0 or override != override or override == float("inf"):
                raise TopologyError(
                    f"link capacity override must be a positive finite "
                    f"bytes/s value, got {self.capacity_override!r}"
                )
            object.__setattr__(self, "capacity_override", override)
        if self.tier is LinkTier.CPU:
            kinds = {self.a.kind, self.b.kind}
            if kinds != {"gcd", "numa"}:
                raise TopologyError(
                    "CPU-tier links must connect a GCD to a NUMA domain"
                )
        elif self.tier is LinkTier.NIC:
            if self.a.kind != "numa" or self.b.kind != "numa":
                raise TopologyError(
                    "NIC-tier links must connect two NUMA domains "
                    "(the per-domain NICs of two nodes)"
                )
        else:
            if not (self.a.is_gcd and self.b.is_gcd):
                raise TopologyError("xGMI-tier links must connect two GCDs")
        # Derived once: plain attributes, not dataclass fields, so eq,
        # hash and repr still cover only the four declared fields.
        lo = min(self.a, self.b)
        name = f"{lo}-{max(self.a, self.b)}:{self.tier.name.lower()}"
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_name", name)
        object.__setattr__(
            self, "_channels", (("link", name, "fwd"), ("link", name, "rev"))
        )

    @property
    def name(self) -> str:
        """Stable identifier, endpoints in sorted order."""
        return self._name

    @property
    def channels(self) -> "tuple[tuple[str, str, str], tuple[str, str, str]]":
        """The ``(fwd, rev)`` flow-network channel ids of the two directions.

        ``fwd`` leaves the smaller endpoint, so both traversal orders of
        one physical direction map to the same channel.
        """
        return self._channels

    def channel(self, src: LinkEndpoint, dst: LinkEndpoint) -> "tuple[str, str, str]":
        """Channel id for crossing the link in the ``src``→``dst`` direction."""
        if src == self.a and dst == self.b or src == self.b and dst == self.a:
            return self._channels[0 if src == self._lo else 1]
        raise TopologyError(f"link {self._name} does not connect {src} and {dst}")

    @property
    def capacity_per_direction(self) -> float:
        """Peak bytes/s in one direction (override, else tier peak)."""
        if self.capacity_override is not None:
            return self.capacity_override
        return self.tier.peak_unidirectional

    @property
    def capacity_bidirectional(self) -> float:
        """Peak bytes/s summed over both directions."""
        return 2.0 * self.capacity_per_direction

    @property
    def is_cpu_link(self) -> bool:
        """True for CPU-GCD links."""
        return self.tier is LinkTier.CPU

    @property
    def is_nic_link(self) -> bool:
        """True for inter-node NIC links."""
        return self.tier is LinkTier.NIC

    def endpoints(self) -> tuple[LinkEndpoint, LinkEndpoint]:
        """Both endpoints as a tuple."""
        return (self.a, self.b)

    def other(self, endpoint: LinkEndpoint) -> LinkEndpoint:
        """The endpoint opposite ``endpoint``."""
        if endpoint == self.a:
            return self.b
        if endpoint == self.b:
            return self.a
        raise TopologyError(f"{endpoint} is not an endpoint of {self.name}")

    def connects(self, x: EndpointLike, y: EndpointLike) -> bool:
        """Whether the link joins the two given endpoints."""
        ex, ey = as_endpoint(x), as_endpoint(y)
        return {ex, ey} == {self.a, self.b}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name

    @staticmethod
    def tier_from_name(link_name: str) -> LinkTier:
        """Recover the tier from a :attr:`Link.name` string.

        Link names carry their tier as a suffix (``gcd0-gcd1:quad``),
        so observability code can map a link-channel metric name back
        to the bundle's peak bandwidth without holding the topology.
        """
        _, _, token = link_name.rpartition(":")
        try:
            return LinkTier[token.upper()]
        except KeyError:
            raise TopologyError(
                f"no link tier encoded in {link_name!r}"
            ) from None


def peak_bandwidth_of_channel_name(metric_name: str) -> float | None:
    """Peak bytes/s of a flattened link-channel metric name.

    The flow network registers link directions as
    ``("link", <link name>, "fwd"|"rev")`` channels, which the metrics
    registry flattens to ``link/<link name>/<dir>`` strings.  Returns
    ``None`` for names that are not link channels (SDMA engines, DRAM
    ports, sockets…).
    """
    parts = metric_name.split("/")
    if len(parts) != 3 or parts[0] != "link":
        return None
    try:
        return Link.tier_from_name(parts[1]).peak_unidirectional
    except TopologyError:
        return None
