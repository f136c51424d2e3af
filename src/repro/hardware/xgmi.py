"""xGMI protocol details and directional channel naming.

Each topology :class:`~repro.topology.link.Link` is full duplex: its
two directions are independent 50 GB/s (or 36 GB/s) channels, which is
why the paper writes "50+50 GB/s".  The flow network therefore gets
*two* channels per link, whose ids each :class:`Link` computes once
(:attr:`Link.channels`).  This module owns the route→channel
translation used by every transfer path in the simulator.

It also carries the raw protocol parameters from §II-A (16 bits per
transaction at 25 GT/s) for documentation and for the protocol-level
sanity checks in the test suite.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from ..topology.link import Link, LinkEndpoint
from ..topology.routing import Route

#: xGMI signalling parameters (paper §II-A).
TRANSACTION_BITS = 16
TRANSFER_RATE_GT = 25.0  # giga-transfers per second


def protocol_peak_bandwidth() -> float:
    """Peak bytes/s of one xGMI link from first principles.

    16 bit × 25 GT/s = 50 GB/s, matching
    :data:`repro.topology.link.XGMI_LINK_BW`.
    """
    return TRANSACTION_BITS / 8 * TRANSFER_RATE_GT * 1e9


def link_channel(link: Link, src: LinkEndpoint, dst: LinkEndpoint) -> Hashable:
    """Channel id for traversing ``link`` in the ``src``→``dst`` direction.

    The id embeds the link name and a canonical direction tag (``fwd``
    = from the lexicographically smaller endpoint), so both traversal
    orders of the same physical direction map to the same channel.
    """
    return link.channel(src, dst)


def both_channels(link: Link) -> tuple[Hashable, Hashable]:
    """The (fwd, rev) channel ids of a link."""
    return link.channels


def channels_for_route(route: Route) -> list[Hashable]:
    """Directional link channels crossed when moving bytes along ``route``.

    Local routes (zero hops) return an empty list: such transfers are
    constrained only by memory-side channels and flow caps.
    """
    return [link.channel(src, dst) for src, dst, link in route.hop_pairs()]


def reverse_channels_for_route(route: Route) -> list[Hashable]:
    """Channels for the opposite direction (responses, write-backs)."""
    return [link.channel(dst, src) for src, dst, link in route.hop_pairs()]


def register_link_channels(network, links: Iterable[Link]) -> None:
    """Add both directional channels of every link to a flow network."""
    for link in links:
        capacity = link.capacity_per_direction
        for channel in link.channels:
            network.add_channel(channel, capacity)
