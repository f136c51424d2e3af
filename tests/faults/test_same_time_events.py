"""Same-timestamp fault events fire in scenario listing order.

The injector arms one engine timer per event; the epoch queue's FIFO
tie-break therefore makes *listing order* the execution order for
events sharing an ``at`` time.  Last-writer-wins effects (capacity
sets) are how we observe it.
"""

import pytest

from repro.faults import FaultScenario, LinkDegrade
from repro.faults.injector import resolve_link
from repro.hardware.node import HardwareNode
from repro.hardware.xgmi import both_channels

LINK = "gcd1-gcd3:single"


def degraded_capacity(node):
    link = resolve_link(node.topology, LINK)
    (channel, _) = both_channels(link)
    return node.network.capacity(channel), link.capacity_per_direction


@pytest.mark.parametrize(
    "factors, winner",
    [((0.5, 0.25), 0.25), ((0.25, 0.5), 0.5)],
    ids=["halve-then-quarter", "quarter-then-halve"],
)
def test_same_time_degrades_apply_in_listing_order(factors, winner):
    # Both events target the same link at the same instant; each sets
    # capacity to factor × healthy, so the listed-last factor must win.
    scenario = FaultScenario(
        events=tuple(
            LinkDegrade(link=LINK, at=1e-3, factor=factor)
            for factor in factors
        ),
        name="same-time",
    )
    node = HardwareNode(faults=scenario)
    node.engine.run(until=2e-3)
    capacity, healthy = degraded_capacity(node)
    assert capacity == pytest.approx(winner * healthy)


def test_same_time_events_on_distinct_links_all_apply():
    other = "gcd0-gcd2:single"
    scenario = FaultScenario(
        events=(
            LinkDegrade(link=LINK, at=1e-3, factor=0.5),
            LinkDegrade(link=other, at=1e-3, factor=0.25),
        ),
        name="fan-out",
    )
    node = HardwareNode(faults=scenario)
    node.engine.run(until=2e-3)
    for spec, factor in ((LINK, 0.5), (other, 0.25)):
        link = resolve_link(node.topology, spec)
        for channel in both_channels(link):
            assert node.network.capacity(channel) == pytest.approx(
                factor * link.capacity_per_direction
            )
