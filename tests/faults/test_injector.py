"""FaultInjector: target resolution, event application, and heals."""

import pytest

from repro.errors import ConfigurationError, LinkDownError, SimulationError
from repro.faults import (
    FaultScenario,
    LinkDegrade,
    LinkFail,
    PageMigrationStorm,
    SdmaStall,
)
from repro.faults.injector import FaultInjector, resolve_link
from repro.hardware.node import HardwareNode
from repro.hardware.xgmi import both_channels

DEAD_LINK = "gcd1-gcd3:single"


def scenario(*events, name="test"):
    return FaultScenario(events=tuple(events), name=name)


class TestLinkResolution:
    def test_all_spec_forms_resolve_to_the_same_link(self, topology):
        exact = resolve_link(topology, DEAD_LINK)
        assert resolve_link(topology, "gcd1-gcd3") is exact
        assert resolve_link(topology, "1-3") is exact

    def test_cpu_links_resolve_by_endpoint_pair(self, topology):
        link = resolve_link(topology, "gcd0-numa0")
        assert link.name == "gcd0-numa0:cpu"

    def test_unknown_link_lists_known_names(self, topology):
        with pytest.raises(ConfigurationError, match="known links"):
            resolve_link(topology, "gcd0-gcd3")


class TestConstructionValidation:
    def test_unknown_link_fails_at_node_construction(self):
        with pytest.raises(ConfigurationError, match="unknown link"):
            HardwareNode(
                faults=scenario(LinkFail(link="gcd9-gcd10", at=0.0))
            )

    def test_storm_rate_must_stay_below_dram_bandwidth(self):
        with pytest.raises(ConfigurationError, match="DRAM bandwidth"):
            HardwareNode(
                faults=scenario(
                    PageMigrationStorm(numa=0, at=0.0, rate=1e15)
                )
            )

    def test_bad_sdma_direction_rejected(self):
        with pytest.raises(ConfigurationError, match="direction"):
            HardwareNode(
                faults=scenario(
                    SdmaStall(engine="gcd0:sideways", at=0.0, duration=1.0)
                )
            )

    def test_double_arm_rejected(self):
        node = HardwareNode()
        injector = FaultInjector(
            node, scenario(LinkFail(link=DEAD_LINK, at=0.0))
        )
        injector.arm()
        with pytest.raises(SimulationError, match="already armed"):
            injector.arm()

    def test_past_events_rejected_at_arm_time(self):
        node = HardwareNode()

        def advance():
            yield node.engine.timeout(1.0)

        node.engine.run_process(advance())
        injector = FaultInjector(
            node, scenario(LinkFail(link=DEAD_LINK, at=0.5))
        )
        with pytest.raises(ConfigurationError, match="in the past"):
            injector.arm()


class TestLinkDegrade:
    def test_degrade_scales_both_directions(self):
        node = HardwareNode(
            faults=scenario(LinkDegrade(link=DEAD_LINK, factor=0.5, at=0.0))
        )
        node.engine.run()
        link = resolve_link(node.topology, DEAD_LINK)
        for channel in both_channels(link):
            assert node.network.capacity(channel) == pytest.approx(
                0.5 * link.capacity_per_direction
            )

    def test_degrades_do_not_compound(self):
        """factor is relative to healthy capacity, not the current one."""
        node = HardwareNode(
            faults=scenario(
                LinkDegrade(link=DEAD_LINK, factor=0.5, at=0.0),
                LinkDegrade(link=DEAD_LINK, factor=0.8, at=1.0),
            )
        )
        node.engine.run()
        link = resolve_link(node.topology, DEAD_LINK)
        for channel in both_channels(link):
            assert node.network.capacity(channel) == pytest.approx(
                0.8 * link.capacity_per_direction
            )

    def test_factor_one_restores_and_clears_alias(self):
        node = HardwareNode(
            faults=scenario(
                LinkDegrade(link=DEAD_LINK, factor=0.5, at=0.0),
                LinkDegrade(link=DEAD_LINK, factor=1.0, at=1.0),
            )
        )
        node.engine.run()
        link = resolve_link(node.topology, DEAD_LINK)
        for channel in both_channels(link):
            assert node.network.capacity(channel) == pytest.approx(
                link.capacity_per_direction
            )
            assert channel not in node.network._blame_names


class TestLinkFail:
    def test_inflight_flow_fails_at_event_time_then_link_heals(self):
        node = HardwareNode(
            faults=scenario(LinkFail(link=DEAD_LINK, at=0.4, until=0.8))
        )
        link = resolve_link(node.topology, DEAD_LINK)
        caught = []

        def victim():
            # 50 GB over a ~50 GB/s single link: still in flight at t=0.4.
            flow = node.start_flow(
                node.gcd_to_gcd_channels(1, 3),
                link.capacity_per_direction,
                label="victim",
            )
            try:
                yield flow.done
            except LinkDownError as exc:
                caught.append((node.now, exc))

        node.engine.process(victim())
        node.engine.run()
        assert len(caught) == 1
        at, exc = caught[0]
        assert at == pytest.approx(0.4)
        assert "victim" in str(exc)
        # Heal timer restored capacity and the failed-link registry.
        assert not node.failed_links()
        for channel in both_channels(link):
            assert node.network.capacity(channel) == pytest.approx(
                link.capacity_per_direction
            )

    def test_routes_detour_during_outage_and_recover_after(self):
        node = HardwareNode(
            faults=scenario(LinkFail(link=DEAD_LINK, at=0.0, until=1.0))
        )
        link = resolve_link(node.topology, DEAD_LINK)
        dead = set(both_channels(link))
        healthy_channels = tuple(HardwareNode().gcd_to_gcd_channels(1, 3))
        seen = {}

        def sampler():
            yield node.engine.timeout(0.5)
            seen["during"] = (
                tuple(node.gcd_to_gcd_channels(1, 3)),
                node.failed_links(),
            )
            yield node.engine.timeout(1.0)
            seen["after"] = (
                tuple(node.gcd_to_gcd_channels(1, 3)),
                node.failed_links(),
            )

        node.engine.process(sampler())
        node.engine.run()
        during_channels, during_failed = seen["during"]
        assert DEAD_LINK in during_failed
        assert dead.isdisjoint(during_channels)
        after_channels, after_failed = seen["after"]
        assert not after_failed
        assert after_channels == healthy_channels

    def test_new_transfer_on_dead_channel_raises_up_front(self):
        node = HardwareNode(
            faults=scenario(LinkFail(link=DEAD_LINK, at=0.0))
        )
        link = resolve_link(node.topology, DEAD_LINK)
        node.engine.run()
        with pytest.raises(LinkDownError, match="down"):
            node.start_flow(both_channels(link), 1e9)


class TestSdmaStall:
    def test_stall_applies_for_duration_then_clears(self):
        node = HardwareNode(
            faults=scenario(
                SdmaStall(engine="gcd0:out", at=0.0, duration=0.5)
            )
        )
        sampled = []

        def sampler():
            yield node.engine.timeout(0.25)
            sdma = node.gcd(0).sdma
            sampled.append(
                (
                    sdma.is_stalled(outbound=True),
                    sdma.is_stalled(outbound=False),
                )
            )

        node.engine.process(sampler())
        node.engine.run()
        assert sampled == [(True, False)]
        assert not node.gcd(0).sdma.is_stalled(outbound=True)

    def test_bare_gcd_spec_stalls_both_directions(self):
        node = HardwareNode(
            faults=scenario(SdmaStall(engine="gcd2", at=0.0, duration=0.5))
        )
        sampled = []

        def sampler():
            yield node.engine.timeout(0.25)
            sdma = node.gcd(2).sdma
            sampled.append(
                (
                    sdma.is_stalled(outbound=True),
                    sdma.is_stalled(outbound=False),
                )
            )

        node.engine.process(sampler())
        node.engine.run()
        assert sampled == [(True, True)]


class TestPageMigrationStorm:
    def test_storm_steals_dram_bandwidth_then_restores(self):
        rate = 1e10
        node = HardwareNode(
            faults=scenario(
                PageMigrationStorm(numa=0, at=0.0, rate=rate, duration=0.5)
            )
        )
        channel = node.cpu.dram_channel(0)
        healthy = node.network.capacity(channel)
        sampled = []

        def sampler():
            yield node.engine.timeout(0.25)
            sampled.append(node.network.capacity(channel))

        node.engine.process(sampler())
        node.engine.run()
        assert sampled == [pytest.approx(healthy - rate)]
        assert node.network.capacity(channel) == pytest.approx(healthy)
