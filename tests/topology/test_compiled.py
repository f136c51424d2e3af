"""The process-wide compiled-topology table: sharing and isolation."""

import sys
import threading

from repro import Session
from repro.faults import FaultScenario, LinkFail
from repro.hardware.node import HardwareNode
from repro.topology import compiled as compiled_module
from repro.topology.compiled import MAX_COMPILED, compile_topology
from repro.topology.node import GcdInfo, NodeTopologyBuilder, NumaDomainInfo
from repro.topology.presets import frontier_node

DEAD_LINK = "gcd0-gcd1:quad"


def _pair(capacity_gbps=None):
    builder = NodeTopologyBuilder("pair")
    builder.add_numa_domain(NumaDomainInfo(index=0))
    for gcd in range(2):
        builder.add_gcd(GcdInfo(index=gcd, gpu_package=0, numa_domain=0))
        builder.connect_cpu(gcd, 0)
    builder.connect_gcds(0, 1, 4, capacity_gbps=capacity_gbps)
    return builder.build()


def test_equal_topologies_share_one_table():
    first, second = frontier_node(), frontier_node(name="renamed")
    assert first is not second
    assert first.compiled() is second.compiled()
    assert compile_topology(first) is first.compiled()


def test_link_fail_detours_then_restores_original_route():
    healthy = HardwareNode().gcd_route(0, 1)
    node = HardwareNode(
        faults=FaultScenario(
            events=(LinkFail(link=DEAD_LINK, at=0.0, until=1.0),), name="blip"
        )
    )
    seen = {}

    def sampler():
        yield node.engine.timeout(0.5)
        seen["during"] = node.gcd_route(0, 1)
        yield node.engine.timeout(1.0)
        seen["after"] = node.gcd_route(0, 1)

    node.engine.process(sampler())
    node.engine.run()
    assert DEAD_LINK in {link.name for link in healthy.links}
    assert DEAD_LINK not in {link.name for link in seen["during"].links}
    assert seen["during"].num_hops > healthy.num_hops
    assert seen["after"] == healthy


def test_session_after_a_faulted_one_sees_healthy_routes():
    faulted = Session(
        topology=frontier_node(),
        faults=FaultScenario(events=(LinkFail(link=DEAD_LINK, at=0.0),), name="dead"),
    )
    with faulted:
        faulted.node.engine.run()
        assert DEAD_LINK in faulted.node.failed_links()
        detour = faulted.node.gcd_route(0, 1)
        detour_channels = faulted.node.gcd_to_gcd_channels(0, 1)
    with Session(topology=frontier_node(name="fresh")) as fresh:
        assert fresh.node.topology.compiled() is faulted.node.topology.compiled()
        route = fresh.node.gcd_route(0, 1)
        assert route != detour
        assert [link.name for link in route.links] == [DEAD_LINK]
        assert fresh.node.gcd_to_gcd_channels(0, 1) != detour_channels


def test_capacity_override_keys_a_separate_table():
    plain, tuned = _pair(), _pair(capacity_gbps=150.0)
    assert plain.fingerprint() != tuned.fingerprint()
    assert plain.compiled() is not tuned.compiled()
    assert plain.compiled().route(0, 1).bottleneck_capacity == 200e9
    assert tuned.compiled().route(0, 1).bottleneck_capacity == 150e9


def test_table_stays_at_its_bound():
    topologies = [_pair(capacity_gbps=10.0 + i) for i in range(MAX_COMPILED + 3)]
    tables = [topology.compiled() for topology in topologies]
    assert len(compiled_module._TABLE) == MAX_COMPILED
    assert len({id(table) for table in tables}) == len(topologies)
    # The most recent ones are still shared; the oldest were evicted
    # and compile afresh (to equal routes).
    assert topologies[-1].compiled() is tables[-1]
    assert topologies[0].compiled() is not tables[0]
    assert topologies[0].compiled().route(0, 1) == tables[0].route(0, 1)


def test_concurrent_compiles_and_lookups_stay_bounded_and_exact():
    capacities = [10.0 + i for i in range(2 * MAX_COMPILED)]
    expected = {c: _pair(capacity_gbps=c).compiled().route(0, 1) for c in capacities}
    frontier_expected = frontier_node().compiled().route(1, 7)
    errors = []

    def worker(offset):
        try:
            for step in range(3 * len(capacities)):
                capacity = capacities[(offset + step) % len(capacities)]
                assert _pair(capacity_gbps=capacity).compiled().route(0, 1) == expected[capacity]
                assert frontier_node().compiled().route(1, 7) == frontier_expected
        except Exception as exc:  # surfaced below with the thread's offset
            errors.append((offset, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(compiled_module._TABLE) <= MAX_COMPILED
