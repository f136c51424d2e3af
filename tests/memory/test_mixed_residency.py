"""Pinned migrations of a managed buffer whose pages sit in several places.

A fault or prefetch over a buffer with mixed residency groups the
non-resident pages by their current location and starts one flow per
source, in order of each source's first (lowest) page.  These tests pin
that contract — flow order, per-source bytes (including the partial
last page), labels, page counts and the final simulated time — so a
change to how residency is stored cannot shift any of it.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import PageFaultError
from repro.hardware.node import HardwareNode
from repro.hip.runtime import HipRuntime
from repro.memory.buffer import Location
from repro.memory.pages import MigrationEngine
from repro.topology.link import LinkTier

PAGE = 4096
#: 12 full pages plus a 100-byte partial 13th page.
SIZE = 12 * PAGE + 100

HOST = Location.host(0)
GCD0 = Location.gcd(0)
GCD1 = Location.gcd(1)
GCD2 = Location.gcd(2)


@pytest.fixture
def mixed():
    """A fluid-mode runtime and a buffer with residency
    ``H G0 H G2 G2 G2 G2 H G1 G1 G2 H H(partial)``, flows captured."""
    node = HardwareNode(metrics=True, spans=True, trace=True)
    hip = HipRuntime(node)
    buffer = hip.malloc_managed(SIZE, device=0, label="mixed")
    engine = hip.migration

    def setup():
        for offset, length, gcd in (
            (3 * PAGE, 4 * PAGE, 2),
            (8 * PAGE, 2 * PAGE, 1),
            (1 * PAGE, 1, 0),
            (10 * PAGE + 5, 10, 2),
        ):
            yield from engine.migrate_for_access(
                buffer, offset, length, gcd, xnack_enabled=True
            )

    hip.run(setup())
    table = buffer.page_table
    assert [table.page_location(p) for p in range(table.num_pages)] == [
        HOST, GCD0, HOST, GCD2, GCD2, GCD2, GCD2, HOST, GCD1, GCD1, GCD2, HOST, HOST
    ]
    flows = []
    start_flow = node.start_flow

    def recording_start_flow(channels, size, **kwargs):
        channels = list(channels)
        flows.append((kwargs.get("label"), size, kwargs.get("cap"), channels))
        return start_flow(channels, size, **kwargs)

    node.start_flow = recording_start_flow
    return hip, buffer, flows


def pages_migrated(node):
    return node.metrics.counter("memory/pages_migrated").value


class TestMixedResidencyFault:
    def test_whole_buffer_fault_from_gcd0(self, mixed):
        hip, buffer, flows = mixed
        node, engine, table = hip.node, hip.migration, buffer.page_table
        before = pages_migrated(node)
        assert before == 8
        assert (table.migrations_in, table.migrations_out) == (8, 0)

        def fault():
            yield from engine.migrate_for_access(
                buffer, 0, SIZE, 0, xnack_enabled=True
            )

        hip.run(fault())
        assert flows == [
            (
                "xnack-migrate x5",
                4 * PAGE + 100,
                engine.fault_bound_rate(HOST, 0),
                node.host_to_gcd_channels(0, 0),
            ),
            (
                "xnack-migrate x5",
                5 * PAGE,
                engine.fault_bound_rate(GCD2, 0),
                node.gcd_to_gcd_channels(2, 0),
            ),
            (
                "xnack-migrate x2",
                2 * PAGE,
                engine.fault_bound_rate(GCD1, 0),
                node.gcd_to_gcd_channels(1, 0),
            ),
        ]
        assert pages_migrated(node) - before == 12
        assert node.metrics.counter("memory/faults").value == 5
        assert (table.migrations_in, table.migrations_out) == (20, 0)
        assert table.resident_fraction(GCD0) == 1.0
        record = node.tracer.records("fault")[-1]
        assert record.detail["pages"] == 12
        span = node.spans.spans()[-1]
        assert (span.name, span.meta["pages"]) == ("migrate-fluid", 12)
        assert hip.now == 1.886056009601432e-05

    def test_discrete_faults_one_page_at_a_time(self, mixed):
        hip, buffer, flows = mixed
        node, table = hip.node, buffer.page_table
        engine = MigrationEngine(node, discrete=True)

        def fault():
            yield from engine.migrate_for_access(
                buffer, 0, SIZE, 0, xnack_enabled=True
            )

        hip.run(fault())
        pending = [0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
        assert [label for label, *_rest in flows] == [
            f"xnack-page{p}" for p in pending
        ]
        assert [size for _l, size, _c, _ch in flows] == [PAGE] * 11 + [100]
        assert (table.migrations_in, table.migrations_out) == (20, 0)
        assert node.metrics.counter("memory/faults").value == 4 + 12
        assert hip.now == 2.884695593429536e-05

    def test_xnack_off_reports_first_nonresident_page(self, mixed):
        hip, buffer, flows = mixed

        def fault():
            yield from hip.migration.migrate_for_access(
                buffer, PAGE, SIZE - PAGE, 0, xnack_enabled=False
            )

        with pytest.raises(PageFaultError, match="page 2$"):
            hip.run(fault())
        assert flows == []


class TestMixedResidencyPrefetch:
    def test_prefetch_back_to_host(self, mixed):
        hip, buffer, flows = mixed
        node, engine, table = hip.node, hip.migration, buffer.page_table
        hip.run(engine.prefetch(buffer, HOST))
        host_cap = node.calibration.sdma_cap_for_tier(LinkTier.CPU)
        assert flows == [
            ("prefetch", PAGE, host_cap, node.gcd_to_host_channels(0, 0)),
            ("prefetch", 5 * PAGE, host_cap, node.gcd_to_host_channels(2, 0)),
            ("prefetch", 2 * PAGE, host_cap, node.gcd_to_host_channels(1, 0)),
        ]
        assert (table.migrations_in, table.migrations_out) == (8, 8)
        assert table.resident_fraction(HOST) == 1.0
        assert hip.now == 1.2552309867119027e-05

    def test_prefetch_to_gcd3_includes_partial_page(self, mixed):
        hip, buffer, flows = mixed
        node, engine, table = hip.node, hip.migration, buffer.page_table
        hip.run(engine.prefetch(buffer, Location.gcd(3)))
        assert [(label, size) for label, size, _cap, _ch in flows] == [
            ("prefetch", 4 * PAGE + 100),
            ("prefetch", PAGE),
            ("prefetch", 5 * PAGE),
            ("prefetch", 2 * PAGE),
        ]
        assert [channels for *_rest, channels in flows] == [
            node.host_to_gcd_channels(0, 3),
            node.gcd_to_gcd_channels(0, 3),
            node.gcd_to_gcd_channels(2, 3),
            node.gcd_to_gcd_channels(1, 3),
        ]
        assert all(math.isfinite(cap) for _l, _s, cap, _c in flows)
        assert (table.migrations_in, table.migrations_out) == (21, 0)
        assert table.resident_fraction(Location.gcd(3)) == 1.0
        assert hip.now == 1.2300599378003958e-05
