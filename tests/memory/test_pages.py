"""Tests for page tables and the XNACK migration engine."""

import pytest

from repro.errors import InvalidAddressError, PageFaultError
from repro.hardware.node import HardwareNode
from repro.memory.buffer import Location, MemoryKind
from repro.memory.pages import MigrationEngine, PageTable
from repro.units import GiB, KiB, MiB


class TestPageTable:
    def make(self, size=40 * KiB, page=4 * KiB):
        return PageTable(size, page, Location.host(0))

    def test_page_count_rounds_up(self):
        table = PageTable(4097, 4096, Location.host(0))
        assert table.num_pages == 2
        assert table.page_bytes(0) == 4096
        assert table.page_bytes(1) == 1

    def test_initial_residency_is_home(self):
        table = self.make()
        assert table.location_of(0) == Location.host(0)
        assert table.resident_fraction(Location.host(0)) == 1.0

    def test_page_of_bounds(self):
        table = self.make(size=100)
        with pytest.raises(InvalidAddressError):
            table.page_of(100)

    def test_migrate_single_page(self):
        table = self.make()
        table.migrate(3, Location.gcd(0))
        assert table.page_location(3) == Location.gcd(0)
        assert table.location_of(0) == Location.host(0)
        assert table.migrations_in == 1

    def test_migrate_idempotent(self):
        table = self.make()
        table.migrate(0, Location.gcd(0))
        table.migrate(0, Location.gcd(0))
        assert table.migrations_in == 1

    def test_migrate_range(self):
        table = self.make()
        moved = table.migrate_range(0, 12 * KiB, Location.gcd(1))
        assert moved == 3
        assert table.nonresident_pages(0, 12 * KiB, Location.gcd(1)) == []
        assert table.nonresident_pages(0, 16 * KiB, Location.gcd(1)) == [3]

    def test_pages_in_range_validation(self):
        table = self.make(size=100)
        with pytest.raises(InvalidAddressError):
            table.pages_in_range(0, 0)
        with pytest.raises(InvalidAddressError):
            table.pages_in_range(50, 100)

    @pytest.mark.parametrize("page", [-1, -2, 2, 3])
    def test_page_index_outside_table_is_rejected(self, page):
        # Negative indices must not wrap around to the last pages.
        table = PageTable(4097, 4096, Location.host(0))
        with pytest.raises(InvalidAddressError):
            table.page_location(page)
        with pytest.raises(InvalidAddressError):
            table.page_bytes(page)
        with pytest.raises(InvalidAddressError):
            table.migrate(page, Location.gcd(0))
        assert table.resident_fraction(Location.host(0)) == 1.0
        assert (table.migrations_in, table.migrations_out) == (0, 0)

    def test_partial_last_page_bytes(self):
        table = PageTable(4097, 4096, Location.host(0))
        assert table.page_bytes(table.num_pages - 1) == 1
        assert table.range_bytes(0, table.num_pages) == 4097

    def test_whole_range_migration_is_one_run(self):
        table = self.make()
        table.migrate_range(4 * KiB, 8 * KiB, Location.gcd(1))
        assert table.runs() == [
            (0, 1, Location.host(0)),
            (1, 3, Location.gcd(1)),
            (3, 10, Location.host(0)),
        ]
        assert table.migrate_range(0, 40 * KiB, Location.gcd(1)) == 8
        assert table.runs() == [(0, 10, Location.gcd(1))]

    def test_invalid_page_size(self):
        with pytest.raises(InvalidAddressError):
            PageTable(100, 1000, Location.host(0))


class TestMigrationEngine:
    def _managed_buffer(self, hip, size):
        return hip.malloc_managed(size, device=0)

    def test_fault_without_xnack_is_fatal(self, hip):
        engine = MigrationEngine(hip.node)
        buffer = self._managed_buffer(hip, 64 * KiB)

        def run():
            yield from engine.migrate_for_access(
                buffer, 0, 64 * KiB, 0, xnack_enabled=False
            )

        with pytest.raises(PageFaultError):
            hip.run(run())

    def test_fluid_migration_rate_matches_paper(self, hip):
        engine = MigrationEngine(hip.node)
        size = 64 * MiB
        buffer = self._managed_buffer(hip, size)

        def run():
            t0 = hip.now
            yield from engine.migrate_for_access(
                buffer, 0, size, 0, xnack_enabled=True
            )
            return size / (hip.now - t0)

        rate = hip.run(run())
        assert rate == pytest.approx(2.8e9, rel=0.02)
        assert buffer.page_table.resident_fraction(Location.gcd(0)) == 1.0

    def test_discrete_matches_fluid_asymptotically(self, hip):
        """The fluid cap equals the discrete per-page engine's rate."""
        size = 256 * KiB  # 64 pages: cheap enough to fault one by one
        fluid_engine = MigrationEngine(hip.node)

        from repro.hip.runtime import HipRuntime

        hip2 = HipRuntime(HardwareNode())
        discrete_engine = MigrationEngine(hip2.node, discrete=True)

        def measure(runtime, engine):
            buffer = runtime.malloc_managed(size, device=0)

            def run():
                t0 = runtime.now
                yield from engine.migrate_for_access(
                    buffer, 0, size, 0, xnack_enabled=True
                )
                return size / (runtime.now - t0)

            return runtime.run(run())

        fluid_rate = measure(hip, fluid_engine)
        discrete_rate = measure(hip2, discrete_engine)
        assert discrete_rate == pytest.approx(fluid_rate, rel=0.02)

    def test_already_resident_is_free(self, hip):
        engine = MigrationEngine(hip.node)
        buffer = self._managed_buffer(hip, 64 * KiB)

        def run():
            yield from engine.migrate_for_access(
                buffer, 0, 64 * KiB, 0, xnack_enabled=True
            )
            t_mid = hip.now
            yield from engine.migrate_for_access(
                buffer, 0, 64 * KiB, 0, xnack_enabled=True
            )
            return hip.now - t_mid

        assert hip.run(run()) == 0.0

    def test_prefetch_runs_at_sdma_rate(self, hip):
        """hipMemPrefetchAsync escapes the fault-bound 2.8 GB/s."""
        engine = MigrationEngine(hip.node)
        size = 64 * MiB
        buffer = self._managed_buffer(hip, size)

        def run():
            t0 = hip.now
            yield from engine.prefetch(buffer, Location.gcd(0))
            return size / (hip.now - t0)

        rate = hip.run(run())
        assert rate == pytest.approx(28.3e9, rel=0.02)

    def test_prefetch_back_to_host(self, hip):
        engine = MigrationEngine(hip.node)
        buffer = self._managed_buffer(hip, 1 * MiB)

        def run():
            yield from engine.prefetch(buffer, Location.gcd(2))
            yield from engine.prefetch(buffer, Location.host(0))

        hip.run(run())
        assert buffer.page_table.resident_fraction(Location.host(0)) == 1.0

    def test_fluid_migration_scales_with_runs_not_pages(self, hip, monkeypatch):
        """A 64 GiB (16M-page) fault never touches residency page by page."""
        calls = []
        migrate = PageTable.migrate

        def counting_migrate(table, page_index, target):
            calls.append(page_index)
            migrate(table, page_index, target)

        monkeypatch.setattr(PageTable, "migrate", counting_migrate)
        size = 64 * GiB
        buffer = self._managed_buffer(hip, size)
        table = buffer.page_table
        assert table.num_pages == 16 * 1024 * 1024

        def run():
            yield from hip.migration.migrate_for_access(
                buffer, 0, size, 0, xnack_enabled=True
            )

        hip.run(run())
        assert table.runs() == [(0, table.num_pages, Location.gcd(0))]
        assert table.migrations_in == table.num_pages
        assert calls == []

    def test_non_managed_buffer_rejected(self, hip):
        engine = MigrationEngine(hip.node)
        buffer = hip.malloc(4 * KiB)

        def run():
            yield from engine.migrate_for_access(
                buffer, 0, 4 * KiB, 0, xnack_enabled=True
            )

        with pytest.raises(PageFaultError):
            hip.run(run())
