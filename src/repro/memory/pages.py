"""Page tables and the XNACK fault-and-migrate engine.

Paper §II-C: with ``HSA_XNACK=1``, a GPU access to a managed page that
is not GPU-resident triggers a retryable page fault; the driver
migrates the whole page and the access retries.  "Migration [is]
performed at the page granularity, where an entire page is migrated,
independent of the size of the data being accessed."

Fig. 3 shows the consequence: streaming a large host-resident managed
array from the GPU achieves only ≈ 2.8 GB/s, because each page pays a
fault-service round trip before its (fast) transfer.

Two execution modes are provided:

- **fluid** (default): a contiguous access range migrates as one flow
  whose rate cap is the analytic fault-bound bandwidth
  ``page / (t_fault + page/link_rate)``.  O(1) DES events per access;
  exact for the steady state the benchmarks measure.
- **discrete**: every page is an individual fault event + transfer
  flow.  O(pages) events; used by the unit tests to validate that the
  fluid cap equals the discrete engine's asymptotic rate.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Callable, Generator, Iterable

from ..errors import InvalidAddressError, PageFaultError
from .buffer import Location

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hardware.node import HardwareNode
    from .buffer import Buffer


class PageTable:
    """Residency map of one managed buffer.

    Pages are fixed-size; the final page may be partial.  All pages
    start at the buffer's home location (first-touch by the allocating
    processor, as HIP does).  Residency is a run-length extent map: run
    ``i`` covers pages ``[starts[i], starts[i+1])`` (the last run ends
    at ``num_pages``) and sits at ``locations[i]``.  Adjacent runs
    always differ in location, so a buffer migrated as a whole is one
    run however many pages it has, and range queries and updates cost
    O(runs touched), not O(pages).
    """

    def __init__(self, size: int, page_size: int, home: Location) -> None:
        if size <= 0:
            raise InvalidAddressError("page table needs a positive size")
        if page_size <= 0 or page_size & (page_size - 1):
            raise InvalidAddressError("page size must be a positive power of two")
        self.size = size
        self.page_size = page_size
        self.num_pages = -(-size // page_size)
        self._starts: list[int] = [0]
        self._locations: list[Location] = [home]
        #: Migration counters, for tests and traces.
        self.migrations_in: int = 0
        self.migrations_out: int = 0

    def page_of(self, offset: int) -> int:
        """Page index containing a byte offset."""
        if not 0 <= offset < self.size:
            raise InvalidAddressError(
                f"offset {offset} outside managed range of {self.size} bytes"
            )
        return offset // self.page_size

    def location_of(self, offset: int) -> Location:
        """Current residency of the page holding an offset."""
        return self.page_location(self.page_of(offset))

    def _check_page(self, page_index: int) -> None:
        if not 0 <= page_index < self.num_pages:
            raise InvalidAddressError(
                f"page {page_index} outside table of {self.num_pages} pages"
            )

    def page_location(self, page_index: int) -> Location:
        """Current residency of a page index."""
        self._check_page(page_index)
        return self._locations[bisect_right(self._starts, page_index) - 1]

    def pages_in_range(self, offset: int, length: int) -> range:
        """Page indices touched by ``[offset, offset+length)``."""
        if length <= 0:
            raise InvalidAddressError("range length must be positive")
        if offset < 0 or offset + length > self.size:
            raise InvalidAddressError(
                f"range [{offset}, {offset + length}) outside managed buffer"
            )
        return range(offset // self.page_size, (offset + length - 1) // self.page_size + 1)

    def _check_span(self, first: int, stop: int) -> None:
        if not 0 <= first < stop <= self.num_pages:
            raise InvalidAddressError(
                f"pages [{first}, {stop}) outside table of {self.num_pages} pages"
            )

    def runs(
        self, first: int = 0, stop: int | None = None
    ) -> list[tuple[int, int, Location]]:
        """``(start, stop, location)`` runs overlapping pages ``[first, stop)``.

        Runs are clipped to the range and come in ascending page order;
        the default range is the whole table.
        """
        if stop is None:
            stop = self.num_pages
        self._check_span(first, stop)
        starts = self._starts
        i = bisect_right(starts, first) - 1
        j = bisect_left(starts, stop, lo=i + 1)
        bounds = [first, *starts[i + 1 : j], stop]
        return list(zip(bounds, bounds[1:], self._locations[i:j]))

    def set_range(self, first: int, stop: int, target: Location) -> int:
        """Move pages ``[first, stop)`` to ``target``; returns pages moved."""
        moved = sum(
            run_stop - run_start
            for run_start, run_stop, location in self.runs(first, stop)
            if location != target
        )
        if not moved:
            return 0
        starts, locations = self._starts, self._locations
        # Runs i..j-1 overlap the range; run j-1 ends at ``end``.
        i = bisect_right(starts, first) - 1
        j = bisect_left(starts, stop, lo=i + 1)
        end = starts[j] if j < len(starts) else self.num_pages
        # Re-split runs i..j-1 around the range, together with one
        # neighbour on each side so that equal locations merge.
        lo, hi = i, j
        pieces: list[tuple[int, Location]] = []
        if lo > 0:
            lo -= 1
            pieces.append((starts[lo], locations[lo]))
        if starts[i] < first:
            pieces.append((starts[i], locations[i]))
        pieces.append((first, target))
        if end > stop:
            pieces.append((stop, locations[j - 1]))
        if hi < len(starts):
            pieces.append((starts[hi], locations[hi]))
            hi += 1
        merged: list[tuple[int, Location]] = []
        for start, location in pieces:
            if not merged or merged[-1][1] != location:
                merged.append((start, location))
        starts[lo:hi] = [start for start, _ in merged]
        locations[lo:hi] = [location for _, location in merged]
        if target.is_device:
            self.migrations_in += moved
        else:
            self.migrations_out += moved
        return moved

    def nonresident_pages(
        self, offset: int, length: int, target: Location
    ) -> list[int]:
        """Pages of a range not currently at ``target``."""
        pages = self.pages_in_range(offset, length)
        return [
            page
            for start, stop, location in self.runs(pages.start, pages.stop)
            if location != target
            for page in range(start, stop)
        ]

    def migrate(self, page_index: int, target: Location) -> None:
        """Move one page to a target location (idempotent)."""
        self._check_page(page_index)
        self.set_range(page_index, page_index + 1, target)

    def migrate_range(self, offset: int, length: int, target: Location) -> int:
        """Migrate all pages of a range; returns pages moved."""
        pages = self.pages_in_range(offset, length)
        return self.set_range(pages.start, pages.stop, target)

    def resident_fraction(self, target: Location) -> float:
        """Fraction of pages currently at a location."""
        at_target = sum(
            stop - start
            for start, stop, location in self.runs()
            if location == target
        )
        return at_target / self.num_pages

    def range_bytes(self, first: int, stop: int) -> int:
        """Bytes held by pages ``[first, stop)`` (only the last page may
        be partial)."""
        self._check_span(first, stop)
        return min(stop * self.page_size, self.size) - first * self.page_size

    def page_bytes(self, page_index: int) -> int:
        """Size of a page (the last page may be partial)."""
        self._check_page(page_index)
        return min(self.page_size, self.size - page_index * self.page_size)


class MigrationEngine:
    """Executes fault-driven migrations on a :class:`HardwareNode`."""

    def __init__(self, node: "HardwareNode", *, discrete: bool = False) -> None:
        self.node = node
        self.discrete = discrete
        self._calibration = node.calibration

    # -- channel/rate helpers ------------------------------------------------

    def _transfer_channels(self, source: Location, gcd_index: int) -> list:
        if source.is_host:
            return self.node.host_to_gcd_channels(source.index, gcd_index)
        return self.node.gcd_to_gcd_channels(source.index, gcd_index)

    def _link_rate(self, source: Location, gcd_index: int) -> float:
        """Rate at which one page's bytes move once the fault is serviced."""
        from ..topology.link import LinkTier

        if source.is_host:
            return self._calibration.sdma_cap_for_tier(LinkTier.CPU)
        route = self.node.gcd_route(source.index, gcd_index)
        tier = self.node.bottleneck_tier(route)
        return self._calibration.sdma_cap_for_tier(tier)

    def fault_bound_rate(self, source: Location, gcd_index: int) -> float:
        """Analytic fault-limited migration bandwidth (the 2.8 GB/s)."""
        return self._calibration.page_migration_bw(
            self._link_rate(source, gcd_index)
        )

    # -- migration processes ------------------------------------------------------

    def migrate_for_access(
        self,
        buffer: "Buffer",
        offset: int,
        length: int,
        gcd_index: int,
        *,
        xnack_enabled: bool,
        parent_span: "object" = None,
    ) -> Generator:
        """DES process: make ``[offset, offset+length)`` GPU-resident.

        Yields engine events; on completion the page table reflects the
        new residency.  Raises :class:`PageFaultError` when pages are
        non-resident and XNACK is off (a real fatal GPU fault).
        ``parent_span`` links the fault-service span to the kernel that
        triggered the faults.
        """
        table = buffer.page_table
        if table is None:
            raise PageFaultError("buffer has no page table (not managed)")
        target = Location.gcd(gcd_index)
        pages = table.pages_in_range(offset, length)
        runs = [
            run for run in table.runs(pages.start, pages.stop) if run[2] != target
        ]
        if not runs:
            return
        if not xnack_enabled:
            raise PageFaultError(
                f"GPU fault on non-resident managed page (HSA_XNACK=0); "
                f"buffer {buffer.label!r} page {runs[0][0]}"
            )
        if self.discrete:
            # One fault per page: the runs expand back into pages.
            pending = [page for start, stop, _ in runs for page in range(start, stop)]
            yield from self._migrate_discrete(
                table, pending, target, gcd_index, parent_span=parent_span
            )
        else:
            yield from self._migrate_fluid(
                table, runs, target, gcd_index, parent_span=parent_span
            )

    def _migrate_fluid(
        self,
        table: PageTable,
        runs: list[tuple[int, int, Location]],
        target: Location,
        gcd_index: int,
        *,
        parent_span: "object" = None,
    ) -> Generator:
        num_pages = sum(stop - start for start, stop, _ in runs)
        spans = self.node.spans
        span = (
            spans.begin(
                "fault",
                "migrate-fluid",
                start=self.node.now,
                parent=parent_span,
                pages=num_pages,
                gcd=gcd_index,
            )
            if spans
            else None
        )
        # Group runs by their current source so each group is one flow;
        # sources come in order of their first (lowest) page.
        pages_by_source: dict[Location, int] = {}
        bytes_by_source: dict[Location, int] = {}
        for first, stop, source in runs:
            pages_by_source[source] = pages_by_source.get(source, 0) + stop - first
            bytes_by_source[source] = bytes_by_source.get(
                source, 0
            ) + table.range_bytes(first, stop)
        flows = []
        for source, total in bytes_by_source.items():
            cap = self.fault_bound_rate(source, gcd_index)
            flow = self.node.start_flow(
                self._transfer_channels(source, gcd_index),
                total,
                cap=cap,
                label=f"xnack-migrate x{pages_by_source[source]}",
                span=span,
            )
            flows.append(flow)
        yield self.node.engine.all_of([f.done for f in flows])
        if span is not None:
            spans.finish(span, self.node.now)
        for first, stop, _ in runs:
            table.set_range(first, stop, target)
        metrics = self.node.metrics
        if metrics:
            metrics.counter("memory/faults").inc()
            metrics.counter("memory/pages_migrated").inc(num_pages)

    def _migrate_discrete(
        self,
        table: PageTable,
        pages: list[int],
        target: Location,
        gcd_index: int,
        *,
        parent_span: "object" = None,
    ) -> Generator:
        """Page-at-a-time faults, serialized like the real retry loop."""
        spans = self.node.spans
        span = (
            spans.begin(
                "fault",
                "migrate-discrete",
                start=self.node.now,
                parent=parent_span,
                pages=len(pages),
                gcd=gcd_index,
            )
            if spans
            else None
        )
        for page in pages:
            source = table.page_location(page)
            # Fault service: interrupt, driver handling, PT update.
            yield self.node.engine.timeout(self._calibration.xnack_fault_service)
            flow = self.node.start_flow(
                self._transfer_channels(source, gcd_index),
                table.page_bytes(page),
                cap=self._link_rate(source, gcd_index),
                label=f"xnack-page{page}",
                span=span,
            )
            yield flow.done
            table.migrate(page, target)
        if span is not None:
            spans.finish(span, self.node.now)
        metrics = self.node.metrics
        if metrics:
            # Discrete mode services one fault per page.
            metrics.counter("memory/faults").inc(len(pages))
            metrics.counter("memory/pages_migrated").inc(len(pages))

    def prefetch(
        self, buffer: "Buffer", target: Location
    ) -> Generator:
        """DES process modelling ``hipMemPrefetchAsync``: bulk migration.

        Prefetch skips the fault path entirely, so it runs at SDMA rate
        — the remedy HIP offers for the 2.8 GB/s fault-bound rate.
        """
        table = buffer.page_table
        if table is None:
            raise PageFaultError("prefetch needs a managed buffer")
        runs = [run for run in table.runs() if run[2] != target]
        by_source: dict[Location, int] = {}
        for start, stop, source in runs:
            by_source[source] = by_source.get(source, 0) + table.range_bytes(start, stop)
        if not by_source:
            return
        flows = []
        for source, total in by_source.items():
            if target.is_device:
                channels = self._transfer_channels(source, target.index)
                cap = self._link_rate(source, target.index)
            elif source.is_device:
                channels = self.node.gcd_to_host_channels(source.index, target.index)
                from ..topology.link import LinkTier

                cap = self._calibration.sdma_cap_for_tier(LinkTier.CPU)
            else:
                channels = self.node.cpu.host_memcpy_channels(
                    source.index, target.index
                )
                cap = math.inf
            flows.append(
                self.node.start_flow(channels, total, cap=cap, label="prefetch")
            )
        yield self.node.engine.all_of([f.done for f in flows])
        for start, stop, _ in runs:
            table.set_range(start, stop, target)
