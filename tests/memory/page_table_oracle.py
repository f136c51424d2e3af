"""Per-page reference page table: the oracle for the extent map.

This is the straightforward residency model — one list slot per page —
that :class:`repro.memory.pages.PageTable` replaced with a run-length
extent map.  It is kept here, outside the package, only so the
differential tests can check the extent map page by page.  Every
method is O(pages); it is never used by the simulator.
"""

from __future__ import annotations

from repro.errors import InvalidAddressError
from repro.memory.buffer import Location


class ListPageTable:
    """Residency tracked per page index in a Python list."""

    def __init__(self, size: int, page_size: int, home: Location) -> None:
        if size <= 0:
            raise InvalidAddressError("page table needs a positive size")
        if page_size <= 0 or page_size & (page_size - 1):
            raise InvalidAddressError("page size must be a positive power of two")
        self.size = size
        self.page_size = page_size
        self.num_pages = -(-size // page_size)
        self._residency: list[Location] = [home] * self.num_pages
        self.migrations_in = 0
        self.migrations_out = 0

    def page_location(self, page_index: int) -> Location:
        if not 0 <= page_index < self.num_pages:
            raise InvalidAddressError(f"page {page_index} outside table")
        return self._residency[page_index]

    def pages_in_range(self, offset: int, length: int) -> range:
        if length <= 0:
            raise InvalidAddressError("range length must be positive")
        if offset < 0 or offset + length > self.size:
            raise InvalidAddressError("range outside managed buffer")
        return range(offset // self.page_size, (offset + length - 1) // self.page_size + 1)

    def nonresident_pages(self, offset: int, length: int, target: Location) -> list[int]:
        return [
            p
            for p in self.pages_in_range(offset, length)
            if self._residency[p] != target
        ]

    def migrate(self, page_index: int, target: Location) -> None:
        if self.page_location(page_index) == target:
            return
        self._residency[page_index] = target
        if target.is_device:
            self.migrations_in += 1
        else:
            self.migrations_out += 1

    def set_range(self, first: int, stop: int, target: Location) -> int:
        if not 0 <= first < stop <= self.num_pages:
            raise InvalidAddressError(f"pages [{first}, {stop}) outside table")
        moved = 0
        for page in range(first, stop):
            if self._residency[page] != target:
                self.migrate(page, target)
                moved += 1
        return moved

    def migrate_range(self, offset: int, length: int, target: Location) -> int:
        pages = self.pages_in_range(offset, length)
        return self.set_range(pages.start, pages.stop, target)

    def resident_fraction(self, target: Location) -> float:
        return sum(1 for loc in self._residency if loc == target) / self.num_pages

    def page_bytes(self, page_index: int) -> int:
        self.page_location(page_index)  # bounds check
        return min(self.page_size, self.size - page_index * self.page_size)

    def range_bytes(self, first: int, stop: int) -> int:
        return sum(self.page_bytes(page) for page in range(first, stop))
