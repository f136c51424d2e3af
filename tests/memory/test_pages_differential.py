"""Extent-map page table against the per-page oracle.

Hypothesis drives :class:`PageTable` and the per-page
:class:`ListPageTable` oracle with the same random sequence of
``migrate``, ``migrate_range`` and ``set_range`` calls — valid and
out-of-range alike — and after every step requires identical answers
from every query, plus the extent invariants: runs sorted and
non-empty, adjacent runs at different locations, and the runs covering
exactly ``[0, num_pages)``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidAddressError
from repro.memory.buffer import Location
from repro.memory.pages import PageTable

from .page_table_oracle import ListPageTable

LOCATIONS = [
    Location.host(0),
    Location.host(1),
    Location.gcd(0),
    Location.gcd(1),
    Location.gcd(2),
]
PAGE_SIZES = [1, 4, 16]


@st.composite
def scripts(draw):
    """A table shape plus a sequence of mutations on it."""
    page_size = draw(st.sampled_from(PAGE_SIZES))
    # Below one page, exact multiples and a partial last page alike.
    size = draw(st.integers(min_value=1, max_value=40 * page_size + page_size - 1))
    num_pages = -(-size // page_size)
    home = draw(st.sampled_from(LOCATIONS))
    page = st.integers(min_value=-2, max_value=num_pages + 1)
    location = st.sampled_from(LOCATIONS)
    op = st.one_of(
        st.tuples(st.just("migrate"), page, location),
        st.tuples(
            st.just("migrate_range"),
            st.integers(min_value=-1, max_value=size),
            st.integers(min_value=0, max_value=size + 1),
            location,
        ),
        st.tuples(st.just("set_range"), page, page, location),
    )
    return size, page_size, home, draw(st.lists(op, min_size=1, max_size=40))


def apply(table, op):
    """Run one op; its return value, or the error type it raised."""
    kind, *args = op
    try:
        return getattr(table, kind)(*args)
    except InvalidAddressError:
        return InvalidAddressError


def assert_extent_invariants(table: PageTable) -> None:
    runs = table.runs()
    assert runs, "no runs"
    assert runs[0][0] == 0
    assert runs[-1][1] == table.num_pages
    for start, stop, _location in runs:
        assert start < stop, f"empty run {start}..{stop}"
    for (_s, left_stop, left), (right_start, _e, right) in zip(runs, runs[1:]):
        assert left_stop == right_start, "runs not contiguous"
        assert left != right, f"unmerged runs at page {right_start}"


def oracle_runs(oracle: ListPageTable) -> list[tuple[int, int, Location]]:
    runs: list[list] = []
    for page in range(oracle.num_pages):
        location = oracle.page_location(page)
        if runs and runs[-1][2] == location:
            runs[-1][1] = page + 1
        else:
            runs.append([page, page + 1, location])
    return [tuple(run) for run in runs]


def assert_same(table: PageTable, oracle: ListPageTable) -> None:
    n = oracle.num_pages
    assert table.num_pages == n
    assert [table.page_location(p) for p in range(n)] == [
        oracle.page_location(p) for p in range(n)
    ]
    assert table.runs() == oracle_runs(oracle)
    assert (table.migrations_in, table.migrations_out) == (
        oracle.migrations_in,
        oracle.migrations_out,
    )
    assert [table.page_bytes(p) for p in range(n)] == [
        oracle.page_bytes(p) for p in range(n)
    ]
    for location in LOCATIONS:
        assert table.resident_fraction(location) == oracle.resident_fraction(location)
        assert table.nonresident_pages(0, table.size, location) == (
            oracle.nonresident_pages(0, oracle.size, location)
        )
    for start, stop, _location in table.runs():
        assert table.range_bytes(start, stop) == oracle.range_bytes(start, stop)
    assert table.range_bytes(0, n) == oracle.range_bytes(0, n) == table.size


@settings(max_examples=200, deadline=None)
@given(scripts())
def test_extent_map_matches_per_page_oracle(script):
    size, page_size, home, ops = script
    table = PageTable(size, page_size, home)
    oracle = ListPageTable(size, page_size, home)
    assert_extent_invariants(table)
    assert_same(table, oracle)
    for op in ops:
        assert apply(table, op) == apply(oracle, op), op
        assert_extent_invariants(table)
        assert_same(table, oracle)


@settings(max_examples=100, deadline=None)
@given(scripts(), st.data())
def test_subrange_queries_match_oracle(script, data):
    size, page_size, home, ops = script
    table = PageTable(size, page_size, home)
    oracle = ListPageTable(size, page_size, home)
    for op in ops:
        apply(table, op)
        apply(oracle, op)
    offset = data.draw(st.integers(min_value=0, max_value=size - 1))
    length = data.draw(st.integers(min_value=1, max_value=size - offset))
    target = data.draw(st.sampled_from(LOCATIONS))
    assert table.nonresident_pages(offset, length, target) == (
        oracle.nonresident_pages(offset, length, target)
    )
    pages = table.pages_in_range(offset, length)
    runs = table.runs(pages.start, pages.stop)
    assert [p for start, stop, _ in runs for p in range(start, stop)] == list(pages)
    assert [loc for start, stop, loc in runs for _ in range(start, stop)] == [
        oracle.page_location(p) for p in pages
    ]
    assert table.range_bytes(pages.start, pages.stop) == (
        oracle.range_bytes(pages.start, pages.stop)
    )


@pytest.mark.parametrize("first, stop", [(0, 0), (-1, 1), (1, 0), (0, 5), (4, 5)])
def test_run_queries_reject_bad_spans(first, stop):
    table = PageTable(3 * 4096 + 1, 4096, Location.host(0))
    for call in (table.runs, table.range_bytes):
        with pytest.raises(InvalidAddressError):
            call(first, stop)
    with pytest.raises(InvalidAddressError):
        table.set_range(first, stop, Location.gcd(0))
