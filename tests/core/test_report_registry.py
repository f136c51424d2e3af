"""Tests for the report renderers and the Table I/II registries."""

import pytest

from repro.core.experiment import ExperimentResult
from repro.core.registry import (
    TABLE_I,
    TABLE_II,
    format_table_i,
    format_table_ii,
)
from repro.core.report import (
    bar_table,
    comparison_summary,
    geometric_summary,
    latency_table,
    matrix_table,
    peak_summary,
    series_table,
)
from repro.errors import BenchmarkError
from repro.memory.buffer import MemoryKind
from repro.units import to_us


class TestSeriesTable:
    def make(self):
        result = ExperimentResult("x", "Bandwidth")
        for size in (4096, 8192):
            result.add(size, 10e9 + size, "B/s", interface="pinned")
            result.add(size, 5e9 + size, "B/s", interface="pageable")
        return result

    def test_columns_and_rows(self):
        text = series_table(self.make(), series_key="interface")
        assert "pinned" in text and "pageable" in text
        assert "4KiB" in text and "8KiB" in text

    def test_missing_cells_dashed(self):
        result = self.make()
        result.add(16384, 1e9, "B/s", interface="pinned")  # pageable missing
        text = series_table(result, series_key="interface")
        assert "-" in text

    def test_unknown_key_rejected(self):
        with pytest.raises(BenchmarkError):
            series_table(self.make(), series_key="nope")


class TestMatrixTable:
    def test_diagonal_dash(self):
        values = {(0, 1): 50e9, (1, 0): 37.7e9}
        text = matrix_table(values, title="bw", scale=1e9, unit="GB/s")
        assert "-" in text and "50.0" in text and "37.7" in text

    def test_empty_rejected(self):
        with pytest.raises(BenchmarkError):
            matrix_table({}, title="empty")


class TestOtherRenderers:
    def test_bar_table_with_reference(self):
        text = bar_table(
            [("pinned", 28.3e9)],
            title="peaks",
            reference={"pinned": 36e9},
        )
        assert "78.6%" in text

    def test_latency_table(self):
        result = ExperimentResult("x", "collectives")
        result.add(2, 20e-6, "s", partners=2, library="MPI")
        result.add(2, 15e-6, "s", partners=2, library="RCCL")
        text = latency_table(result)
        assert "MPI" in text and "RCCL" in text and "20.0" in text

    def test_latency_table_marks_missing_cells(self):
        result = ExperimentResult("x", "collectives")
        result.add(2, 20e-6, "s", partners=2, library="MPI")
        result.add(4, 30e-6, "s", partners=4, library="RCCL")
        result.add(4, 99e-6, "s", partners=4, library="RCCL")  # not first
        result.add(8, 40e-6, "s", partners=8, library="MPI")
        text = latency_table(result)
        assert text == _scan_latency_table(result)
        assert "99.0" not in text
        assert text.splitlines()[2].split() == ["2", "20.0", "-"]

    @pytest.mark.parametrize("artifact", ["fig11", "fig12"])
    def test_latency_table_equals_the_cell_scan(self, artifact, monkeypatch):
        """Every table the artifact's report renders equals the scan."""
        import importlib

        from repro import figures

        module = importlib.import_module(
            {"fig11": "repro.figures.fig11_collectives",
             "fig12": "repro.figures.fig12_rccl"}[artifact]
        )
        tables = []

        def checked(result, **keys):
            text = latency_table(result, **keys)
            assert text == _scan_latency_table(result, **keys)
            tables.append(text)
            return text

        monkeypatch.setattr(module, "latency_table", checked)
        figures.report(artifact, figures.run(artifact))
        assert tables

    def test_series_table_equals_the_cell_scan(self):
        result = TestSeriesTable().make()
        result.add(16384, 1e9, "B/s", interface="pinned")  # one missing cell
        text = series_table(result, series_key="interface")
        assert text == _scan_series_table(result, series_key="interface")
        assert text.splitlines()[-1].split()[-1] == "-"

    def test_peak_summary(self):
        result = ExperimentResult("x", "peaks")
        result.add(4096, 10e9, "B/s", interface="a")
        result.add(8192, 28.3e9, "B/s", interface="a")
        text = peak_summary(result, "interface")
        assert "28.30 GB/s" in text and "8KiB" in text

    def test_comparison_summary(self):
        text = comparison_summary("t", {"alpha": 1, "beta": "x"})
        assert "alpha" in text and ": x" in text

    def test_geometric_summary(self):
        stats = geometric_summary([1.0, 4.0])
        assert stats["gmean"] == pytest.approx(2.0)
        assert stats["min"] == 1.0 and stats["max"] == 4.0
        with pytest.raises(BenchmarkError):
            geometric_summary([])


class TestRegistries:
    def test_table_i_has_five_rows(self):
        assert len(TABLE_I) == 5

    def test_table_i_movement_kinds(self):
        movements = {row.data_movement for row in TABLE_I}
        assert movements == {"explicit", "zero-copy", "implicit"}

    def test_table_i_pinned_default_is_coherent(self):
        coherent_pinned = [
            row
            for row in TABLE_I
            if row.kind is MemoryKind.PINNED_COHERENT
        ]
        assert len(coherent_pinned) == 1
        assert coherent_pinned[0].coherent

    def test_table_i_xnack_rows(self):
        managed = [row for row in TABLE_I if row.kind is MemoryKind.MANAGED]
        assert {row.xnack for row in managed} == {True, False}

    def test_table_ii_has_twelve_rows(self):
        assert len(TABLE_II) == 12

    def test_table_ii_modules_import(self):
        import importlib

        for row in TABLE_II:
            importlib.import_module(row.suite_module)

    def test_table_ii_links(self):
        assert {row.link for row in TABLE_II} == {"CPU-GPU", "GPU-GPU"}

    def test_formatters(self):
        assert "hipHostMalloc" in format_table_i()
        assert "RCCL-tests" in format_table_ii()


def _scan_latency_table(result, *, row_key="partners", col_key="library"):
    """The former ``latency_table``: scans every measurement per cell."""
    rows = sorted({m.meta[row_key] for m in result.measurements})
    cols = result.labels(col_key)
    header = f"{row_key:>10s} " + " ".join(f"{str(c):>12s}" for c in cols)
    lines = [f"# {result.title} [us]", header]
    for row in rows:
        cells = []
        for col in cols:
            points = [
                m
                for m in result.measurements
                if m.meta.get(row_key) == row and m.meta.get(col_key) == col
            ]
            if points:
                cells.append(f"{to_us(points[0].value):12.1f}")
            else:
                cells.append(f"{'-':>12s}")
        lines.append(f"{row!s:>10s} " + " ".join(cells))
    return "\n".join(lines)


def _scan_series_table(result, *, series_key):
    """The former ``series_table`` body: scans every measurement per cell."""
    from repro.units import format_size

    labels = result.labels(series_key)
    xs = sorted({m.x for m in result.measurements})
    header = f"{'size':>10s} " + " ".join(f"{str(l):>14s}" for l in labels)
    lines = [f"# {result.title} [GB/s]", header]
    for x in xs:
        cells = []
        for label in labels:
            points = [
                m
                for m in result.measurements
                if m.x == x and m.meta.get(series_key) == label
            ]
            if points:
                cells.append(f"{points[0].value / 1e9:14.2f}")
            else:
                cells.append(f"{'-':>14s}")
        lines.append(f"{format_size(int(x)):>10s} " + " ".join(cells))
    return "\n".join(lines)
