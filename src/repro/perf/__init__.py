"""Simulation-core performance harness (``repro perf``).

One microbenchmark per perfbench layer — epoch dispatch, fair-share
churn, warm cache reads and the warm serve wave; ``SECTIONS`` maps each
to the layer it explains.  ``run_suite`` produces the dictionary
serialized to ``BENCH_core.json``, and the ``repro perf`` verb prints
it with ``format_report`` and writes it with ``write_report``.
"""

from .core import (
    HEADLINE_SPEC,
    SECTIONS,
    format_report,
    run_suite,
    write_report,
)

__all__ = [
    "HEADLINE_SPEC",
    "SECTIONS",
    "format_report",
    "run_suite",
    "write_report",
]
