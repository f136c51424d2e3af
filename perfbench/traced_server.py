"""Run ``repro serve`` with the benchmark's layer tracer installed.

Usage: ``python traced_server.py SUMMARY_JSON serve [serve options...]``

The wrappers are installed before the CLI starts the service; when the
server drains (SIGTERM) the per-layer totals and spans are written to
``SUMMARY_JSON``.
"""

from __future__ import annotations

import json
import sys

from tracing import Tracer


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    from repro.cli import main as repro_main

    tracer = Tracer()
    tracer.install(serve=True)
    try:
        return repro_main(argv)
    finally:
        tracer.uninstall()
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump({"summary": tracer.summary(), "spans": tracer.spans}, handle)


if __name__ == "__main__":
    sys.exit(main())
