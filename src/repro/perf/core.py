"""Core microbenchmarks, one section per perfbench layer.

Each section isolates one path that an end-to-end perfbench workload
depends on, and :data:`SECTIONS` names the per-layer metric of
``BENCHMARK.json`` it explains: epoch dispatch (``engine.self_s``),
flow churn, capacity churn and cluster-scale churn
(``fairshare.solve_s``), warm cache reads (``cache.load_s``) and the
warm serve wave (``serve.execute_ms``).

All scenarios are deterministic (sizes and channel memberships derive
from loop indices), so two runs on the same machine measure the same
work.  Wall-clock numbers are best-of-:data:`REPEATS` to damp scheduler
noise.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Generator

from ..sim.engine import SimEngine
from ..sim.flow import FlowNetwork
from ..units import GiB, MiB

#: Default measurement repetitions (best-of).
REPEATS = 3
#: Decimal places kept for wall-second floats: enough to compare runs,
#: few enough that reports diff cleanly.
ROUND_DIGITS = 6


def _best_of(fn: Callable[[], float]) -> float:
    return min(fn() for _ in range(REPEATS))


def _git_sha() -> str:
    """Current commit, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip()


def _round_floats(value: Any, digits: int = ROUND_DIGITS) -> Any:
    """Round every float in a nested report structure (for diffing)."""
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, dict):
        return {k: _round_floats(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v, digits) for v in value]
    return value


# -- event engine -------------------------------------------------------------


def bench_engine_epochs(
    num_events: int = 200_000, fanout: int = 64
) -> dict[str, Any]:
    """Throughput of epoch (batched same-timestamp) dispatch.

    Schedules ``num_events`` timers over ``num_events / fanout``
    distinct timestamps, the shape collective steps and barrier-ish
    workloads produce: the engine pops each timestamp's bucket once and
    dispatches its ``fanout`` occurrences as one epoch — one clock
    advance and one heap pop per *epoch* rather than per event.
    ``epoch_events_per_second`` is the acceptance headline for the
    batched event core.

    Only the drain (``run()``) is timed: the scheduling side would bury
    the dispatch loop under the delay arithmetic.
    """
    distinct = max(1, num_events // fanout)

    def once() -> float:
        engine = SimEngine()
        sink = []

        def fire(i: int) -> None:
            if i % 1024 == 0:
                sink.append(i)

        for i in range(num_events):
            # Pseudo-shuffled arrival over `distinct` shared instants.
            engine.call_after(
                ((i * 2654435761) % distinct + 1) * 1e-9, fire, i
            )
        t0 = time.perf_counter()
        engine.run()
        return time.perf_counter() - t0

    elapsed = _best_of(once)
    return {
        "events": num_events,
        "fanout": fanout,
        "distinct_timestamps": distinct,
        "wall_seconds": elapsed,
        "epoch_events_per_second": num_events / elapsed,
    }


# -- cluster-scale solver churn ------------------------------------------------


def _run_cluster_churn(
    topology: Any, *, flows_per_link: int = 2, total_ops: int = 1024
) -> tuple[float, int]:
    """One cluster churn run; ``(wall seconds, churn flows issued)``.

    The workload is a cluster-wide ring allreduce with local churn on
    top: every xGMI link carries ``flows_per_link`` long-lived flows
    that also cross their node's two NIC rails (so the whole cluster is
    one fairshare component, bottlenecked on the 25 GB/s NICs), while
    two drivers per node issue short host-staging transfers that join
    the component through a quad link.  The long flows freeze on the
    NIC channels in the first fill round, which is exactly the regime
    dirty-set replay exploits: churn on a lightly-loaded channel
    certifies the committed rounds and re-levels a frontier of one.
    The timed region is the churn plus the teardown.
    """
    from ..topology.link import LinkEndpoint

    engine = SimEngine()
    network = FlowNetwork(engine)
    for link in topology.links():
        network.add_channel(("link", link.name), link.capacity_per_direction)

    nodes = topology.num_gcds // 8
    if nodes > 1:
        spines = [
            (
                "link",
                topology.require_link(
                    LinkEndpoint.numa(4 * n),
                    LinkEndpoint.numa(4 * ((n + 1) % nodes)),
                ).name,
            )
            for n in range(nodes)
        ]
    else:
        spines = [("link", topology.link_between(0, 1).name)]

    for n in range(nodes):
        rails = dict.fromkeys((spines[n], spines[n - 1]))
        for link in topology.xgmi_links():
            if not (8 * n <= link.a.index < 8 * (n + 1)):
                continue
            for _ in range(flows_per_link):
                network.transfer(
                    [("link", link.name), *rails], 10**6 * GiB
                )

    drivers = 2 * nodes
    ops_per_driver = max(4, total_ops // drivers)

    def driver(n: int, gcd: int) -> Generator:
        cpu = ("link", topology.cpu_link_of_gcd(gcd).name)
        quad = ("link", topology.link_between(gcd, gcd + 1).name)
        for i in range(ops_per_driver):
            size = (1 + ((i * 37 + gcd) % 5)) * MiB
            flow = network.transfer([cpu, quad], size, cap=20 * GiB)
            yield flow.done

    for n in range(nodes):
        engine.process(driver(n, 8 * n), name=f"churn{n}a")
        engine.process(driver(n, 8 * n + 4), name=f"churn{n}b")
    t0 = time.perf_counter()
    engine.run()
    return time.perf_counter() - t0, drivers * ops_per_driver


def bench_solver_scaling(
    node_counts: tuple[int, ...] = (2, 4, 16, 64)
) -> dict[str, Any]:
    """Churn throughput inside one cluster-wide component, by size.

    Sweeps :func:`~repro.topology.presets.mi250x_cluster` from 16 to
    512 GCDs (``node_counts`` × 8; the preset refuses single-node
    "clusters") and reports per-size churn throughput.  ``rows[-1]``
    (the largest cluster) is surfaced as the ``flow_churn_large``
    headline; its ``flows_per_second`` is the acceptance number — the
    dirty-set re-level must stay O(affected) as the component grows.
    """
    from ..topology.presets import mi250x_cluster

    rows: list[dict[str, Any]] = []
    for nodes in node_counts:
        topology = mi250x_cluster(nodes=nodes)
        best = float("inf")
        ops = 0
        for _ in range(REPEATS):
            wall, ops = _run_cluster_churn(topology)
            best = min(best, wall)
        rows.append(
            {
                "nodes": nodes,
                "gcds": topology.num_gcds,
                "churn_flows": ops,
                "wall_seconds": best,
                "flows_per_second": ops / best,
            }
        )
    return {"node_counts": list(node_counts), "rows": rows}


def flow_churn_large_from_scaling(scaling: dict[str, Any]) -> dict[str, Any]:
    """The largest-cluster row of the scaling sweep, as a headline block."""
    largest = max(scaling["rows"], key=lambda row: row["gcds"])
    return {
        "gcds": largest["gcds"],
        "churn_flows": largest["churn_flows"],
        "flows_per_second": largest["flows_per_second"],
    }


# -- fair-share flow churn -----------------------------------------------------


def _run_churn(
    pairs: int,
    flows_per_pair: int,
    metrics: Any = None,
    spans: Any = None,
) -> float:
    """One churn run: ``pairs`` concurrent back-to-back flow chains.

    Each pair owns a private two-channel route; every seventh flow also
    crosses a shared backbone channel, so most arrivals re-level a
    small component while some couple many pairs — the mixed regime the
    fabric model produces.  ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry` or ``None``) is threaded
    into the engine and network so the same workload can measure
    observability overhead; ``spans`` (a
    :class:`~repro.obs.spans.SpanRecorder` or ``None``) likewise opens
    one span per flow to measure the span layer's cost.
    """
    engine = SimEngine(metrics=metrics)
    network = FlowNetwork(engine, metrics=metrics, spans=spans)
    backbone = "backbone"
    network.add_channel(backbone, 200 * GiB)
    for pair in range(pairs):
        network.add_channel(("up", pair), 100 * GiB)
        network.add_channel(("down", pair), 100 * GiB)

    def driver(pair: int) -> Generator:
        for i in range(flows_per_pair):
            channels = [("up", pair), ("down", pair)]
            if i % 7 == 0:
                channels.append(backbone)
            size = (1 + ((i * 37 + pair) % 5)) * MiB
            span = (
                spans.begin("flow", "churn", start=engine.now)
                if spans
                else None
            )
            flow = network.transfer(channels, size, cap=80 * GiB, span=span)
            yield flow.done
            if span is not None:
                spans.finish(span, engine.now)

    for pair in range(pairs):
        engine.process(driver(pair), name=f"pair{pair}")
    t0 = time.perf_counter()
    engine.run()
    return time.perf_counter() - t0


def _interleaved_best_of(
    variants: dict[str, Callable[[], float]]
) -> dict[str, float]:
    """Best-of timing with warm-up and order alternation.

    Overhead ratios compare near-identical workloads, so harness bias
    dominates real differences unless (a) every variant runs once
    untimed first — the process's first run pays allocator growth and
    code-object warm-up, which would otherwise land entirely on
    whichever variant went first — and (b) the measured visiting order alternates
    per repeat, so slow machine-load drift hits all variants
    symmetrically.
    """
    names = list(variants)
    for name in names:  # warm-up, discarded
        variants[name]()
    best = dict.fromkeys(names, float("inf"))
    for repeat in range(REPEATS):
        order = names if repeat % 2 == 0 else list(reversed(names))
        for name in order:
            best[name] = min(best[name], variants[name]())
    return best


def bench_flow_churn(
    pairs: int = 32, flows_per_pair: int = 120
) -> dict[str, Any]:
    """Flow churn over many small, sometimes-coupled components.

    Times the same churn workload three ways in one
    :func:`_interleaved_best_of`: with observation off (the baseline
    every simulation takes), with a metrics registry on, and with a
    span recorder on.  ``flows_per_second`` is the baseline's
    throughput; ``metrics_enabled_overhead`` and
    ``spans_enabled_overhead`` are the enabled variants' cost over it.
    """
    from ..obs.metrics import MetricsRegistry
    from ..obs.spans import SpanRecorder

    total_flows = pairs * flows_per_pair
    best = _interleaved_best_of(
        {
            "baseline": lambda: _run_churn(pairs, flows_per_pair),
            "metrics": lambda: _run_churn(
                pairs, flows_per_pair, metrics=MetricsRegistry()
            ),
            "spans": lambda: _run_churn(
                pairs, flows_per_pair, spans=SpanRecorder()
            ),
        }
    )
    return {
        "pairs": pairs,
        "flows_per_pair": flows_per_pair,
        "total_flows": total_flows,
        "wall_seconds": best["baseline"],
        "metrics_wall_seconds": best["metrics"],
        "spans_wall_seconds": best["spans"],
        "flows_per_second": total_flows / best["baseline"],
        "metrics_enabled_overhead": best["metrics"] / best["baseline"] - 1.0,
        "spans_enabled_overhead": best["spans"] / best["baseline"] - 1.0,
    }


def _run_capacity_churn(pairs: int, changes: int) -> float:
    """One capacity-churn run: re-level live components ``changes`` times.

    The network carries one long-lived flow per pair (every third also
    crossing a shared backbone, so some changes couple many pairs); a
    driver then walks the channels changing capacities in a
    deterministic pseudo-random pattern — the workload fault injection
    produces (link degrades/heals) at benchmark density.  Capacities
    stay in [0.5, 0.99] × healthy so no flow ever fails or starves.
    """
    engine = SimEngine()
    network = FlowNetwork(engine)
    backbone = "backbone"
    network.add_channel(backbone, 200 * GiB)
    for pair in range(pairs):
        network.add_channel(("up", pair), 100 * GiB)
        network.add_channel(("down", pair), 100 * GiB)
    for pair in range(pairs):
        channels = [("up", pair), ("down", pair)]
        if pair % 3 == 0:
            channels.append(backbone)
        network.transfer(channels, 10 * GiB, cap=80 * GiB)

    def churner() -> Generator:
        for i in range(changes):
            pair = (i * 2654435761) % pairs
            side = "up" if i % 2 == 0 else "down"
            factor = 0.5 + ((i * 37) % 50) / 100.0
            network.set_capacity((side, pair), 100 * GiB * factor)
            yield engine.timeout(1e-6)

    engine.process(churner(), name="churner")
    t0 = time.perf_counter()
    engine.run()
    return time.perf_counter() - t0


def bench_set_capacity(
    pairs: int = 32, changes: int = 20_000
) -> dict[str, Any]:
    """Throughput of dynamic capacity changes on a loaded network.

    ``capacity_changes_per_second`` is the acceptance number for the
    fault-injection path: every :meth:`FlowNetwork.set_capacity` call
    re-levels only the touched component, so this must stay within the
    same order as flow churn, not degrade to a whole-system re-solve.
    """
    elapsed = _best_of(lambda: _run_capacity_churn(pairs, changes))
    return {
        "pairs": pairs,
        "changes": changes,
        "wall_seconds": elapsed,
        "capacity_changes_per_second": changes / elapsed,
    }


def bench_cache_hit() -> dict[str, Any]:
    """Cold vs warm sweep of one 28-point grid through a fresh cache.

    The warm run pays one key pass and one ``ResultCache.load_many``
    read, the path a warm ``repro run`` or serve answer takes.
    """
    from ..bench_suites.comm_scope import h2d_points, peer_points
    from ..runner import ResultCache, SweepRunner

    sizes = [1 * MiB, 16 * MiB, 256 * MiB, 1 * GiB]
    interfaces = (
        "pageable_memcpy",
        "pinned_memcpy",
        "managed_zerocopy",
        "managed_migration",
    )
    points = h2d_points(interfaces, sizes) + peer_points(sizes=sizes)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cold_runner = SweepRunner(jobs=1, cache=ResultCache(tmp))
        t0 = time.perf_counter()
        cold_outputs = cold_runner.run_points(points)
        cold_wall = time.perf_counter() - t0
        warm_runner = SweepRunner(jobs=1, cache=ResultCache(tmp))
        t0 = time.perf_counter()
        warm_outputs = warm_runner.run_points(points)
        warm_wall = time.perf_counter() - t0
    return {
        "points": len(points),
        "cold_wall_seconds": cold_wall,
        "warm_wall_seconds": warm_wall,
        "speedup": cold_wall / max(warm_wall, 1e-9),
        "warm_hits": warm_runner.stats.cache_hits,
        "identical_outputs": cold_outputs == warm_outputs,
    }


def bench_serve() -> dict[str, Any]:
    """Concurrent what-if load against a live ``repro serve`` instance.

    Delegates to :func:`repro.serve.loadtest.run_load_test`: a real
    :class:`~repro.serve.http.ReproServer` on an ephemeral port takes a
    barrier-released wave of 200 concurrent what-if submissions, then
    the same wave again warm, then an over-quota burst.  The harness
    itself asserts the service properties (zero warm misses,
    bit-identical warm results, 429+Retry-After under burst); the suite
    records the warm wave's sustained request rate and p99 latency as
    headlines.
    """
    from ..serve.loadtest import run_load_test

    return run_load_test(clients=200)


# -- suite ---------------------------------------------------------------------


#: Report schema; ``check_bench.py`` accepts no other.
SCHEMA = "repro-bench-core/10"

#: The suite's sections in run order (the ``--only`` vocabulary):
#: name → (the ``BENCHMARK.json`` per-layer metric the section
#: explains, the benchmark).  A section stays only while it isolates a
#: path that a perfbench layer, and so an end-to-end number, depends on.
SECTIONS: dict[str, tuple[str, Callable[[], dict[str, Any]]]] = {
    "engine_epochs": ("engine.self_s", bench_engine_epochs),
    "flow_churn": ("fairshare.solve_s", bench_flow_churn),
    "set_capacity": ("fairshare.solve_s", bench_set_capacity),
    "solver_scaling": ("fairshare.solve_s", bench_solver_scaling),
    "cache_hit": ("cache.load_s", bench_cache_hit),
    "serve": ("serve.execute_ms", bench_serve),
}

#: One row per headline: ``(key, results section, key within the
#: section, floor)``.  The headline block is assembled from whichever
#: sections actually ran.  ``floor`` is ``(">=", bound)``,
#: ``("<=", bound)`` or ``None``: ``check_bench.py`` fails a report
#: whose value breaks it.
HEADLINE_SPEC: tuple[tuple[str, str, str, tuple[str, float] | None], ...] = (
    (
        "epoch_events_per_second",
        "engine_epochs",
        "epoch_events_per_second",
        (">=", 500_000),
    ),
    ("churn_flows_per_second", "flow_churn", "flows_per_second", None),
    ("metrics_enabled_overhead", "flow_churn", "metrics_enabled_overhead", None),
    ("spans_enabled_overhead", "flow_churn", "spans_enabled_overhead", None),
    (
        "capacity_changes_per_second",
        "set_capacity",
        "capacity_changes_per_second",
        (">=", 25_000),
    ),
    (
        "churn_large_flows_per_second",
        "flow_churn_large",
        "flows_per_second",
        (">=", 1_200),
    ),
    ("cache_hit_speedup", "cache_hit", "speedup", (">=", 12.0)),
    (
        "serve_requests_per_second",
        "serve",
        "serve_requests_per_second",
        (">=", 100),
    ),
    ("serve_whatif_p99_ms", "serve", "serve_whatif_p99_ms", ("<=", 2_000)),
)


def run_suite(
    *, only: "list[str] | tuple[str, ...] | None" = None
) -> dict[str, Any]:
    """Run the microbenchmarks; returns the ``BENCH_core.json`` payload.

    Reports are diff-friendly: results and headline floats are rounded
    to :data:`ROUND_DIGITS` places, and the only run-specific values
    (timestamp, platform string) live under ``meta`` so two reports of
    the same code can be compared by everything outside that block.

    ``only`` restricts the run to the named sections (e.g.
    ``only=["serve"]`` to work on the service alone); the report
    records them under ``"only"``, the headline block carries just
    the keys those sections feed, and ``check_bench.py`` skips the
    rest.  Unknown names raise ``ValueError`` listing the vocabulary.
    """
    from .. import __version__

    selected = list(SECTIONS)
    if only is not None:
        unknown = [name for name in only if name not in SECTIONS]
        if unknown:
            known = ", ".join(SECTIONS)
            raise ValueError(
                f"unknown benchmark(s) {', '.join(unknown)} (known: {known})"
            )
        selected = [name for name in SECTIONS if name in set(only)]
    results = {name: SECTIONS[name][1]() for name in selected}
    if "solver_scaling" in results:
        results["flow_churn_large"] = flow_churn_large_from_scaling(
            results["solver_scaling"]
        )
    headline = {
        key: results[section][field]
        for key, section, field, _floor in HEADLINE_SPEC
        if section in results
    }
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "results": _round_floats(results),
        "headline": _round_floats(headline),
        "meta": {
            "created_unix": time.time(),
            "platform": platform.platform(),
        },
    }
    if only is not None:
        report["only"] = selected
    return report


def write_report(path: str, report: dict[str, Any]) -> None:
    """Serialize a suite report to ``path`` as indented JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


def format_report(report: dict[str, Any]) -> str:
    """Human-readable one-screen summary of a (possibly partial) report."""
    results = report["results"]
    formatters: tuple[tuple[str, Callable[[dict[str, Any]], str]], ...] = (
        (
            "engine_epochs",
            lambda r: f"  epoch dispatch   {r['epoch_events_per_second']:>12,.0f} events/s "
            f"(fanout {r['fanout']})",
        ),
        (
            "flow_churn",
            lambda r: f"  flow churn       {r['flows_per_second']:>12,.0f} flows/s "
            f"({r['pairs']} pairs; metrics on {r['metrics_enabled_overhead']:+.1%}, "
            f"spans on {r['spans_enabled_overhead']:+.1%})",
        ),
        (
            "set_capacity",
            lambda r: f"  capacity churn   {r['capacity_changes_per_second']:>12,.0f} changes/s "
            f"({r['pairs']} pairs)",
        ),
        (
            "flow_churn_large",
            lambda r: f"  cluster churn    {r['flows_per_second']:>12,.0f} flows/s "
            f"({r['gcds']} GCDs)",
        ),
        (
            "cache_hit",
            lambda r: f"  cache hit        {r['speedup']:>12.2f} x "
            f"(warm over cold, {r['points']} points)",
        ),
        (
            "serve",
            lambda r: f"  serve (warm)     {r['serve_requests_per_second']:>12,.1f} req/s "
            f"(p99 {r['serve_whatif_p99_ms']:,.0f} ms, {r['clients']} clients; "
            f"{r['burst']['rejected']}/{r['burst']['sent']} burst 429s)",
        ),
    )
    lines = [f"simulation-core performance ({report['python']})", ""]
    for section, fmt in formatters:
        if section in results:
            lines.append(fmt(results[section]))
    return "\n".join(lines)
