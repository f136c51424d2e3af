"""One workload of the end-to-end benchmark, in one fresh interpreter.

``run.py`` starts this script once per set-up sample and once for the
measured (or traced) run, so ``import repro`` and every other set-up
cost land in ``setup_s`` and no in-process state carries over between
runs.  The script prints one JSON object as its last stdout line.

Phases:

- ``setup``: set up, report the set-up time, tear down;
- ``measure``: set up, then time operations for ``--seconds``, with
  calibration slices (``calibration.py``) between their pieces;
- ``trace``: set up, then time a fixed unit of work untraced and once
  more under :class:`tracing.Tracer`;
- ``record``: run each workload's unit of work once and write the
  reference outputs every run is checked against
  (``reference.json``).  Re-record only for a deliberate change to the
  simulated results.

Every simulated output is checked exactly; only host time is
measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from typing import Any, Callable

from calibration import REFERENCE_S, WINDOW, Clock

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

#: Collective payload (bytes) of both cluster collectives.
ALLREDUCE_BYTES = 256 * 2**20
#: ``(label, cluster nodes, algorithm)`` of the two cluster collectives.
COLLECTIVES = (("ring", 8, "ring"), ("hier", 64, "hierarchical_ring"))
#: Solver/engine counters pinned per collective.
COLLECTIVE_COUNTERS = (
    "events_delivered",
    "flows_added",
    "component_solves",
    "flows_releveled",
    "largest_component",
    "dirty_relevels",
    "replay_rounds",
)
#: Service workers on ``serve_warm`` (= nproc); the load is one client.
SERVE_WORKERS = 2
#: Untimed rounds of the pool before the measured ``serve_warm`` loop.
SERVE_WARMUP_ROUNDS = 20
#: Requests in one traced ``serve_warm`` unit: whole rounds of the pool,
#: so its counts do not depend on the seed.
SERVE_TRACE_REQUESTS = 240
#: Wall seconds between timer-driven calibration slices inside the
#: pieces of ``artifacts_cold`` and ``cluster_allreduce``.
TICK_INTERVAL_S = 0.25
#: One operation's timed pieces: ``(label, started, ended)``.
Pieces = list[tuple[str, float, float]]
#: Job-record keys that carry host timing or cache accounting.
VOLATILE_KEYS = frozenset({"runner", "wall_seconds", "latency_seconds"})


def digest(text: str) -> str:
    """SHA-256 hex digest of a string."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def strip_volatile(value: Any) -> Any:
    """``value`` without host-timing/accounting keys, at any depth.

    Kept here rather than imported from ``repro`` so the output check
    does not depend on the code it checks.
    """
    if isinstance(value, dict):
        return {
            k: strip_volatile(v) for k, v in value.items() if k not in VOLATILE_KEYS
        }
    if isinstance(value, list):
        return [strip_volatile(v) for v in value]
    return value


def result_text(result: Any) -> str:
    """Canonical JSON of a job result, volatile keys stripped."""
    return json.dumps(strip_volatile(result), sort_keys=True)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Failures:
    """Operations attempted/failed plus the first few error messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, ok: bool, error: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)


# -- artifacts_cold -----------------------------------------------------------


class ArtifactsCold:
    """All 14 paper artifacts, serially in process, into an empty cache."""

    def __init__(
        self, args: argparse.Namespace, reference: dict, failures: Failures
    ) -> None:
        from repro import figures

        self.failures = failures
        self.figures = figures
        self.ids = figures.all_ids()
        self.rng = random.Random(args.seed)
        self.work = Path(args.work_dir)
        self.reference = reference.get("artifacts", {})
        self.cache_bytes = 0

    def prepare(self) -> None:
        """Nothing beyond the import."""

    def close(self) -> None:
        """Nothing to release."""

    def op(self, tick: Callable[[], None] = lambda: None) -> dict[str, Any]:
        """One cold pass in a seeded artifact order.

        Returns one timed piece ``(artifact, started, ended)`` per
        artifact; ``tick`` runs between artifacts, outside every piece.
        """
        from repro.runner import ResultCache, SweepRunner

        figures = self.figures
        order = self.rng.sample(self.ids, len(self.ids))
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.work)
        results: dict[str, Any] = {}
        pieces: Pieces = []
        try:
            try:
                started = time.perf_counter()
                runner = SweepRunner(jobs=1, cache_dir=cache_dir)
                for artifact in order:
                    points = figures.sweep_points(artifact)
                    outputs = runner.run_points(points)
                    results[artifact] = figures.merge_outputs(artifact, points, outputs)
                    pieces.append((artifact, started, time.perf_counter()))
                    tick()
                    started = time.perf_counter()
            except Exception as exc:  # counted as failed artifacts below
                error = f"{type(exc).__name__}: {exc}"
            else:
                error = "output differs from reference"
            self.cache_bytes = ResultCache(cache_dir).total_bytes()
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        digests = {
            artifact: digest(repr(result.canonical()))
            for artifact, result in results.items()
        }
        for artifact in order:
            ok = artifact in digests and digests[artifact] == self.reference.get(
                artifact
            )
            self.failures.add(ok, f"{artifact}: {error}")
        return {"pieces": pieces, "digests": digests}

    def record(self) -> dict[str, Any]:
        return {"artifacts": self.op()["digests"]}


# -- cluster_allreduce --------------------------------------------------------


class ClusterAllreduce:
    """A ring allreduce on 64 GCDs and a hierarchical one on 512 GCDs."""

    def __init__(
        self, args: argparse.Namespace, reference: dict, failures: Failures
    ) -> None:
        import repro.topology.presets as presets
        from repro import Session

        self.failures = failures
        self.presets = presets
        self.session = Session
        self.reference = reference.get("collectives", {})
        self.topologies: dict[str, Any] = {}

    def prepare(self) -> None:
        """Build both cluster topologies (reused by every collective)."""
        self.topologies = {
            label: self.presets.mi250x_cluster(nodes=nodes)
            for label, nodes, _ in COLLECTIVES
        }

    def close(self) -> None:
        """Nothing to release."""

    def op(self, tick: Callable[[], None] = lambda: None) -> dict[str, Any]:
        """Both collectives once.

        Returns one timed piece ``(label, started, ended)`` per
        collective; ``tick`` runs after each, outside every piece.
        """
        pieces: Pieces = []
        observed: dict[str, Any] = {}
        for label, _, algorithm in COLLECTIVES:
            started = time.perf_counter()
            try:
                with self.session(self.topologies[label]) as session:
                    comm = session.rccl_communicator(algorithm=algorithm)
                    session.run(comm.allreduce(ALLREDUCE_BYTES))
                    stats = session.stats()
                    observed[label] = {"sim_time": session.now}
                    observed[label].update(
                        (name, stats[name]) for name in COLLECTIVE_COUNTERS
                    )
            except Exception as exc:  # counted as a failed collective
                self.failures.add(False, f"{label}: {type(exc).__name__}: {exc}")
            else:
                ok = observed[label] == self.reference.get(label)
                self.failures.add(ok, f"{label}: {observed[label]} != reference")
            pieces.append((label, started, time.perf_counter()))
            tick()
        return {"pieces": pieces, "observed": observed}

    def record(self) -> dict[str, Any]:
        self.prepare()
        return {"collectives": self.op()["observed"]}


# -- serve_warm ---------------------------------------------------------------


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, argv: list[str]) -> None:
        self.process = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        if "listening on " not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line.split("listening on ", 1)[1].split()[0]

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (``VmHWM``), in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


class ServeWarm:
    """Closed-loop what-if requests against a warm ``repro serve``."""

    def __init__(
        self, args: argparse.Namespace, reference: dict, failures: Failures
    ) -> None:
        from repro.serve.client import ServeClient, ServeError
        from repro.serve.loadtest import _QUERIES

        self.failures = failures
        self.client_class = ServeClient
        self.serve_error = ServeError
        self.queries = _QUERIES
        self.rng = random.Random(args.seed)
        self.reference = reference.get("serve", {})
        self.store = tempfile.mkdtemp(prefix="store-", dir=args.work_dir)
        self.cold: dict[int, str] = {}
        self.server: Server | None = None
        self.server_rss_mb = 0.0
        self.rejected = 0

    def start(self, traced_summary: str | None = None) -> None:
        """``repro serve`` with 2 workers and quotas that never throttle."""
        args = [
            "serve",
            "--port", "0",
            "--workers", str(SERVE_WORKERS),
            "--quota-rate", "1000000",
            "--quota-burst", "1000000",
            "--cache-dir", self.store,
        ]
        if traced_summary is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable, str(HERE / "traced_server.py"), traced_summary, *args]
        self.server = Server(argv)

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def prepare(self) -> None:
        """Start the service and fill its private store with the pool."""
        self.start()
        records = self.run_requests(list(range(len(self.queries))), self.check_cold)
        for record in records:
            self.cold[record["query"]] = record["text"]

    def close(self) -> None:
        self.stop()
        shutil.rmtree(self.store, ignore_errors=True)

    # -- requests ---------------------------------------------------------

    def seeded_sequence(self, rounds: int) -> list[int]:
        """Seeded query order: each round is a shuffle of the whole pool."""
        order: list[int] = []
        for _ in range(rounds):
            order.extend(self.rng.sample(range(len(self.queries)), len(self.queries)))
        return order

    def request(self, client: Any, query: int) -> dict[str, Any]:
        """Submit, follow the event stream to ``done``, fetch the record.

        Only timestamps and the raw record are kept here; parsing and
        checking wait until the sequence ends (:meth:`parse`).
        """
        started = time.perf_counter()
        t0 = time.time()
        job_id = client.submit("whatif", self.queries[query])
        t1 = time.time()
        for event in client.events(job_id):
            if event["event"] in ("done", "failed"):
                break
        request = urllib.request.Request(
            f"{client.base_url}/v1/jobs/{job_id}",
            headers={"X-Repro-Tenant": client.tenant},
        )
        with urllib.request.urlopen(request, timeout=client.timeout) as response:
            body = response.read()
        t3 = time.time()
        done_at = time.perf_counter()
        return {
            "query": query,
            "started": started,
            "done_at": done_at,
            "t0": t0,
            "t1": t1,
            "t3": t3,
            "body": body,
        }

    @staticmethod
    def parse(raw: dict[str, Any]) -> dict[str, Any]:
        """A raw request plus the fields read from its job record."""
        body = raw.pop("body")
        record = json.loads(body)
        result = record.get("result") or {}
        runner = result.get("runner", {})
        raw.update(
            state=record["state"],
            error=record.get("error"),
            text=result_text(result),
            bytes=len(body),
            cache_hits=runner.get("cache_hits", 0),
            cache_misses=runner.get("cache_misses", 0),
        )
        if record["state"] == "done":
            raw.update(
                submit=raw["t1"] - raw["t0"],
                queue_wait=record["started"] - record["created"],
                execute=record["finished"] - record["started"],
                fetch=raw["t3"] - max(raw["t1"], record["finished"]),
            )
        return raw

    def check_cold(self, record: dict[str, Any]) -> str:
        """Why a cold-fill response is wrong, or ``""`` when it is right."""
        if record["state"] != "done":
            return f"job ended {record['state']}: {record['error']}"
        if self.reference and digest(record["text"]) != self.reference.get(
            str(record["query"])
        ):
            return f"cold query {record['query']} differs from reference"
        return ""

    def check_warm(self, record: dict[str, Any]) -> str:
        """Why a warm response is wrong, or ``""`` when it is right."""
        if record["state"] != "done":
            return f"job ended {record['state']}: {record['error']}"
        if record["cache_misses"]:
            return f"warm request missed the store {record['cache_misses']} time(s)"
        if record["text"] != self.cold.get(record["query"]):
            return f"query {record['query']} differs from its cold-fill result"
        return ""

    def run_requests(
        self, sequence: list[int], check: Callable[[dict[str, Any]], str]
    ) -> list[dict[str, Any]]:
        """One closed-loop client over a query sequence.

        Returns the requests that passed ``check``; every other request
        is counted as failed.
        """
        client = self.client_class(self.server.url, tenant="bench", timeout=60.0)
        raws: list[dict[str, Any]] = []
        for query in sequence:
            try:
                raws.append(self.request(client, query))
            except self.serve_error as exc:
                if exc.status in (429, 503):
                    self.rejected += 1
                self.failures.add(False, f"HTTP {exc.status}: {exc}")
            except Exception as exc:  # counted, the loop goes on
                self.failures.add(False, f"{type(exc).__name__}: {exc}")
        passed = []
        for record in map(self.parse, raws):
            error = check(record)
            self.failures.add(not error, error)
            if not error:
                passed.append(record)
        return passed

    def measure(self, seconds: float, clock: Clock) -> list[Pieces]:
        """Warm up, then whole rounds of the pool for ``seconds``.

        The warm-up is a fixed number of requests, so the server's peak
        RSS read after it does not depend on how fast the loop ran.
        One operation is one request; ``clock`` ticks after each round.
        """
        self.run_requests(self.seeded_sequence(SERVE_WARMUP_ROUNDS), self.check_warm)
        self.server_rss_mb = self.server.peak_rss_mb()
        for _ in range(WINDOW):
            clock.tick()
        ops: list[Pieces] = []
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            records = self.run_requests(self.seeded_sequence(1), self.check_warm)
            ops.extend([("request", r["started"], r["done_at"])] for r in records)
            clock.tick()
        for _ in range(WINDOW):
            clock.tick()
        return ops

    def record(self) -> dict[str, Any]:
        try:
            self.prepare()
        finally:
            self.close()
        return {"serve": {str(q): digest(text) for q, text in sorted(self.cold.items())}}


WORKLOADS = {
    "artifacts_cold": ArtifactsCold,
    "cluster_allreduce": ClusterAllreduce,
    "serve_warm": ServeWarm,
}


# -- phases -------------------------------------------------------------------


def measure_batch(workload: Any, seconds: float, clock: Clock) -> list[Pieces]:
    """Repeat the workload's operation until ``seconds`` have passed.

    ``clock`` ticks between the pieces of every operation, every
    ``TICK_INTERVAL_S`` inside them (a collective runs for seconds in
    one call), and ``WINDOW`` times after the last one.
    """
    ops: list[Pieces] = []
    started = time.perf_counter()
    with clock.ticking(TICK_INTERVAL_S):
        while True:
            ops.append(workload.op(clock.tick)["pieces"])
            if time.perf_counter() - started >= seconds:
                break
    for _ in range(WINDOW):
        clock.tick()
    return ops


def timings(ops: list[Pieces], clock: Clock) -> dict[str, Any]:
    """Wall and reference-speed seconds of every operation and piece.

    Each piece's wall time, less the slices that ran inside it, is
    scaled by the machine speed the slices around it show
    (:meth:`calibration.Clock.scale`).
    """
    wall: list[float] = []
    norm: list[float] = []
    parts: dict[str, list[float]] = {}
    for pieces in ops:
        op_wall = op_norm = 0.0
        for label, started, ended in pieces:
            seconds = ended - started - clock.inside(started, ended)
            scaled = seconds * clock.scale(started, ended)
            op_wall += seconds
            op_norm += scaled
            parts.setdefault(label, []).append(scaled)
        wall.append(op_wall)
        norm.append(op_norm)
    return {
        "ops_wall_s": wall,
        "ops_norm_s": norm,
        "parts_norm_s": parts,
        "calibration_s": clock.median_s(),
    }


def trace_batch(workload: Any) -> dict[str, Any]:
    """Untraced, traced, untraced: one prepare+op unit each."""
    from tracing import Tracer

    def unit() -> float:
        started = time.perf_counter()
        workload.prepare()
        workload.op()
        return time.perf_counter() - started

    before = unit()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.set_request("unit")
        root = tracer.enter("op")
        try:
            workload.prepare()
            workload.op()
        finally:
            traced = tracer.exit(root)
    finally:
        tracer.uninstall()
    after = unit()
    summary = tracer.summary()
    return {
        "summary": summary,
        "spans": tracer.spans,
        "untraced_s": (before + after) / 2.0,
        "traced_s": traced,
        "root": "op",
        "cache_bytes": getattr(workload, "cache_bytes", 0),
    }


def trace_serve(workload: ServeWarm, work_dir: str) -> dict[str, Any]:
    """A fixed request block untraced, then on a traced server."""
    sequence = workload.seeded_sequence(SERVE_TRACE_REQUESTS // len(workload.queries))
    started = time.perf_counter()
    workload.run_requests(sequence, workload.check_warm)
    untraced = time.perf_counter() - started
    workload.stop()
    summary_path = str(Path(work_dir) / "server-trace.json")
    workload.start(traced_summary=summary_path)
    try:
        started = time.perf_counter()
        records = workload.run_requests(sequence, workload.check_warm)
        traced = time.perf_counter() - started
    finally:
        workload.stop()
    with open(summary_path, encoding="utf-8") as handle:
        server = json.load(handle)
    count = max(1, len(records))

    def mean_ms(key: str) -> float:
        return sum(r[key] for r in records) * 1e3 / count

    return {
        "summary": server["summary"],
        "spans": server["spans"],
        "untraced_s": untraced,
        "traced_s": traced,
        "root": "serve.execute",
        "serve": {
            "serve.submit_ms": mean_ms("submit"),
            "serve.queue_wait_ms": mean_ms("queue_wait"),
            "serve.execute_ms": mean_ms("execute"),
            "serve.fetch_ms": mean_ms("fetch"),
            "serve.response_bytes": sum(r["bytes"] for r in records) / count,
            "serve.cache_hits": sum(r["cache_hits"] for r in records),
            "serve.rejected": workload.rejected,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", required=True,
                        choices=("setup", "measure", "trace", "record"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned", type=float, default=None,
                        help="parent's time.monotonic() just before spawning")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    spawned = args.spawned if args.spawned is not None else time.monotonic()

    started = time.perf_counter()
    import repro  # noqa: F401 - timed: the import is part of set-up

    import_s = time.perf_counter() - started

    if args.phase == "record":
        reference: dict[str, Any] = {}
        for cls in WORKLOADS.values():
            reference.update(cls(args, {}, Failures()).record())
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(json.dumps({"recorded": str(REFERENCE)}))
        return 0

    reference = json.loads(REFERENCE.read_text())
    failures = Failures()
    workload = WORKLOADS[args.workload](args, reference, failures)
    out: dict[str, Any] = {"workload": args.workload, "import_s": import_s}
    try:
        clock = Clock()
        if args.phase in ("setup", "measure"):
            # Slices on both sides of prepare; their time is not set-up.
            for _ in range(WINDOW):
                clock.tick()
        workload.prepare()
        out["setup_wall_s"] = time.monotonic() - spawned - sum(clock.seconds)
        if args.phase in ("setup", "measure"):
            for _ in range(WINDOW):
                clock.tick()
            out["setup_s"] = out["setup_wall_s"] * REFERENCE_S / clock.median_s()
        if args.phase == "measure":
            started = time.perf_counter()
            if isinstance(workload, ServeWarm):
                ops = workload.measure(args.seconds, clock)
            else:
                ops = measure_batch(workload, args.seconds, clock)
            out["loop_wall_s"] = time.perf_counter() - started
            out.update(timings(ops, clock))
        elif args.phase == "trace":
            if isinstance(workload, ServeWarm):
                traced = trace_serve(workload, args.work_dir)
            else:
                traced = trace_batch(workload)
            spans = traced.pop("spans")
            if args.spans_out:
                with open(args.spans_out, "w", encoding="utf-8") as handle:
                    for span in spans:
                        handle.write(json.dumps(span) + "\n")
            out["trace"] = traced
    finally:
        workload.close()
    out["peak_rss_mb"] = (
        workload.server_rss_mb if isinstance(workload, ServeWarm) else peak_rss_mb()
    )
    out.update(
        attempted=failures.attempted, failed=failures.failed, errors=failures.errors
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
