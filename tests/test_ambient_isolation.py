"""Per-thread isolation of the ambient :class:`~repro.context.SimContext`.

Regression for the ``repro serve`` concurrency bug: the ambient
topology/faults/algorithm/observation settings were plain module
globals, so two service threads installing different contexts
clobbered each other mid-job.  They now live in one
:class:`contextvars.ContextVar` — each thread (and asyncio task) sees
only its own installs, while single-threaded code behaves exactly as
the old globals did.
"""

import pickle
import sys
import threading

from repro.context import SimContext, active, use
from repro.faults import install as install_faults
from repro.faults.scenario import FaultScenario, LinkDegrade
from repro.hardware.node import HardwareNode
from repro.obs.capture import ObservationContext, capture
from repro.rccl.algorithms import install_algorithm
from repro.rccl.communicator import RcclCommunicator
from repro.runner import SimPoint, SweepRunner
from repro.topology import install_topology
from repro.topology.presets import dense_hive_node, frontier_node
from repro.units import MiB

THREADS = 8
ROUNDS = 10
ALGORITHMS = ("ring", "tree", "double_binary_tree")


def _hammer(worker, threads=THREADS):
    """Run ``worker(index)`` in lockstep threads; re-raise any failure."""
    barrier = threading.Barrier(threads)
    failures = []

    def run(index):
        try:
            worker(index, barrier)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-install
    try:
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    if failures:
        raise failures[0]


def _scenario(index):
    return FaultScenario(
        events=[LinkDegrade(link="0-1", factor=0.5, at=float(index))],
        name=f"deg-{index}",
    )


class TestSimContextIsolation:
    def test_threads_see_their_own_context(self):
        """Every thread installs a different full context; every reader
        (node topology, node faults, node observation, communicator
        algorithm) must see that thread's own install."""

        def worker(index, barrier):
            topology = (frontier_node, dense_hive_node)[index % 2]()
            scenario = _scenario(index)
            algorithm = ALGORITHMS[index % len(ALGORITHMS)]
            barrier.wait(timeout=30)
            for _ in range(ROUNDS):
                obs = ObservationContext()
                with use(
                    topology=topology,
                    faults=scenario,
                    algorithm=algorithm,
                    obs=obs,
                ) as context:
                    assert active() is context
                    node = HardwareNode()
                    assert node.topology is topology
                    assert node.faults.scenario is scenario
                    assert node.metrics is obs.metrics
                    assert node.spans is obs.spans
                    assert obs.adoptions == 1
                    comm = RcclCommunicator(node, gcds=[0, 1])
                    assert comm.algorithm == algorithm
                assert active() == SimContext()

        _hammer(worker)
        assert active() == SimContext()  # main thread untouched


class TestTopologyContextIsolation:
    def test_threads_see_their_own_install(self):
        choices = (frontier_node(), dense_hive_node(), None)

        def worker(index, barrier):
            mine = choices[index % len(choices)]
            barrier.wait(timeout=30)
            for _ in range(ROUNDS):
                with install_topology(mine):
                    assert active().topology is mine

        _hammer(worker)
        assert active().topology is None  # main thread untouched

    def test_nesting_still_restores(self):
        outer, inner = frontier_node(), dense_hive_node()
        with install_topology(outer) as installed:
            assert installed is outer
            with install_topology(inner):
                assert active().topology is inner
                with install_topology(None):
                    assert active().topology is None
                    assert HardwareNode().topology.name == "frontier-mi250x"
                assert active().topology is inner
            assert active().topology is outer
        assert active().topology is None


class TestAlgorithmContextIsolation:
    def test_threads_see_their_own_algorithm(self):
        choices = ALGORITHMS + (None,)

        def worker(index, barrier):
            mine = choices[index % len(choices)]
            barrier.wait(timeout=30)
            for _ in range(ROUNDS):
                if mine is None:
                    assert active().algorithm is None
                else:
                    with install_algorithm(mine):
                        assert active().algorithm == mine

        _hammer(worker)
        assert active().algorithm is None


class TestFaultContextIsolation:
    def test_threads_see_their_own_scenario(self):
        scenarios = [_scenario(i) for i in range(THREADS)]

        def worker(index, barrier):
            mine = scenarios[index]
            barrier.wait(timeout=30)
            for _ in range(ROUNDS):
                with install_faults(mine):
                    assert active().faults is mine

        _hammer(worker)
        assert active().faults is None


class TestObservationContextIsolation:
    def test_threads_capture_independently(self):
        def worker(index, barrier):
            barrier.wait(timeout=30)
            for _ in range(ROUNDS):
                with capture() as ctx:
                    assert active().obs is ctx
                    ctx.metrics.counter(f"iso/thread{index}").inc()
                snapshot = ctx.metrics.snapshot()
                counters = snapshot["counters"]
                assert counters == {f"iso/thread{index}": 1}

        _hammer(worker)
        assert active().obs is None

    def test_capture_restores_previous_context(self):
        with capture() as outer:
            with capture() as inner:
                assert active().obs is inner
                with use(obs=None):
                    assert HardwareNode().metrics is not inner.metrics
                assert active().obs is inner
            assert active().obs is outer
        assert active().obs is None

    def test_capture_keeps_the_other_fields(self):
        topology = dense_hive_node()
        with install_topology(topology):
            with capture() as ctx:
                assert active() == SimContext(topology=topology, obs=ctx)
            assert active() == SimContext(topology=topology)


class TestWorkerPayload:
    def test_payload_carries_everything_but_obs(self, monkeypatch):
        """The one payload shipped to pool workers: the runner's
        keywords over the caller's context, minus the observation
        capture (which stays in the caller's process)."""
        import repro.runner.runner as runner_module

        shipped = []

        def record(point, context, mode):
            shipped.append((context, pickle.loads(pickle.dumps(context)), mode))

        monkeypatch.setattr(runner_module, "execute_point_in_context", record)
        topology, scenario = dense_hive_node(), _scenario(0)
        point = SimPoint.make(
            "fig06",
            "bw/0->1",
            "repro.bench_suites.p2p_matrix:measure_pair_bandwidth",
            src_gcd=0,
            dst_gcd=1,
            size=1 * MiB,
        )
        with install_topology(topology), use(faults=scenario):
            with capture() as obs:
                runner = SweepRunner(use_cache=False, algorithm="tree")
                runner.run_points([point])
        [(payload, worker_copy, mode)] = shipped
        assert mode == "plain"
        assert payload.obs is obs
        assert worker_copy.topology.fingerprint() == topology.fingerprint()
        assert worker_copy.faults == scenario
        assert worker_copy.algorithm == "tree"
        assert worker_copy.obs is None
