"""Cache-key canonicalization: stability, sharing, and invalidation."""

import pytest

from repro.config import SimEnvironment
from repro.core.calibration import DEFAULT_CALIBRATION
from repro.runner import SimPoint, UncacheableValueError, canonical_token, point_key
from repro.topology.link import LinkTier
from repro.topology.presets import frontier_node, single_gpu_node
from repro.units import MiB


def _point(**kwargs):
    return SimPoint.make(
        "fig03",
        "h2d/x",
        "repro.bench_suites.comm_scope:measure_h2d",
        **kwargs,
    )


class TestCanonicalToken:
    def test_primitives_pass_through(self):
        assert canonical_token(None) is None
        assert canonical_token(True) is True
        assert canonical_token(7) == 7
        assert canonical_token("x") == "x"

    def test_floats_hash_by_bit_pattern(self):
        assert canonical_token(0.1) == ["float", (0.1).hex()]
        assert canonical_token(0.1) != canonical_token(0.1 + 1e-18 + 1e-16)

    def test_sequences_and_maps(self):
        assert canonical_token((1, 2)) == canonical_token([1, 2])
        assert canonical_token({"b": 1, "a": 2}) == canonical_token(
            {"a": 2, "b": 1}
        )

    def test_topology_by_fingerprint_not_name(self):
        a = frontier_node()
        b = frontier_node()
        assert canonical_token(a) == canonical_token(b)
        assert canonical_token(a) != canonical_token(single_gpu_node())

    def test_environment_dataclass(self):
        assert canonical_token(SimEnvironment()) == canonical_token(
            SimEnvironment()
        )
        assert canonical_token(SimEnvironment()) != canonical_token(
            SimEnvironment(sdma_enabled=False)
        )

    def test_unknown_objects_are_uncacheable(self):
        with pytest.raises(UncacheableValueError):
            canonical_token(object())


class TestPointKey:
    def test_stable_across_equal_points(self):
        a = _point(interface="pinned_memcpy", size=1 * MiB)
        b = _point(size=1 * MiB, interface="pinned_memcpy")
        assert point_key(a, version="1") == point_key(b, version="1")

    def test_excludes_experiment_id_and_label(self):
        a = SimPoint.make(
            "fig02", "x", "repro.bench_suites.comm_scope:measure_h2d",
            interface="pinned_memcpy", size=1 * MiB,
        )
        b = SimPoint.make(
            "fig03", "y", "repro.bench_suites.comm_scope:measure_h2d",
            interface="pinned_memcpy", size=1 * MiB,
        )
        assert point_key(a, version="1") == point_key(b, version="1")

    def test_version_and_params_invalidate(self):
        point = _point(interface="pinned_memcpy", size=1 * MiB)
        assert point_key(point, version="1") != point_key(point, version="2")
        other = _point(interface="pinned_memcpy", size=2 * MiB)
        assert point_key(point, version="1") != point_key(other, version="1")

    def test_calibration_change_invalidates(self):
        base = _point(
            interface="pinned_memcpy",
            size=1 * MiB,
            calibration=DEFAULT_CALIBRATION,
        )
        perturbed = _point(
            interface="pinned_memcpy",
            size=1 * MiB,
            calibration=DEFAULT_CALIBRATION.with_(
                sdma_engine_throughput=(
                    DEFAULT_CALIBRATION.sdma_engine_throughput * 1.01
                )
            ),
        )
        assert point_key(base, version="1") != point_key(perturbed, version="1")


class TestGoldenKeys:
    """Literal keys: any change to the canonical encoding re-keys every
    user's store, so it must show up here (and bump ``KEY_SCHEMA``).

    The first key also covers the default calibration constants and the
    Frontier preset through their fingerprints; a deliberate change to
    either updates that literal.
    """

    def test_paper_point(self):
        point = SimPoint.make(
            "fig06",
            "peer/0-1",
            "repro.hip.memcpy:measure_peer",
            topology=frontier_node(),
            calibration=DEFAULT_CALIBRATION,
            src=0,
            dst=1,
            size=64 * MiB,
        )
        assert point_key(point, version="golden-1") == (
            "84ac80e69216a59d9857e8bfa2e8fe987d601502cf730740a2c5978964a5c351"
        )

    def test_mapping_floats_enum_and_dataclass(self):
        point = SimPoint.make(
            "fig03",
            "h2d/x",
            "repro.bench_suites.comm_scope:measure_h2d",
            weights={"quad": 0.5, "dual": 1.25, 3: [0.1, None, True]},
            ratio=0.1,
            sizes=(1, 2 * MiB),
            tier=LinkTier.QUAD,
            env=SimEnvironment(sdma_enabled=False),
        )
        assert point_key(point, version="golden-1") == (
            "1e96562f6de24b948d9cecae79cc7d77d9c9cf2bde10789a9c3bdd65470d666b"
        )
