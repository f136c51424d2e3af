"""Bottleneck attribution: the solver records *where* each flow is limited."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim.fairshare import (
    FairshareSolver,
    FlowSpec,
    max_min_fair_rates,
)

from .flow_oracle import max_min_fair_rates_reference


class TestReferenceAttribution:
    def test_single_flow_channel_bound(self):
        bottlenecks = {}
        rates = max_min_fair_rates_reference(
            [FlowSpec("f", ("a", "b"))],
            {"a": 10.0, "b": 100.0},
            bottlenecks,
        )
        assert rates["f"] == pytest.approx(10.0)
        assert bottlenecks["f"] == "a"

    def test_single_flow_cap_bound(self):
        bottlenecks = {}
        rates = max_min_fair_rates_reference(
            [FlowSpec("f", ("a",), cap=4.0)], {"a": 10.0}, bottlenecks
        )
        assert rates["f"] == pytest.approx(4.0)
        assert bottlenecks["f"] is None

    def test_shared_channel_attributed_to_the_saturated_one(self):
        bottlenecks = {}
        max_min_fair_rates_reference(
            [
                FlowSpec("f1", ("shared", "wide1")),
                FlowSpec("f2", ("shared", "wide2")),
            ],
            {"shared": 10.0, "wide1": 100.0, "wide2": 100.0},
            bottlenecks,
        )
        assert bottlenecks == {"f1": "shared", "f2": "shared"}

    def test_mixed_cap_and_channel_bound(self):
        bottlenecks = {}
        rates = max_min_fair_rates_reference(
            [
                FlowSpec("capped", ("shared",), cap=2.0),
                FlowSpec("free", ("shared",)),
            ],
            {"shared": 10.0},
            bottlenecks,
        )
        assert rates["capped"] == pytest.approx(2.0)
        assert rates["free"] == pytest.approx(8.0)
        assert bottlenecks["capped"] is None
        assert bottlenecks["free"] == "shared"

    def test_attribution_does_not_change_rates(self):
        flows = [
            FlowSpec("a", ("x", "y")),
            FlowSpec("b", ("y", "z"), cap=3.0),
            FlowSpec("c", ("z",)),
        ]
        capacities = {"x": 7.0, "y": 5.0, "z": 9.0}
        plain = max_min_fair_rates_reference(flows, capacities)
        tracked = max_min_fair_rates_reference(flows, capacities, {})
        assert plain == tracked

    def test_every_flow_is_attributed(self):
        # Work conservation: every flow freezes against a channel or
        # its own cap; the attribution map must cover all of them.
        flows = [
            FlowSpec(
                f"f{i}",
                ("trunk", f"leaf{i % 3}"),
                cap=math.inf if i % 2 else 4.0,
            )
            for i in range(6)
        ]
        capacities = {"trunk": 12.0, "leaf0": 5.0, "leaf1": 5.0, "leaf2": 5.0}
        bottlenecks = {}
        rates = max_min_fair_rates_reference(flows, capacities, bottlenecks)
        assert set(bottlenecks) == set(rates)
        for flow_id, channel in bottlenecks.items():
            assert channel is None or channel in capacities


class TestNumpyCoreAgreement:
    def test_attribution_matches_reference(self):
        flows = [
            FlowSpec("a", ("x", "y")),
            FlowSpec("b", ("y",), cap=1.5),
            FlowSpec("c", ("x", "z")),
            FlowSpec("d", ("z", "y")),
        ]
        capacities = {"x": 6.0, "y": 4.0, "z": 8.0}
        ref_b: dict = {}
        fast_b: dict = {}
        ref = max_min_fair_rates_reference(flows, capacities, ref_b)
        fast = max_min_fair_rates(flows, capacities, fast_b)
        assert ref == fast
        assert ref_b == fast_b


class TestSolverTracking:
    def test_bottleneck_query(self):
        solver = FairshareSolver(
            {"shared": 10.0, "wide": 100.0}, track_bottlenecks=True
        )
        solver.add_flow(FlowSpec("f1", ("shared", "wide")))
        solver.add_flow(FlowSpec("f2", ("shared",)))
        assert solver.bottleneck("f1") == "shared"
        assert solver.bottleneck("f2") == "shared"
        assert solver.bottlenecks() == {"f1": "shared", "f2": "shared"}

    def test_reattribution_on_removal(self):
        solver = FairshareSolver(
            {"narrow": 4.0, "wide": 100.0}, track_bottlenecks=True
        )
        solver.add_flow(FlowSpec("a", ("narrow", "wide")))
        solver.add_flow(FlowSpec("b", ("narrow",)))
        assert solver.bottleneck("a") == "narrow"
        solver.remove_flow("b")
        assert solver.bottleneck("a") == "narrow"
        assert "b" not in solver.bottlenecks()

    def test_cap_bound_is_none(self):
        solver = FairshareSolver({"c": 10.0}, track_bottlenecks=True)
        solver.add_flow(FlowSpec("f", ("c",), cap=2.0))
        assert solver.bottleneck("f") is None

    def test_untracked_solver_raises(self):
        solver = FairshareSolver({"c": 10.0})
        solver.add_flow(FlowSpec("f", ("c",)))
        assert not solver.tracks_bottlenecks
        with pytest.raises(SimulationError, match="track_bottlenecks"):
            solver.bottleneck("f")
        with pytest.raises(SimulationError, match="track_bottlenecks"):
            solver.bottlenecks()

    def test_tracking_leaves_rates_identical(self):
        def drive(track: bool) -> list:
            solver = FairshareSolver(
                {"a": 9.0, "b": 5.0, "c": 13.0}, track_bottlenecks=track
            )
            seen = []
            solver.add_flow(FlowSpec("f1", ("a", "b")))
            seen.append(dict(solver.rates()))
            solver.add_flow(FlowSpec("f2", ("b", "c"), cap=2.5))
            seen.append(dict(solver.rates()))
            solver.add_flow(FlowSpec("f3", ("a", "c")))
            seen.append(dict(solver.rates()))
            solver.remove_flow("f1")
            seen.append(dict(solver.rates()))
            return seen

        assert drive(False) == drive(True)
