"""Reference flow network and global fair-share solver: the oracles.

:class:`OracleFlowNetwork` is the straightforward fluid-flow model that
:class:`repro.sim.flow.FlowNetwork` optimizes: per-flow Python
integration (``remaining -= rate * dt`` one flow at a time) and a
from-scratch per-component :func:`reference_fill` solve, bottleneck
attribution included, on *every* event — no slot
arrays, no persistent solver, no trace replay, no epoch deferral.  The
differential tests run identical workloads through both and compare
every observable with ``==``.

:func:`reference_fill` is a set-based progressive-filling loop written
independently of the solver's core; the network oracle runs it on each
:func:`reference_components` piece, and ``test_fairshare_core.py``
checks the core against it with ``==``.
:func:`max_min_fair_rates_reference` is the pre-decomposition global
solve: one fill over the whole system, not per connected component.  It
agrees with the batch solver to within floating-point accumulation
order (not necessarily bitwise).

All live here, outside the package, only as test oracles; the
simulator never uses them.
"""

from __future__ import annotations

import itertools
import math
from typing import Hashable, Iterable, Mapping, Sequence

from repro.errors import LinkDownError, SimulationError
from repro.obs.metrics import metric_name
from repro.obs.spans import SpanRecorder
from repro.sim.engine import SimEngine
from repro.sim.fairshare import FlowSpec, _validate_problem
from repro.sim.flow import Flow

_EPSILON_BYTES = 1e-6

#: Relative slack for "channel is full" / "flow reached its cap".
_CHANNEL_SLACK = 1e-6
_CAP_SLACK = 1e-9


def reference_fill(
    flows: Sequence[FlowSpec],
    capacities: Mapping[Hashable, float],
    bottlenecks: "dict[Hashable, Hashable | None] | None" = None,
    trace=None,
) -> dict[Hashable, float]:
    """Set-based progressive filling: the reference for the solver's core.

    Every round re-derives each channel's active flows as ``group &
    unfrozen`` and raises every unfrozen rate one by one; the
    simulator's core keeps that state incrementally and must agree with
    this loop bit for bit.

    With ``bottlenecks`` (a dict to fill), each flow's freeze reason is
    recorded as a side product: the first channel in the flow's channel
    tuple that was full at its freeze iteration, or ``None`` when the
    flow froze at its own cap.  With ``trace`` (any object with the
    ``deltas``/``freeze_round``/``full_round``/``binding_channels``/
    ``binding_caps`` fields of the solver's trace), the round structure
    is recorded.  Attribution and tracing only *read* solver state, so
    the returned rates are bit-identical either way.
    """
    rate: dict[Hashable, float] = {f.flow_id: 0.0 for f in flows}
    unfrozen: set[Hashable] = set(rate)
    flows_by_id = {f.flow_id: f for f in flows}

    members: dict[Hashable, set[Hashable]] = {}
    for flow in flows:
        for channel in flow.channels:
            members.setdefault(channel, set()).add(flow.flow_id)
    residual: dict[Hashable, float] = {
        channel: capacities[channel] for channel in members
    }

    # Each iteration freezes at least one flow, so the loop runs at
    # most len(flows) times.
    round_index = 0
    while unfrozen:
        delta = math.inf
        for channel, group in members.items():
            active = group & unfrozen
            if active:
                delta = min(delta, residual[channel] / len(active))
        for flow_id in unfrozen:
            flow = flows_by_id[flow_id]
            if flow.cap is not math.inf:
                delta = min(delta, flow.cap - rate[flow_id])

        if delta is math.inf:
            raise SimulationError(
                "unconstrained flows (no channels and no cap): "
                f"{sorted(map(repr, unfrozen))}"
            )
        delta = max(delta, 0.0)

        if trace is not None:
            binding_ch = []
            for channel, group in members.items():
                active = group & unfrozen
                if active and residual[channel] / len(active) == delta:
                    binding_ch.append(channel)
            binding_cap = []
            for flow_id in unfrozen:
                flow = flows_by_id[flow_id]
                if flow.cap is not math.inf and flow.cap - rate[flow_id] == delta:
                    binding_cap.append(flow_id)
            trace.deltas.append(delta)
            trace.binding_channels.append(tuple(binding_ch))
            trace.binding_caps.append(tuple(binding_cap))

        for flow_id in unfrozen:
            rate[flow_id] += delta
        for channel, group in members.items():
            active = group & unfrozen
            if active:
                residual[channel] -= delta * len(active)

        frozen_now: set[Hashable] = set()
        full: set[Hashable] = set()
        for channel, group in members.items():
            # An unbounded channel never saturates (inf <= slack * inf).
            capacity = capacities[channel]
            if capacity != math.inf and residual[channel] <= _CHANNEL_SLACK * capacity:
                full.add(channel)
                frozen_now |= group & unfrozen
        if bottlenecks is not None:
            for flow_id in frozen_now:
                # A channel-frozen flow crosses at least one full channel;
                # blame the first one in its route for determinism.
                for channel in flows_by_id[flow_id].channels:
                    if channel in full:
                        bottlenecks[flow_id] = channel
                        break
        for flow_id in unfrozen:
            flow = flows_by_id[flow_id]
            if flow.cap is not math.inf and rate[flow_id] >= flow.cap - _CAP_SLACK * flow.cap:
                if bottlenecks is not None and flow_id not in frozen_now:
                    bottlenecks[flow_id] = None  # cap-bound, not channel-bound
                rate[flow_id] = flow.cap
                frozen_now.add(flow_id)
        if not frozen_now:
            raise SimulationError("progressive filling made no progress")
        if trace is not None:
            for channel in full:
                trace.full_round.setdefault(channel, round_index)
            for flow_id in frozen_now:
                trace.freeze_round[flow_id] = round_index
        unfrozen -= frozen_now
        round_index += 1

    return rate


def reference_components(flows: Sequence[FlowSpec]) -> list[list[FlowSpec]]:
    """Maximal sets of flows coupled transitively through shared channels."""
    on_channel: dict[Hashable, list[FlowSpec]] = {}
    for flow in flows:
        for channel in flow.channels:
            on_channel.setdefault(channel, []).append(flow)
    seen: set[Hashable] = set()
    components = []
    for flow in flows:
        if flow.flow_id in seen:
            continue
        seen.add(flow.flow_id)
        component, stack = [], [flow]
        while stack:
            current = stack.pop()
            component.append(current)
            for channel in current.channels:
                for other in on_channel[channel]:
                    if other.flow_id not in seen:
                        seen.add(other.flow_id)
                        stack.append(other)
        components.append(component)
    return components


def max_min_fair_rates_reference(
    flows: Sequence[FlowSpec],
    capacities: Mapping[Hashable, float],
    bottlenecks: "dict[Hashable, Hashable | None] | None" = None,
) -> dict[Hashable, float]:
    """Progressive filling over the *whole* system at once.

    ``bottlenecks``, when given, is filled with each flow's freeze
    reason exactly as in :func:`max_min_fair_rates`.
    """
    if not flows:
        return {}
    _validate_problem(flows, capacities)
    return reference_fill(flows, capacities, bottlenecks)


class OracleFlowNetwork:
    """Per-event batch re-solve with per-flow scalar integration.

    Mirrors the public surface the differential harnesses drive
    (``add_channel``, ``set_capacity``, ``transfer``) with the same
    completion slop, completion order (flow-id order) and blame keys.
    """

    def __init__(self, engine: SimEngine, *, spans=None) -> None:
        self.engine = engine
        self._spans = spans
        self._capacities: dict[Hashable, float] = {}
        self._active: dict[int, Flow] = {}
        self._flow_ids = itertools.count()
        self._last_update = 0.0
        self._alarm = None
        self._alarm_at = math.inf

    def add_channel(self, channel_id: Hashable, capacity: float) -> None:
        if channel_id in self._capacities or capacity <= 0:
            raise SimulationError(f"bad channel {channel_id!r}")
        self._capacities[channel_id] = capacity

    def set_capacity(self, channel_id: Hashable, capacity: float) -> None:
        if capacity == self._capacities[channel_id]:
            return
        self._advance_to_now()
        failed: list[Flow] = []
        if capacity == 0:
            failed = [
                flow
                for flow in self._active.values()
                if channel_id in flow.channels
            ]
            for flow in failed:
                del self._active[flow.flow_id]
                flow.rate = 0.0
        self._capacities[channel_id] = capacity
        self._resolve_and_schedule()
        for flow in failed:
            flow.done.fail(
                LinkDownError(f"flow {flow.flow_id} lost channel {channel_id!r}")
            )

    def transfer(
        self,
        channels: Iterable[Hashable],
        size: float,
        *,
        cap: float = math.inf,
        label: str = "",
        span=None,
    ) -> Flow:
        channel_ids = tuple(channels)
        for channel_id in channel_ids:
            if self._capacities[channel_id] <= 0:
                raise LinkDownError(f"channel {channel_id!r} is down")
        flow = Flow(
            next(self._flow_ids),
            channel_ids,
            cap,
            size,
            self.engine.event(),
            self.engine.now,
            label,
        )
        if span is not None and self._spans:
            flow.span = span
        if size == 0:
            flow.finish_time = self.engine.now
            flow.done.succeed(flow)
            return flow
        self._advance_to_now()
        self._active[flow.flow_id] = flow
        self._resolve_and_schedule()
        return flow

    def _advance_to_now(self) -> None:
        now = self.engine.now
        dt = now - self._last_update
        if dt < 0:
            raise SimulationError("flow network clock went backwards")
        if dt > 0:
            for flow in self._active.values():
                if flow.span is not None:
                    flow.span.account(
                        self._last_update, dt, flow.rate, flow.blame_key
                    )
                flow.remaining -= flow.rate * dt
        self._last_update = now

    def _resolve_and_schedule(self) -> None:
        # An alarm due at this very instant stays queued: it re-arms
        # from fresh state when it fires (same rule as FlowNetwork).
        keep_alarm = False
        if self._alarm is not None:
            if self._alarm_at == self.engine.now:
                keep_alarm = True
            else:
                self._alarm.cancel()
                self._alarm = None
        active = self._active
        if not active:
            return
        specs = [
            FlowSpec(flow.flow_id, flow.channels, flow.cap)
            for flow in active.values()
        ]
        bottlenecks: dict[Hashable, Hashable | None] = {}
        rates: dict[Hashable, float] = {}
        for component in reference_components(specs):
            rates.update(reference_fill(component, self._capacities, bottlenecks))
        for flow_id, rate in rates.items():
            flow = active[flow_id]
            if rate <= 0:
                raise SimulationError(f"flow {flow_id} starved (rate 0)")
            flow.rate = rate
            bottleneck = bottlenecks[flow_id]
            flow.blame_key = (
                f"cap:{flow.label or 'flow'}"
                if bottleneck is None
                else metric_name(bottleneck)
            )
        if keep_alarm:
            return
        next_completion = math.inf
        for flow in active.values():
            eta = flow.remaining / flow.rate
            if eta < next_completion:
                next_completion = eta
        next_completion = max(next_completion, 0.0)
        self._alarm = self.engine.schedule(
            next_completion, self._on_completion_alarm
        )
        self._alarm_at = self.engine.now + next_completion

    def _on_completion_alarm(self) -> None:
        self._alarm = None
        self._advance_to_now()
        finished = [
            flow
            for flow in self._active.values()
            if flow.remaining <= _EPSILON_BYTES * max(1.0, flow.size)
        ]
        for flow in finished:
            del self._active[flow.flow_id]
            flow.remaining = 0.0
            flow.rate = 0.0
            flow.finish_time = self.engine.now
        self._resolve_and_schedule()
        for flow in finished:
            flow.done.succeed(flow)


def run_workload(network_cls, capacities, flow_specs, capacity_changes=()):
    """Run one mixed workload; returns the full observable trace.

    ``network_cls(engine, spans=recorder)`` builds the network under
    test.
    ``flow_specs`` is a list of ``(channel_indices, size, delay, cap)``;
    ``capacity_changes`` of ``(at, channel_index, capacity)``.  The
    trace captures everything figure code could read: completion order
    with exact timestamps, per-flow elapsed/achieved_rate, every
    flow's span blame ledger (which channel or cap limited it, and
    for how long), and the final clock.
    """
    engine = SimEngine()
    recorder = SpanRecorder()
    net = network_cls(engine, spans=recorder)
    for index, capacity in enumerate(capacities):
        net.add_channel(f"ch{index}", capacity)
    completions = []
    flows = []

    def start(spec):
        channels, size, delay, cap = spec

        def proc():
            if delay:
                yield engine.timeout(delay)
            span = recorder.begin("flow", "xfer", start=engine.now)
            flow = net.transfer(
                [f"ch{c}" for c in channels], size, cap=cap, span=span
            )
            flows.append(flow)
            yield flow.done
            completions.append((flow.flow_id, engine.now))

        engine.process(proc())

    for spec in flow_specs:
        start(spec)
    for at, index, capacity in capacity_changes:
        engine.schedule(at, net.set_capacity, f"ch{index}", capacity)
    engine.run()
    return {
        "completions": completions,
        "elapsed": [flow.elapsed for flow in flows],
        "rates": [flow.achieved_rate for flow in flows],
        "blame": [(span.blame, span.intervals) for span in recorder.spans()],
        "final_time": engine.now,
    }
