"""Max-min fair rate allocation with per-flow caps ("water-filling").

Infinity Fabric links are modeled as independent directional channels
of fixed capacity.  Several flows may cross a channel simultaneously —
e.g. the eight CPU→GCD STREAM kernels of Fig. 5 each push a flow
through their NUMA domain's port — and the fabric arbitrates them
fairly.  We model that arbitration with the classic *progressive
filling* algorithm:

1. All unfrozen flows grow at the same rate.
2. The first constraint to bind — a channel reaching capacity or a
   flow reaching its own cap (SDMA engine limit, protocol-efficiency
   limit) — freezes the affected flows.
3. Repeat with the survivors until all flows are frozen.

The result is the unique max-min fair allocation.

Two entry points share one progressive-filling core:

- :func:`max_min_fair_rates` — the pure batch solve.  It decomposes
  the flow set into connected components (flows coupled transitively
  through shared channels) and levels each component independently;
  components are numerically independent, so this changes nothing
  semantically but bounds the work per component.
- :class:`FairshareSolver` — the incremental solver the fluid-flow
  network uses.  It keeps the component structure alive across flow
  arrivals and departures, so adding or removing one flow only
  re-levels the affected component instead of the whole system.
  Because both paths run the identical per-component core on
  identical component inputs, the incremental solution is
  *bit-identical* to the batch solution for the same flow set — a
  property the hypothesis churn tests pin.

The per-component core, :func:`_fill`, is one scalar loop for every
component size, and dirty-set replay resumes the same loop mid-solve.
It gives channels dense local ids and keeps per-channel counts of
unfrozen flows incrementally; since all unfrozen flows share one fill
level, a single running sum stands in for their rates.  Cap
constraints are leveled per distinct cap value: flows with equal caps
share one headroom, one freeze test and one clamp, so a round costs
one step per cap group, not per capped flow.  A fill that indexes no
bindable channel gives every flow its cap in closed form; it walks the
cap groups' rounds at once only for freeze reasons, and for a trace
only when a replay reads it (see :class:`_Trace`).  A lone flow takes
a closed-form fast path.
``tests/sim/flow_oracle.py`` holds an independent set-based reference
loop the core must match bitwise.

Channels that can never bind are left out of every fill.  One
predicate, :func:`_may_bind`, decides it: a channel with an uncapped
member may bind, and so may one whose capacity minus the sum of its
members' caps is not more than twice the saturation slack.  The batch
solve computes the predicate per component; :class:`FairshareSolver`
holds each channel's member-cap sum and uncapped count, updates them
on ``add_flow``, ``remove_flow`` and ``set_capacity``, and keeps the
resulting *bindable* set, so a fill (fresh, resumed or continued)
indexes only bindable channels.  Replay skips the fold and the
undercut and saturation checks for a dirty channel that is not
bindable now and never filled in the recorded solve; such a channel
still voids the round certificates it gave.  The solver takes any
hashable channel ids; :class:`~repro.sim.flow.FlowNetwork` hands it
dense ints, so solves hash ints rather than tuples.

The batch function is pure (no engine state), which lets the test
suite verify its invariants exhaustively with hypothesis:

- no channel is over capacity,
- no flow exceeds its cap,
- every flow is bottlenecked somewhere (work conservation).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Mapping, Sequence

from ..errors import SimulationError

ChannelId = Hashable

#: Components at least this large record a solve trace for dirty-set
#: re-leveling (smaller ones are cheaper to re-solve outright).
_DIRTY_THRESHOLD = 8

#: Consecutive replay failures (divergence at round 0) after which a
#: component stops recording solve traces.  Recording costs a sizable
#: fraction of a solve, and a component whose churn keeps landing on
#: its round-0 binding constraints can never replay — the trace is
#: pure overhead there.  While backed off, a probe trace is recorded
#: every :data:`_REPLAY_PROBE`-th solve so a regime change (churn
#: moving to lightly-loaded channels) re-enables replay.  The counters
#: depend only on the operation sequence, so backoff is deterministic
#: and — like tracing itself — invisible in the solved rates.
_REPLAY_BACKOFF = 4
_REPLAY_PROBE = 8

#: Relative slack for "channel is full" / "flow reached its cap".
_CHANNEL_SLACK = 1e-6
_CAP_SLACK = 1e-9

#: One cap group of a fill: the cap, the level at which it freezes, and
#: the indices of its unfrozen members in flow order.
_CapGroup = tuple[float, float, list[int]]


class _Trace:
    """Round-by-round record of one progressive-filling solve.

    Progressive filling is a deterministic sequence of *rounds*: each
    round raises every unfrozen flow by a common ``delta`` (the
    tightest constraint's headroom), marks saturated channels full and
    freezes their flows.  The trace captures exactly enough of that
    sequence to *replay* it against a perturbed problem:

    - ``deltas``: the per-round fill increments;
    - ``freeze_round``: the round each flow froze in;
    - ``full_round``: the first round each channel was marked full;
    - ``binding_channels`` / ``binding_caps``: per round, the
      constraints whose headroom *exactly equalled* ``delta`` — the
      certificates that the round's delta is reproduced bitwise when
      those constraints are untouched by a perturbation.

    Recording is pure observation: the solve performs identical
    IEEE-754 operations with or without a trace attached.

    A fill that indexes no channel does not write its rounds at once:
    it stores the inputs of its cap-group walk in ``deferred`` (the
    fill's own flow list, level and round), and :meth:`walk` appends
    the rounds when a replay first reads the trace.  A trace dropped
    unread (split, merge, re-level) is never walked.  The walk appends
    after any rounds already held, exactly where the fill would have
    written them, and a trace holds at most one deferred walk: a
    replay walks the trace before it continues or resumes the fill.
    """

    __slots__ = (
        "deltas",
        "freeze_round",
        "full_round",
        "binding_channels",
        "binding_caps",
        "deferred",
    )

    def __init__(self) -> None:
        self.deltas: list[float] = []
        self.freeze_round: dict[Hashable, int] = {}
        self.full_round: dict[ChannelId, int] = {}
        self.binding_channels: list[tuple[ChannelId, ...]] = []
        self.binding_caps: list[tuple[Hashable, ...]] = []
        self.deferred: "tuple[Sequence[FlowSpec], float, int] | None" = None

    def walk(self) -> None:
        """Append the deferred cap-group rounds, if any."""
        deferred = self.deferred
        if deferred is not None:
            self.deferred = None
            flows, level, round_index = deferred
            _walk_cap_groups(flows, None, self, level, round_index)


@dataclass(frozen=True)
class FlowSpec:
    """One flow's demand: the channels it crosses and its private cap.

    ``channels`` lists every directional channel the flow occupies
    (one per hop of its route).  ``cap`` bounds the flow's rate
    regardless of how much share the channels would give it —
    ``math.inf`` means unbounded.  A flow with no channels is rate-
    limited only by its cap (e.g. a purely local HBM copy whose cap is
    the achievable memory bandwidth).
    """

    flow_id: Hashable
    channels: tuple[ChannelId, ...]
    cap: float = math.inf

    def __post_init__(self) -> None:
        if not self.cap > 0:  # also rejects NaN
            raise SimulationError(
                f"flow {self.flow_id!r} cap must be positive, got {self.cap!r}"
            )


# ---------------------------------------------------------------------------
# Progressive-filling core (one connected component at a time)
# ---------------------------------------------------------------------------


def _saturation_level(capacity: float) -> float:
    """Residual at or below which a channel of ``capacity`` is full.

    An unbounded channel never saturates: its residual stays infinite,
    and ``inf <= slack * inf`` must not count as full.
    """
    if capacity == math.inf:
        return -math.inf
    return _CHANNEL_SLACK * capacity


def _may_bind(capacity: float, cap_sum: float, uncapped: int) -> bool:
    """Whether a channel can ever fill or bind (the pruning predicate).

    ``cap_sum`` is the sum of the caps of the channel's capped members
    and ``uncapped`` the number of its uncapped ones.  When the caps
    leave more than twice the saturation slack of the capacity unused,
    the residual stays above the slack and the fair share above the
    smallest member headroom (so above every round's delta) from level
    0 at full capacity, and hence from every later state of the fill
    too: leaving such a channel out of the rounds changes no result
    bit.  An uncapped member makes the headroom unbounded.
    """
    return bool(uncapped) or not capacity - cap_sum > 2.0 * _saturation_level(
        capacity
    )


def _bindable_channels(
    flows: Sequence[FlowSpec], capacities: Mapping[ChannelId, float]
) -> set[ChannelId]:
    """The channels of ``flows`` that :func:`_may_bind` keeps."""
    totals: dict[ChannelId, list] = {}
    for flow in flows:
        for channel in dict.fromkeys(flow.channels):  # a route may repeat one
            total = totals.get(channel)
            if total is None:
                total = totals[channel] = [0.0, 0]
            if flow.cap == math.inf:
                total[1] += 1
            else:
                total[0] += flow.cap
    return {
        channel
        for channel, (cap_sum, uncapped) in totals.items()
        if _may_bind(capacities[channel], cap_sum, uncapped)
    }


def _cap_groups(flows: Sequence[FlowSpec]) -> list[_CapGroup]:
    """The capped flows of a fill grouped by distinct cap value.

    Groups come in order of their first member and keep flow order
    inside.  A group's members share one headroom, one freeze test and
    one clamp, so each round of a fill computes them once per group.
    """
    by_cap: dict[float, list[int]] = {}
    for j, flow in enumerate(flows):
        cap = flow.cap
        if cap < math.inf:
            group = by_cap.get(cap)
            if group is None:
                by_cap[cap] = [j]
            else:
                group.append(j)
    return [(cap, cap - _CAP_SLACK * cap, group) for cap, group in by_cap.items()]


def _cap_headroom(groups: list[_CapGroup], level: float, delta: float) -> float:
    """``delta`` lowered to the smallest cap headroom at ``level``."""
    for cap, _, _ in groups:
        headroom = cap - level
        if headroom < delta:
            delta = headroom
    return delta


def _binding_caps(
    groups: list[_CapGroup], level: float, delta: float
) -> list[int]:
    """The flows whose cap headroom at ``level`` is exactly ``delta``.

    Distinct caps can tie on headroom once rounded; the tied groups
    then bind together, in flow order.
    """
    binding = [group for cap, _, group in groups if cap - level == delta]
    if len(binding) > 1:
        return sorted(j for group in binding for j in group)
    return binding[0] if binding else []


def _freeze_cap_groups(
    groups: list[_CapGroup], level: float, frozen: "list[bool] | None"
) -> tuple[list[_CapGroup], list[int], list[_CapGroup]]:
    """Split the cap groups at fill ``level`` into reached and live ones.

    A group freezes whole once the level is within the cap slack of its
    cap.  Returns the groups that reached their cap, the flows they
    freeze (in flow order, less the ones ``frozen`` marks as frozen by a
    channel this round) and the groups still live.
    """
    reached = []
    at_cap: list[int] = []
    still = []
    for entry in groups:
        cap, cap_at, group = entry
        if level < cap_at:
            still.append(entry)
            continue
        reached.append(entry)
        if frozen is not None:
            group = [j for j in group if not frozen[j]]
        if at_cap and group and group[0] < at_cap[-1]:
            at_cap = sorted(at_cap + group)  # keep flow order
        else:
            at_cap += group
    return reached, at_cap, still


def _walk_cap_groups(
    flows: Sequence[FlowSpec],
    bottlenecks: "dict[Hashable, ChannelId | None] | None",
    trace: "_Trace | None",
    level: float,
    round_index: int,
) -> None:
    """Record the rounds of a fill that indexes no channel.

    With no channel to fill, every round raises the level by the
    smallest cap headroom and freezes the groups at their cap; this
    walks those rounds over the cap groups alone, writing the trace
    and the (all ``None``) freeze reasons exactly as :func:`_fill`
    does.  The rates are the caps.
    """
    ids = [flow.flow_id for flow in flows]
    groups = _cap_groups(flows)
    while groups:
        delta = max(_cap_headroom(groups, level, math.inf), 0.0)
        if trace is not None:
            trace.deltas.append(delta)
            trace.binding_channels.append(())
            trace.binding_caps.append(
                tuple([ids[j] for j in _binding_caps(groups, level, delta)])
            )
        level += delta
        _, at_cap, groups = _freeze_cap_groups(groups, level, None)
        if not at_cap:
            raise SimulationError("progressive filling made no progress")
        frozen = [ids[j] for j in at_cap]
        if bottlenecks is not None:
            bottlenecks.update(dict.fromkeys(frozen))
        if trace is not None:
            trace.freeze_round.update(dict.fromkeys(frozen, round_index))
        round_index += 1


def _fill(
    flows: Sequence[FlowSpec],
    capacities: Mapping[ChannelId, float],
    bindable: "set[ChannelId]",
    bottlenecks: "dict[Hashable, ChannelId | None] | None" = None,
    trace: "_Trace | None" = None,
    residuals: "Mapping[ChannelId, float] | None" = None,
    level: float = 0.0,
    round_index: int = 0,
) -> dict[Hashable, float]:
    """Progressive filling over one component (the only filling loop).

    Every flow starts unfrozen at the shared fill ``level``; each round
    raises the level by the tightest headroom ``delta``, then freezes
    the flows of newly full channels and the flows at their caps.  All
    unfrozen flows receive the identical delta sequence, so one scalar
    fold stands in for every unfrozen rate.  Only the ``bindable``
    channels (those :func:`_may_bind` keeps) are indexed: the others
    can never fill or bind, from any state of the fill.  Indexed
    channels get dense local ids, and the per-channel count of unfrozen
    flows is decremented as flows freeze; ``live`` keeps the channels
    that still have some.  Capped flows are grouped by cap value, and
    ``groups`` keeps the groups with unfrozen members: a group freezes
    whole once the level is within the cap slack of its cap, and the
    clamp to the cap also reaches members a channel froze in the same
    round (they keep the channel's blame).

    When no channel is indexed, every flow freezes at its cap, so the
    rates are the caps in flow order (an uncapped flow is an error);
    the rounds are walked over the cap groups alone
    (:func:`_walk_cap_groups`).  With ``bottlenecks`` the walk runs at
    once.  With only a ``trace``, ``flows`` (a list the caller built for
    this fill and never changes), ``level`` and ``round_index`` are
    stored on it, and the walk waits for a replay to read the trace
    (:meth:`_Trace.walk`).  The loop below therefore always has a
    channel.

    A fresh solve starts from full capacities at level 0.0 in round 0.
    A resumed one (dirty-set replay) passes the reconstructed
    ``residuals`` of the flows' bindable channels, the level and the
    round.

    With ``bottlenecks`` (a dict to fill), each flow's freeze reason is
    recorded: the first channel in the flow's channel tuple that is
    full at its freeze round, or ``None`` when it froze at its own cap.
    With ``trace``, the rounds are appended for dirty-set replay.  Both
    only read solver state, so the rates are bit-identical either way.
    """
    n = len(flows)
    index: dict[ChannelId, int] = {}
    members: list[list[int]] = []
    flow_channels: list[list[int]] = []
    if bindable:  # an empty set means no channel to index, in O(1)
        for j, flow in enumerate(flows):
            own: list[int] = []
            for channel in flow.channels:
                if channel not in bindable:
                    continue
                c = index.get(channel)
                if c is None:
                    index[channel] = c = len(members)
                    members.append([j])
                    own.append(c)
                elif members[c][-1] != j:  # a route may repeat a channel
                    members[c].append(j)
                    own.append(c)
            flow_channels.append(own)
    if not members:
        # No channel can bind, so every flow freezes at its cap: the
        # rounds only need walking to record them.
        rates = {flow.flow_id: flow.cap for flow in flows}
        if math.inf in rates.values():
            unbounded = [repr(fid) for fid, cap in rates.items() if cap == math.inf]
            raise SimulationError(
                f"unconstrained flows (no channels and no cap): {sorted(unbounded)}"
            )
        if bottlenecks is not None:
            _walk_cap_groups(flows, bottlenecks, trace, level, round_index)
        elif trace is not None:
            # Only a replay reads the rounds: walk them when it does.
            trace.deferred = (flows, level, round_index)
        return rates
    channel_ids = list(index)
    capacity = [capacities[channel] for channel in channel_ids]
    if residuals is None:
        residual = capacity[:]
    else:
        residual = [residuals[channel] for channel in channel_ids]
    full_at = [_saturation_level(cap) for cap in capacity]
    count = [len(group) for group in members]
    live = list(range(len(members)))
    ids = [flow.flow_id for flow in flows]
    groups = _cap_groups(flows)
    rate = [level] * n
    frozen = [False] * n
    unfrozen = n

    while unfrozen:
        shares = [residual[c] / count[c] for c in live]
        delta = _cap_headroom(groups, level, min(shares) if live else math.inf)
        if delta == math.inf:
            unfrozen_ids = [repr(ids[j]) for j in range(n) if not frozen[j]]
            raise SimulationError(
                f"unconstrained flows (no channels and no cap): {sorted(unfrozen_ids)}"
            )
        delta = max(delta, 0.0)

        if trace is not None:
            trace.deltas.append(delta)
            trace.binding_channels.append(
                tuple(
                    [channel_ids[c] for c, share in zip(live, shares) if share == delta]
                )
            )
            trace.binding_caps.append(
                tuple([ids[j] for j in _binding_caps(groups, level, delta)])
            )

        level += delta
        full: list[int] = []
        for c in live:
            left = residual[c] = residual[c] - delta * count[c]
            if left <= full_at[c]:
                full.append(c)
        frozen_now: list[int] = []
        for c in full:
            # An unfrozen flow's channels all count it, so a zero count
            # on its route marks a channel that filled this round.
            count[c] = 0
        for c in full:
            for j in members[c]:
                if frozen[j]:
                    continue
                frozen[j] = True
                frozen_now.append(j)
                rate[j] = level
                if bottlenecks is not None:
                    # Blame the first full channel of the route.
                    for own in flow_channels[j]:
                        if not count[own]:
                            bottlenecks[ids[j]] = channel_ids[own]
                            break
        # The clamp to the cap also reaches the members a channel froze
        # this round; they keep its blame.
        reached, at_cap, still = _freeze_cap_groups(
            groups, level, frozen if frozen_now else None
        )
        for cap, _, group in reached:
            for j in group:
                rate[j] = cap
        if at_cap:
            for j in at_cap:
                frozen[j] = True
            if bottlenecks is not None:
                bottlenecks.update(dict.fromkeys([ids[j] for j in at_cap]))
        if frozen_now and still:
            # Drop the flows a channel froze from the groups still live.
            for _, _, group in still:
                group[:] = [j for j in group if not frozen[j]]
            still = [entry for entry in still if entry[2]]
        groups = still
        frozen_now += at_cap
        if not frozen_now:
            raise SimulationError("progressive filling made no progress")
        if trace is not None:
            for c in full:
                trace.full_round.setdefault(channel_ids[c], round_index)
            trace.freeze_round.update(
                dict.fromkeys([ids[j] for j in frozen_now], round_index)
            )
        unfrozen -= len(frozen_now)
        for j in frozen_now:
            for c in flow_channels[j]:
                if count[c]:
                    count[c] -= 1
        live = [c for c in live if count[c]]
        round_index += 1

    return dict(zip(ids, rate))


def _solve_component(
    flows: Sequence[FlowSpec],
    capacities: Mapping[ChannelId, float],
    bottlenecks: "dict[Hashable, ChannelId | None] | None" = None,
    trace: "_Trace | None" = None,
    bindable: "set[ChannelId] | None" = None,
) -> dict[Hashable, float]:
    """Level one connected component (a lone flow takes a fast path).

    ``bindable`` must hold every channel of the component that
    :func:`_may_bind` keeps; the incremental solver passes its set for
    all channels, and without one the set is computed from ``flows``.
    """
    if not flows:
        return {}
    if len(flows) > 1:
        if bindable is None:
            bindable = _bindable_channels(flows, capacities)
        return _fill(flows, capacities, bindable, bottlenecks, trace)
    # Fast path: a lone flow takes min(cap, narrowest channel).
    flow = flows[0]
    best = flow.cap
    for channel in flow.channels:
        capacity = capacities[channel]
        if capacity < best:
            best = capacity
    if best == math.inf:
        raise SimulationError(
            "unconstrained flows (no channels and no cap): "
            f"{[repr(flow.flow_id)]}"
        )
    if bottlenecks is not None:
        # Mirror the filling loop's freeze conditions: blame the first
        # channel with no slack above the allocation; a flow with slack
        # everywhere froze at its own cap.
        bottleneck: ChannelId | None = None
        for channel in flow.channels:
            capacity = capacities[channel]
            if capacity - best <= _saturation_level(capacity):
                bottleneck = channel
                break
        bottlenecks[flow.flow_id] = bottleneck
    cap = flow.cap
    if best < cap and best >= cap - _CAP_SLACK * cap:
        # The filling loop's clamp: a channel that freezes the flow
        # within the cap slack of its cap leaves it at the cap.
        best = cap
    return {flow.flow_id: best}


def _connected_components(
    flows: Sequence[FlowSpec],
) -> list[list[FlowSpec]]:
    """Partition flows into maximal sets coupled through shared channels.

    Order is deterministic: components appear in order of their first
    flow, and flows keep their input order within a component.
    """
    parent: dict[int, int] = {i: i for i in range(len(flows))}

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    first_on_channel: dict[ChannelId, int] = {}
    for i, flow in enumerate(flows):
        for channel in flow.channels:
            j = first_on_channel.setdefault(channel, i)
            if j != i:
                parent[find(i)] = find(j)

    grouped: dict[int, list[FlowSpec]] = {}
    for i, flow in enumerate(flows):
        grouped.setdefault(find(i), []).append(flow)
    return list(grouped.values())


def _validate_problem(
    flows: Sequence[FlowSpec],
    capacities: Mapping[ChannelId, float],
) -> None:
    ids = [f.flow_id for f in flows]
    if len(set(ids)) != len(ids):
        raise SimulationError("duplicate flow ids in fair-share problem")
    for flow in flows:
        for channel in flow.channels:
            if channel not in capacities:
                raise SimulationError(
                    f"flow {flow.flow_id!r} uses unknown channel {channel!r}"
                )
    # Only channels actually carrying flows must have positive capacity:
    # a failed link (capacity 0) may sit in the inventory as long as all
    # traffic has been failed over or rerouted off it first.
    referenced = {channel for flow in flows for channel in flow.channels}
    for channel in referenced:
        capacity = capacities[channel]
        if not capacity > 0:  # also rejects NaN
            raise SimulationError(
                f"channel {channel!r} capacity must be positive, got {capacity!r}"
            )


def max_min_fair_rates(
    flows: Sequence[FlowSpec],
    capacities: Mapping[ChannelId, float],
    bottlenecks: "dict[Hashable, ChannelId | None] | None" = None,
) -> dict[Hashable, float]:
    """Solve the max-min fair allocation (batch).

    Parameters
    ----------
    flows:
        Flow demands.  Flow ids must be unique.
    capacities:
        Capacity (bytes/s) of every channel referenced by a flow.
    bottlenecks:
        Optional dict filled with each flow's freeze reason: the first
        channel of the flow's tuple that was saturated when the flow
        froze, or ``None`` when it froze at its own cap.

    Returns
    -------
    dict mapping flow id to its allocated rate.

    Raises
    ------
    SimulationError
        On duplicate flow ids, unknown channels, or non-positive
        capacities.
    """
    if not flows:
        return {}
    _validate_problem(flows, capacities)

    rates: dict[Hashable, float] = {}
    for component in _connected_components(flows):
        rates.update(_solve_component(component, capacities, bottlenecks))
    # Preserve input order in the result for deterministic iteration.
    return {f.flow_id: rates[f.flow_id] for f in flows}


# ---------------------------------------------------------------------------
# Incremental solver
# ---------------------------------------------------------------------------


@dataclass
class SolverStats:
    """Work counters of a :class:`FairshareSolver` (for ``Session.stats``).

    Counters accumulate over the solver's lifetime.  Callers that want
    per-run numbers (``Session.stats()``, ``repro perf``) call
    :meth:`reset` at run boundaries — see ``Session.run``.
    """

    flows_added: int = 0
    flows_removed: int = 0
    component_solves: int = 0
    flows_releveled: int = 0
    #: Largest component re-leveled by a full solve or a replay that
    #: resumed the fill.  A replay that certifies every round (and
    #: continues over the added flows only) does not update it, so a
    #: component that only grows through such replays is not counted.
    largest_component: int = 0
    capacity_changes: int = 0
    #: Churn operations absorbed by dirty-set replay (no full solve).
    dirty_relevels: int = 0
    #: Frontier flows re-solved by dirty-set suffix solves.
    frontier_releveled: int = 0
    #: Recorded rounds replayed (certified unchanged) across dirty ops.
    replay_rounds: int = 0
    #: Solves that skipped trace recording under replay backoff.
    trace_skips: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict rendering for reports and BENCH json."""
        return {
            "flows_added": self.flows_added,
            "flows_removed": self.flows_removed,
            "component_solves": self.component_solves,
            "flows_releveled": self.flows_releveled,
            "largest_component": self.largest_component,
            "capacity_changes": self.capacity_changes,
            "dirty_relevels": self.dirty_relevels,
            "frontier_releveled": self.frontier_releveled,
            "replay_rounds": self.replay_rounds,
            "trace_skips": self.trace_skips,
        }

    def reset(self) -> None:
        """Zero every counter (run boundary for per-run reporting)."""
        for name in self.as_dict():
            setattr(self, name, 0)

    def publish(self, metrics: "Any") -> None:
        """Mirror the counters into a metrics registry (no-op if disabled).

        Writes absolute values (the stats are cumulative since the last
        :meth:`reset`), so publishing repeatedly is idempotent.
        """
        if not metrics:
            return
        for name, value in self.as_dict().items():
            if name == "largest_component":
                metrics.gauge(f"solver/{name}").set(value)
            else:
                metrics.counter(f"solver/{name}").value = value


class FairshareSolver:
    """Incremental max-min fair solver over a fixed channel inventory.

    The solver owns the constraint state — channel capacities, live
    flows, per-channel membership, and the connected-component
    partition — and keeps the allocation of every live flow cached.
    :meth:`add_flow` merges the components the new flow touches and
    re-levels only that merged component; :meth:`remove_flow` splits
    the departed flow's component back into its maximal pieces and
    re-levels each.  Untouched components keep their cached rates, so
    churn cost scales with coupling, not system size.

    Invariant: after any sequence of add/remove operations,
    :meth:`rates` equals ``max_min_fair_rates(live_flows, capacities)``
    bit-for-bit (both level identical components with the identical
    core).

    The solver also keeps, per component, a :class:`_Trace` of its last
    solve and *replays* it on churn: recorded rounds whose binding
    constraints are untouched by the change are certified unchanged
    (the clean flows keep their cached rates bitwise), and the solve
    resumes generically only from the first round the change can
    influence — re-leveling the *frontier* of flows at or above the
    perturbed fill level instead of the whole component.  Because certified rounds reproduce the exact IEEE-754
    state the full per-component core would reach, the dirty-set result
    is bit-identical to a full re-solve (differential-tested).
    """

    def __init__(
        self,
        capacities: Mapping[ChannelId, float] | None = None,
        *,
        track_bottlenecks: bool = False,
    ) -> None:
        self._capacities: dict[ChannelId, float] = {}
        self._flows: dict[Hashable, FlowSpec] = {}
        self._rates: dict[Hashable, float] = {}
        self._members: dict[ChannelId, set[Hashable]] = {}
        # Per occupied channel: the sum of its capped members' caps and
        # the count of its uncapped members, and from them the set of
        # channels that may bind (see _may_bind).  Fills index only
        # bindable channels; replays skip the other dirty ones unless
        # they filled in the recorded solve.
        self._cap_sums: dict[ChannelId, float] = {}
        self._uncapped: dict[ChannelId, int] = {}
        self._bindable: set[ChannelId] = set()
        self._component_of: dict[Hashable, int] = {}
        # Component membership as insertion-ordered id sets (dict keys):
        # O(1) add/discard keeps churn bookkeeping O(affected), not
        # O(component).
        self._components: dict[int, dict[Hashable, None]] = {}
        self._component_ids = itertools.count()
        self._track_bottlenecks = bool(track_bottlenecks)
        self._bottlenecks: dict[Hashable, ChannelId | None] = {}
        self._traces: dict[int, _Trace] = {}
        #: Per component: consecutive replays that diverged at round 0
        #: (see :data:`_REPLAY_BACKOFF`); reset on any replay success.
        self._replay_failures: dict[int, int] = {}
        self.stats = SolverStats()
        if capacities:
            for channel, capacity in capacities.items():
                self.add_channel(channel, capacity)

    # -- channel inventory ---------------------------------------------------

    def add_channel(self, channel: ChannelId, capacity: float) -> None:
        """Register a channel; duplicate ids or bad capacities raise."""
        if channel in self._capacities:
            raise SimulationError(f"channel {channel!r} already exists")
        if not capacity > 0:  # also rejects NaN
            raise SimulationError(
                f"channel {channel!r} capacity must be positive, got {capacity!r}"
            )
        self._capacities[channel] = capacity

    def adopt_capacities(self, capacities: Mapping[ChannelId, float]) -> None:
        """Take a whole validated channel inventory in one step.

        ``capacities`` is a read-only view built once and shared (see
        :class:`~repro.sim.flow.ChannelTable`); the solver keeps its own
        copy, which :meth:`set_capacity` may change.  Only a solver
        without channels adopts.
        """
        if self._capacities:
            raise SimulationError("only a solver without channels adopts capacities")
        self._capacities = dict(capacities)

    def set_capacity(
        self, channel: ChannelId, capacity: float
    ) -> dict[Hashable, float]:
        """Change a channel's capacity; re-levels the affected component.

        Every flow crossing the channel belongs (by definition) to one
        connected component; that component is re-leveled with the same
        per-component core as :meth:`add_flow`/:meth:`remove_flow`, so
        the post-change allocation is bit-identical to tearing down and
        re-adding every flow under the new capacity.  Returns the
        re-leveled rates (empty when no flow crosses the channel).

        Capacity 0 models a failed link and is only accepted while the
        channel is empty: progressive filling would freeze crossing
        flows at rate 0, which the flow network treats as starvation —
        fail or reroute them *before* zeroing the capacity.
        """
        if channel not in self._capacities:
            raise SimulationError(f"unknown channel {channel!r}")
        if not capacity >= 0:  # also rejects NaN
            raise SimulationError(
                f"channel {channel!r} capacity must be non-negative, got {capacity!r}"
            )
        members = self._members.get(channel)
        if capacity == 0 and members:
            raise SimulationError(
                f"channel {channel!r} cannot drop to zero capacity with "
                f"{len(members)} live flows; fail or reroute them first"
            )
        if capacity == self._capacities[channel]:
            return {}
        self._capacities[channel] = capacity
        self.stats.capacity_changes += 1
        if not members:
            return {}
        self._classify(channel)
        comp = self._component_of[next(iter(members))]
        flow_ids = self._components[comp]
        solved = self._replay(comp, flow_ids, comp, (channel,), (), frozenset())
        if solved is not None:
            return solved
        return self._relevel(flow_ids, comp)

    def _classify(self, channel: ChannelId) -> None:
        """Put an occupied channel in or out of the bindable set."""
        if _may_bind(
            self._capacities[channel],
            self._cap_sums[channel],
            self._uncapped[channel],
        ):
            self._bindable.add(channel)
        else:
            self._bindable.discard(channel)

    def has_channel(self, channel: ChannelId) -> bool:
        """Whether a channel id is registered."""
        return channel in self._capacities

    def capacities(self) -> dict[ChannelId, float]:
        """``{channel id: capacity}`` snapshot."""
        return dict(self._capacities)

    # -- flow churn ----------------------------------------------------------

    def add_flow(self, spec: FlowSpec) -> dict[Hashable, float]:
        """Admit a flow; re-levels and returns the rates of its component."""
        if spec.flow_id in self._flows:
            raise SimulationError(f"duplicate flow id {spec.flow_id!r}")
        for channel in spec.channels:
            if channel not in self._capacities:
                raise SimulationError(
                    f"flow {spec.flow_id!r} uses unknown channel {channel!r}"
                )
        if not spec.channels and spec.cap == math.inf:
            raise SimulationError(
                "unconstrained flows (no channels and no cap): "
                f"{[repr(spec.flow_id)]}"
            )

        # All members of one channel share one component by definition,
        # so a single representative per channel finds every touched
        # component in O(channels), not O(degree).
        touched: list[int] = []
        seen: set[int] = set()
        for channel in spec.channels:
            group = self._members.get(channel)
            if group:
                comp = self._component_of[next(iter(group))]
                if comp not in seen:
                    seen.add(comp)
                    touched.append(comp)

        flow_id = spec.flow_id
        cap = spec.cap
        self._flows[flow_id] = spec
        for channel in spec.channels:
            group = self._members.get(channel)
            if group is None:
                self._members[channel] = {flow_id}
                self._cap_sums[channel] = 0.0
                self._uncapped[channel] = 0
            elif flow_id in group:
                continue  # a route may repeat a channel
            else:
                group.add(flow_id)
            if cap == math.inf:
                self._uncapped[channel] += 1
            else:
                self._cap_sums[channel] += cap
            self._classify(channel)
        self.stats.flows_added += 1

        if len(touched) == 1:
            # The flow joined exactly one component: keep its id (no
            # relabeling) and replay its trace with the new flow's
            # channels as the dirty set.
            comp = touched[0]
            members = self._components[comp]
            members[spec.flow_id] = None
            self._component_of[spec.flow_id] = comp
            solved = self._replay(
                comp, members, comp, spec.channels, (spec,), frozenset()
            )
            if solved is not None:
                return solved
            return self._relevel(members, comp)

        # A merge (or a fresh singleton): absorb the smaller components
        # into the largest (weighted union, O(smaller)) and solve
        # outright — no single parent trace matches the merged problem.
        if touched:
            comp = max(touched, key=lambda c: len(self._components[c]))
            merged = self._components[comp]
            for other in touched:
                self._traces.pop(other, None)
                self._replay_failures.pop(other, None)
                if other == comp:
                    continue
                for flow_id in self._components.pop(other):
                    merged[flow_id] = None
                    self._component_of[flow_id] = comp
        else:
            comp = next(self._component_ids)
            merged = self._components[comp] = {}
        merged[spec.flow_id] = None
        self._component_of[spec.flow_id] = comp
        return self._relevel(merged, comp)

    def remove_flow(self, flow_id: Hashable) -> dict[Hashable, float]:
        """Retire a flow; re-levels and returns the rates of the remainder."""
        spec = self._flows.pop(flow_id, None)
        if spec is None:
            raise SimulationError(f"unknown flow id {flow_id!r}")
        self._rates.pop(flow_id, None)
        self._bottlenecks.pop(flow_id, None)
        occupied: list[ChannelId] = []
        seen_channels: set[ChannelId] = set()
        for channel in spec.channels:
            if channel in seen_channels:
                continue
            seen_channels.add(channel)
            group = self._members.get(channel)
            if group is not None:
                group.discard(flow_id)
                if not group:
                    del self._members[channel]
                    del self._cap_sums[channel]
                    del self._uncapped[channel]
                    self._bindable.discard(channel)
                    continue
                occupied.append(channel)
                if spec.cap == math.inf:
                    self._uncapped[channel] -= 1
                else:
                    # Re-add rather than subtract: a running difference
                    # could keep the rounding of caps long gone.
                    self._cap_sums[channel] = math.fsum(
                        cap
                        for cap in (self._flows[m].cap for m in group)
                        if cap != math.inf
                    )
                self._classify(channel)

        comp = self._component_of.pop(flow_id)
        comp_members = self._components[comp]
        del comp_members[flow_id]
        self.stats.flows_removed += 1
        if not comp_members:
            del self._components[comp]
            self._traces.pop(comp, None)
            self._replay_failures.pop(comp, None)
            return {}

        # Removal can only disconnect the component if the departed
        # flow bridged two of its (still occupied) channels and no
        # other flow carries that bridge.  A leaf flow (≤1 occupied
        # channel) or a common carrier crossing all of them proves
        # connectivity in O(degree) — skipping the component scan.
        preserved = len(occupied) <= 1
        if not preserved:
            members = self._members
            smallest = min(occupied, key=lambda channel: len(members[channel]))
            for candidate in members[smallest]:
                channels = self._flows[candidate].channels
                if all(channel in channels for channel in occupied):
                    preserved = True
                    break
        if not preserved:
            pieces = self._split_components(comp_members, occupied)
            if len(pieces) > 1:
                del self._components[comp]
                self._traces.pop(comp, None)
                self._replay_failures.pop(comp, None)
                updated: dict[Hashable, float] = {}
                for piece in pieces:
                    piece_comp = next(self._component_ids)
                    self._components[piece_comp] = dict.fromkeys(piece)
                    for member in piece:
                        self._component_of[member] = piece_comp
                    updated.update(self._relevel(piece, piece_comp))
                return updated

        # The component stayed connected: keep its id and replay its
        # trace with the departed flow's channels dirty.
        solved = self._replay(
            comp, comp_members, comp, spec.channels, (), {flow_id}
        )
        if solved is not None:
            return solved
        return self._relevel(comp_members, comp)

    def _split_components(
        self, flow_ids: Iterable[Hashable], seeds: Sequence[ChannelId]
    ) -> list[list[Hashable]]:
        """Maximal connected pieces of a former component's remainder.

        ``seeds`` are the departed flow's still-occupied channels, and
        every remaining flow is connected to one of them.  One search
        starts from each seed, and the searches scan one channel at a
        time in turn; two that reach the same channel merge.  A search
        that runs out of channels has found a whole detached piece.
        Once one search is left, the rest of the component is its
        piece, unexplored, so a split costs the detached pieces rather
        than the whole component.  Pieces come in ``flow_ids`` order of
        their first member and keep that order inside (the order one
        search over the whole remainder gives).
        """
        members = self._members
        flows = self._flows
        owner = {channel: index for index, channel in enumerate(seeds)}
        parent = list(range(len(seeds)))
        stacks = [[channel] for channel in seeds]
        found: list[list[Hashable]] = [[] for _ in seeds]
        seen: set[Hashable] = set()
        detached: list[list[Hashable]] = []
        live = list(parent)
        while len(live) > 1:
            still_live = []
            for index in live:
                if parent[index] != index:
                    continue  # merged into another search
                stack = stacks[index]
                if not stack:
                    detached.append(found[index])
                    continue
                still_live.append(index)
                piece = found[index]
                for flow_id in members[stack.pop()]:
                    if flow_id in seen:
                        continue
                    seen.add(flow_id)
                    piece.append(flow_id)
                    for channel in flows[flow_id].channels:
                        other = owner.get(channel)
                        if other is None:
                            owner[channel] = index
                            stack.append(channel)
                            continue
                        while parent[other] != other:
                            other = parent[other]
                        if other != index:
                            parent[other] = index
                            stack.extend(stacks[other])
                            piece.extend(found[other])
                            stacks[other] = found[other] = []
            live = still_live
        if not detached:
            return [list(flow_ids)]
        piece_of = {
            flow_id: number
            for number, piece in enumerate(detached)
            for flow_id in piece
        }
        pieces: dict[int, list[Hashable]] = {}
        for flow_id in flow_ids:
            pieces.setdefault(piece_of.get(flow_id, -1), []).append(flow_id)
        return list(pieces.values())

    def _relevel(
        self, flow_ids: Iterable[Hashable], comp_id: int
    ) -> dict[Hashable, float]:
        component = [self._flows[f] for f in flow_ids]
        trace: _Trace | None = None
        if len(component) >= _DIRTY_THRESHOLD:
            failures = self._replay_failures.get(comp_id, 0)
            if failures < _REPLAY_BACKOFF:
                trace = _Trace()
            else:
                # Backed off: replay keeps diverging at round 0 for
                # this component, so solve without the recording
                # overhead.  Advance the probe clock and record one
                # trace per period to detect a regime change.
                self._replay_failures[comp_id] = failures + 1
                if (
                    failures - _REPLAY_BACKOFF
                ) % _REPLAY_PROBE == _REPLAY_PROBE - 1:
                    trace = _Trace()
                else:
                    self.stats.trace_skips += 1
        bottlenecks = self._bottlenecks if self._track_bottlenecks else None
        solved = _solve_component(
            component, self._capacities, bottlenecks, trace, self._bindable
        )
        if trace is not None:
            self._traces[comp_id] = trace
        else:
            self._traces.pop(comp_id, None)
        self._rates.update(solved)
        self.stats.component_solves += 1
        self.stats.flows_releveled += len(component)
        if len(component) > self.stats.largest_component:
            self.stats.largest_component = len(component)
        return solved

    # -- dirty-set replay ----------------------------------------------------

    def _replay(
        self,
        old_comp: int,
        flow_ids: "dict[Hashable, None] | Sequence[Hashable]",
        store_comp: int,
        dirty_channels: Sequence[ChannelId],
        added: Sequence[FlowSpec],
        removed_ids: "set[Hashable] | frozenset",
    ) -> "dict[Hashable, float] | None":
        """Replay a component's recorded solve against a perturbation.

        Walks the trace of the component's last solve round by round.
        A round survives when (a) one of its recorded *binding*
        constraints is untouched by the change — certifying the round's
        delta bitwise — (b) no dirty channel or added-flow cap
        undercuts that delta, and (c) every dirty channel's saturation
        matches the recording.  Clean flows frozen in surviving rounds
        keep their cached rates and bottlenecks without any arithmetic.
        At the first round the change can influence, the exact solver
        state is reconstructed (folding the certified deltas, which
        reproduces the core's accumulation order bitwise) and
        progressive filling resumes generically over the *frontier* —
        the flows still unfrozen at that round.

        Returns the rates of every flow whose allocation was (re)solved
        — added flows plus the frontier — or ``None`` when no trace is
        available (caller falls back to a full re-level).  Structural
        state (``_flows``/``_members``/``_components``) must already
        reflect the perturbation.
        """
        trace = self._traces.pop(old_comp, None)
        if trace is None:
            return None
        trace.walk()

        capacities = self._capacities
        deltas = trace.deltas
        nrounds = len(deltas)
        freeze_round = trace.freeze_round
        full_round = trace.full_round

        # Every dirty channel voids the certificates it gave (a), but
        # only those in the deterministically ordered ``dirty_list`` are
        # folded and checked (b, c).  A dirty channel that cannot bind
        # now and never filled in the recorded solve (so never bound in
        # it) passes (b) and (c) in every round; it is left out, and so
        # are its residuals, which no later fill indexes.
        bindable = self._bindable
        dirty_list: list[ChannelId] = []
        dirty_set: set[ChannelId] = set()
        for channel in dirty_channels:
            if channel not in dirty_set:
                dirty_set.add(channel)
                if channel in bindable or channel in full_round:
                    dirty_list.append(channel)

        a_spec: dict[Hashable, FlowSpec] = {f.flow_id: f for f in added}
        a_rate: dict[Hashable, float] = {f.flow_id: 0.0 for f in added}
        a_frozen: dict[Hashable, int] = {}
        a_bottleneck: dict[Hashable, "ChannelId | None"] = {}

        # Per dirty channel: residual fold state, the sorted freeze
        # rounds of its clean members (for O(1) active counts as the
        # round index advances), and its unfrozen added members.
        dres: dict[ChannelId, float] = {}
        dfull: dict[ChannelId, int] = {}
        clean_rounds: dict[ChannelId, list[int]] = {}
        ptr: dict[ChannelId, int] = {}
        added_on: dict[ChannelId, list[Hashable]] = {}
        for channel in dirty_list:
            dres[channel] = capacities[channel]
            rounds = [
                freeze_round[m]
                for m in self._members.get(channel, ())
                if m not in a_spec
            ]
            rounds.sort()
            clean_rounds[channel] = rounds
            ptr[channel] = 0
            added_on[channel] = [
                f.flow_id for f in added if channel in f.channels
            ]

        diverged = -1
        r = 0
        while r < nrounds:
            delta = deltas[r]
            # (a) certificate: an untouched constraint binds this round.
            orig_bch = trace.binding_channels[r]
            orig_bcap = trace.binding_caps[r]
            certified = False
            for channel in orig_bch:
                if channel not in dirty_set:
                    certified = True
                    break
            if not certified:
                for fid in orig_bcap:
                    if fid not in removed_ids:
                        certified = True
                        break
            if not certified:
                diverged = r
                break

            # (b) dirty terms must not undercut the certified delta.
            counts: dict[ChannelId, int] = {}
            dirty_binding: list[ChannelId] = []
            undercut = False
            for channel in dirty_list:
                if channel in dfull:
                    continue
                rounds = clean_rounds[channel]
                p = ptr[channel]
                while p < len(rounds) and rounds[p] < r:
                    p += 1
                ptr[channel] = p
                count = len(rounds) - p
                for fid in added_on[channel]:
                    if fid not in a_frozen:
                        count += 1
                if count == 0:
                    continue
                counts[channel] = count
                term = dres[channel] / count
                if term < delta:
                    undercut = True
                    break
                if term == delta:
                    dirty_binding.append(channel)
            if undercut:
                diverged = r
                break
            added_binding: list[Hashable] = []
            for fid, spec in a_spec.items():
                if fid in a_frozen or spec.cap == math.inf:
                    continue
                term = spec.cap - a_rate[fid]
                if term < delta:
                    undercut = True
                    break
                if term == delta:
                    added_binding.append(fid)
            if undercut:
                diverged = r
                break

            # (c) dirty saturation must match the recording, tested on
            # the residuals the certified delta would leave: a mismatch
            # diverges with the dirty state still at round start.
            newly_full: list[ChannelId] = []
            mismatch = False
            for channel in dirty_list:
                if channel in dfull:
                    continue
                residual = dres[channel]
                count = counts.get(channel)
                if count is not None:
                    residual -= delta * count
                now_full = residual <= _saturation_level(capacities[channel])
                if now_full != (full_round.get(channel) == r):
                    mismatch = True
                    break
                if now_full:
                    newly_full.append(channel)
            if mismatch:
                diverged = r
                break
            for channel, count in counts.items():
                dres[channel] -= delta * count
            for fid in a_spec:
                if fid not in a_frozen:
                    a_rate[fid] += delta
            for channel in newly_full:
                dfull[channel] = r

            # Freeze added flows exactly as the core would: channel
            # attribution first, cap clamp second (clamping also the
            # channel-frozen, without stealing their attribution).
            for fid, spec in a_spec.items():
                if fid in a_frozen:
                    continue
                bottleneck: ChannelId | None = None
                for channel in spec.channels:
                    if channel in dfull:
                        bottleneck = channel
                        break
                cap = spec.cap
                capped = cap != math.inf and a_rate[fid] >= cap - _CAP_SLACK * cap
                if bottleneck is not None:
                    a_frozen[fid] = r
                    a_bottleneck[fid] = bottleneck
                    if capped:
                        a_rate[fid] = cap
                elif capped:
                    a_frozen[fid] = r
                    a_bottleneck[fid] = None
                    a_rate[fid] = cap

            # Patch this round's binding record in place if the dirty
            # set touched it (stale equalities would mis-certify later
            # replays; untouched rounds keep their tuples allocation-free).
            rebuilt_bch = dirty_binding or not dirty_set.isdisjoint(orig_bch)
            if rebuilt_bch:
                trace.binding_channels[r] = tuple(
                    [c for c in orig_bch if c not in dirty_set] + dirty_binding
                )
            rebuilt_bcap = added_binding or (
                removed_ids and not removed_ids.isdisjoint(orig_bcap)
            )
            if rebuilt_bcap:
                if removed_ids:
                    orig_bcap = tuple(
                        [f for f in orig_bcap if f not in removed_ids]
                    )
                trace.binding_caps[r] = orig_bcap + tuple(added_binding)
            r += 1

        if diverged < 0:
            self._replay_failures.pop(store_comp, None)
            return self._replay_commit(
                trace, store_comp, dirty_list, dfull, dres, a_spec, a_rate,
                a_frozen, a_bottleneck, removed_ids, nrounds,
            )
        if diverged == 0:
            # Nothing certified: the frontier is the whole component, so
            # resuming would only redo a full solve with more bookkeeping.
            self._replay_failures[store_comp] = (
                self._replay_failures.get(store_comp, 0) + 1
            )
            return None
        self._replay_failures.pop(store_comp, None)
        return self._replay_resume(
            trace, flow_ids, store_comp, dirty_set, dfull, dres,
            a_spec, a_rate, a_frozen, a_bottleneck, removed_ids, diverged,
        )

    def _replay_commit(
        self,
        trace: _Trace,
        store_comp: int,
        dirty_list: "list[ChannelId]",
        dfull: "dict[ChannelId, int]",
        dres: "dict[ChannelId, float]",
        a_spec: "dict[Hashable, FlowSpec]",
        a_rate: "dict[Hashable, float]",
        a_frozen: "dict[Hashable, int]",
        a_bottleneck: "dict[Hashable, ChannelId | None]",
        removed_ids: "set[Hashable] | frozenset",
        nrounds: int,
    ) -> dict[Hashable, float]:
        """Finish a fully-certified replay: continuation + bookkeeping.

        Every recorded round survived, so only added flows can still be
        unfrozen; progressive filling continues over them and their
        (dirty) channels alone — the exact rounds a full solve would
        append, since every original constraint is exhausted.
        """
        # Fix up the trace in place for the perturbed component; the
        # continuation appends its own rounds.
        if removed_ids:
            for fid in removed_ids:
                trace.freeze_round.pop(fid, None)
        trace.freeze_round.update(a_frozen)
        for channel in dirty_list:
            trace.full_round.pop(channel, None)
        trace.full_round.update(dfull)
        self._traces[store_comp] = trace

        updated = dict(a_rate)
        if self._track_bottlenecks:
            for fid in a_frozen:
                self._bottlenecks[fid] = a_bottleneck[fid]
        pending = [spec for fid, spec in a_spec.items() if fid not in a_frozen]
        if pending:
            # Unfrozen added flows all hold the fold of every recorded
            # delta; residuals of their channels are the dirty ones.
            bottlenecks = self._bottlenecks if self._track_bottlenecks else None
            level = a_rate[pending[0].flow_id]
            updated.update(
                _fill(
                    pending, self._capacities, self._bindable, bottlenecks,
                    trace, dres, level, nrounds,
                )
            )
        self._rates.update(updated)
        stats = self.stats
        stats.dirty_relevels += 1
        stats.replay_rounds += nrounds
        return updated

    def _replay_resume(
        self,
        trace: _Trace,
        flow_ids: "dict[Hashable, None] | Sequence[Hashable]",
        store_comp: int,
        dirty_set: "set[ChannelId]",
        dfull: "dict[ChannelId, int]",
        dres: "dict[ChannelId, float]",
        a_spec: "dict[Hashable, FlowSpec]",
        a_rate: "dict[Hashable, float]",
        a_frozen: "dict[Hashable, int]",
        a_bottleneck: "dict[Hashable, ChannelId | None]",
        removed_ids: "set[Hashable] | frozenset",
        diverged: int,
    ) -> dict[Hashable, float]:
        """Reconstruct solver state at the divergence round and resume.

        The rounds before ``diverged`` are certified bitwise, so the
        frontier's rates (a fold of the certified deltas) and the
        suffix channels' residuals (a fold of delta × active-count, in
        recording order) equal the full core's state exactly; resuming
        the fill from there matches a full re-solve bit for bit.
        """
        capacities = self._capacities
        deltas = trace.deltas
        freeze_round = trace.freeze_round
        full_round = trace.full_round

        # Frontier: flows still unfrozen at the divergence round, in
        # component (admission) order.
        frontier: list[Hashable] = []
        for fid in flow_ids:
            if fid in a_spec:
                if fid not in a_frozen:
                    frontier.append(fid)
            elif freeze_round[fid] >= diverged:
                frontier.append(fid)

        # Every frontier flow sits at the identical certified fill: the
        # clean ones by the recorded fold, the added ones because the
        # replay folded the same deltas into their rates from 0.0.
        acc = 0.0
        for s in range(diverged):
            acc += deltas[s]
        specs = [
            a_spec[fid] if fid in a_spec else self._flows[fid] for fid in frontier
        ]

        # Suffix channels: every bindable channel a frontier flow
        # crosses (none of them saturated yet — a saturated channel has
        # no unfrozen members), the ones the resumed fill indexes.
        # Clean residuals fold the recorded deltas against the
        # channel's historic active counts, reproducing the core's
        # subtraction sequence bitwise.
        bindable = self._bindable
        residual: dict[ChannelId, float] = {}
        for channel in dict.fromkeys(c for spec in specs for c in spec.channels):
            if channel not in bindable:
                continue
            if channel in dirty_set:
                residual[channel] = dres[channel]
                continue
            rounds = sorted(
                freeze_round[m] for m in self._members.get(channel, ())
            )
            total = len(rounds)
            res = capacities[channel]
            p = 0
            for s in range(diverged):
                while p < total and rounds[p] < s:
                    p += 1
                count = total - p
                if count:
                    res -= deltas[s] * count
            residual[channel] = res

        # Truncate a copy of the trace at the divergence round; the
        # resumed fill appends its own rounds.
        resumed = _Trace()
        resumed.deltas = deltas[:diverged]
        resumed.binding_channels = trace.binding_channels[:diverged]
        resumed.binding_caps = trace.binding_caps[:diverged]
        for fid, rr in freeze_round.items():
            if rr < diverged and fid not in removed_ids:
                resumed.freeze_round[fid] = rr
        for fid, rr in a_frozen.items():
            resumed.freeze_round[fid] = rr
        for channel, rr in full_round.items():
            if rr < diverged and channel not in dirty_set:
                resumed.full_round[channel] = rr
        resumed.full_round.update(dfull)

        bottlenecks = self._bottlenecks if self._track_bottlenecks else None
        solved = _fill(
            specs, capacities, bindable, bottlenecks, resumed, residual, acc,
            diverged,
        )
        self._traces[store_comp] = resumed

        for fid, r in a_frozen.items():
            solved.setdefault(fid, a_rate[fid])
        self._rates.update(solved)
        if self._track_bottlenecks:
            for fid, rr in a_frozen.items():
                self._bottlenecks[fid] = a_bottleneck.get(fid)
        stats = self.stats
        stats.dirty_relevels += 1
        stats.replay_rounds += diverged
        stats.frontier_releveled += len(frontier)
        if len(flow_ids) > stats.largest_component:
            stats.largest_component = len(flow_ids)
        return solved

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, flow_id: Hashable) -> bool:
        return flow_id in self._flows

    def rate(self, flow_id: Hashable) -> float:
        """Cached allocation of one live flow."""
        try:
            return self._rates[flow_id]
        except KeyError:
            raise SimulationError(f"unknown flow id {flow_id!r}") from None

    def rates(self) -> dict[Hashable, float]:
        """``{flow id: rate}`` snapshot of every live flow."""
        return dict(self._rates)

    def component_of(self, flow_id: Hashable) -> tuple[Hashable, ...]:
        """The flow ids coupled (transitively) with ``flow_id``."""
        try:
            comp = self._component_of[flow_id]
        except KeyError:
            raise SimulationError(f"unknown flow id {flow_id!r}") from None
        return tuple(self._components[comp])

    def flows(self) -> list[FlowSpec]:
        """Live flow specs, in admission order."""
        return list(self._flows.values())

    def bottleneck(self, flow_id: Hashable) -> ChannelId | None:
        """The recorded freeze reason of one live flow.

        The channel that froze the flow at its last re-level, or
        ``None`` when the flow froze at its own cap.  Requires
        ``track_bottlenecks=True``; raises for unknown flow ids.
        """
        if not self._track_bottlenecks:
            raise SimulationError("solver was built without track_bottlenecks")
        if flow_id not in self._flows:
            raise SimulationError(f"unknown flow id {flow_id!r}")
        return self._bottlenecks.get(flow_id)

    def bottlenecks(self) -> dict[Hashable, ChannelId | None]:
        """``{flow id: freeze reason}`` snapshot (tracking solvers only)."""
        if not self._track_bottlenecks:
            raise SimulationError("solver was built without track_bottlenecks")
        return dict(self._bottlenecks)

    @property
    def tracks_bottlenecks(self) -> bool:
        """Whether this solver records freeze reasons."""
        return self._track_bottlenecks


def allocation_is_feasible(
    flows: Sequence[FlowSpec],
    capacities: Mapping[ChannelId, float],
    rates: Mapping[Hashable, float],
    *,
    rel_tol: float = 1e-6,
) -> bool:
    """Check capacity and cap feasibility of an allocation (for tests)."""
    load: dict[ChannelId, float] = {}
    for flow in flows:
        r = rates[flow.flow_id]
        if r < -rel_tol or r > flow.cap * (1 + rel_tol):
            return False
        for channel in flow.channels:
            load[channel] = load.get(channel, 0.0) + r
    for channel, total in load.items():
        if total > capacities[channel] * (1 + rel_tol):
            return False
    return True
