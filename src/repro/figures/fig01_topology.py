"""Figure 1: the multi-GPU compute node topology.

Reproduces the node inventory: 8 GCDs on 4 MI250X packages, 4 NUMA
domains, and the Infinity Fabric link census (4 quad + 2 dual +
6 single xGMI bundles + 8 CPU links), and prints the adjacency with
tiers — the textual form of the paper's node diagram.
"""

from __future__ import annotations

from ..context import resolve_default as resolve_default_topology
from ..core.experiment import ExperimentResult
from ..topology.link import LinkTier

TITLE = "Multi-GPU node topology (Figure 1)"
ARTIFACT = "Figure 1"


def run() -> ExperimentResult:
    """Run the reproduction; returns its :class:`ExperimentResult`."""
    topology = resolve_default_topology()
    result = ExperimentResult("fig01", TITLE)
    census = topology.link_census()
    for tier in (LinkTier.QUAD, LinkTier.DUAL, LinkTier.SINGLE, LinkTier.CPU):
        result.add(
            tier.peak_unidirectional,
            float(census.get(tier, 0)),
            "links",
            tier=tier.name.lower(),
        )
    for link in topology.xgmi_links():
        result.add(
            link.capacity_per_direction,
            1.0,
            "link",
            tier=f"edge:{link.tier.name.lower()}",
            a=link.a.index,
            b=link.b.index,
        )
    result.note(topology.describe())
    return result


def report(result: ExperimentResult) -> str:
    """Paper-style text rendering of a result."""
    lines = [f"# {TITLE}"]
    lines.extend(result.notes)
    lines.append("GCD-GCD bundles (GCDa-GCDb: tier):")
    for m in result.measurements:
        tier = str(m.meta.get("tier", ""))
        if tier.startswith("edge:"):
            lines.append(
                f"  {m.meta['a']}-{m.meta['b']}: {tier.removeprefix('edge:')}"
                f" ({m.x / 1e9:.0f}+{m.x / 1e9:.0f} GB/s)"
            )
    return "\n".join(lines)
