"""Fault scenarios stay byte-identical: pinned ``repro inject`` output.

``repro inject`` reruns an artifact under a committed fault scenario,
so every degrade, stall and link event goes through the node's
``FlowNetwork`` capacities (``network.capacity``/``set_capacity``).
The digests below are the sha256 of the command's stdout; a change
that moves a faulted capacity, a rate or a retry changes them.
Recompute them with ``python -m repro inject <artifact> --scenario
benchmarks/scenarios/<scenario>.json --no-cache | sha256sum`` only for
a change that is meant to move fault-injection results.
"""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main

SCENARIOS = Path(__file__).resolve().parents[2] / "benchmarks" / "scenarios"

INJECT_SHA256 = {
    ("fig06", "degrade_xgmi"): "22a2695501c1361e5520d724b68ee453befae709c636dcc6397c54880b521094",
    ("fig06", "chaos"): "beac8c13b2dee5ef785a3c8890b462eb3dad031df2025dcb3f9eb4a48ec8d45e",
    ("fig11", "degrade_xgmi"): "3dd3abf3a6c6f959b5448554b7673ff4e24e7fdb144fe6472135a4657de5e6ed",
    ("fig11", "chaos"): "eb0b679d0bc31cfded677e7aa2ce9e41e9090a1cf885b0f449a7535738065e54",
}


@pytest.mark.parametrize(("artifact", "scenario"), sorted(INJECT_SHA256))
def test_inject_output_is_pinned(artifact, scenario, capsys):
    path = SCENARIOS / f"{scenario}.json"
    assert main(["inject", artifact, "--scenario", str(path), "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"injecting scenario '{scenario}'")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == INJECT_SHA256[(artifact, scenario)]
