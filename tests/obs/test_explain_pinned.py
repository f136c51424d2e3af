"""Span blame stays byte-identical: pinned ``repro explain`` output.

``repro explain`` reruns an artifact with spans on, so every flow's
blame comes from the fair-share solver's freeze reasons (the
bottleneck-tracking path of every fill).  The digests below are the
sha256 of the command's stdout; a solver change that moves a rate, a
freeze reason or a span boundary changes them.  Recompute them with
``python -m repro explain <artifact> | sha256sum`` only for a change
that is meant to move span blame.
"""

import hashlib

import pytest

from repro.cli import main

EXPLAIN_SHA256 = {
    "fig06": "5d6da3c6d2e875999d8466c4d7959daf31394a453c57529d26ba850fc4f269ed",
    "fig11": "9d2de691b70e1a4f48c3b998b8fc942a70fec790f465777902676e7b1d3f9d22",
    "fig12": "c8abdf2e50ac91a6ba21b683fdc2aec3c3a1db46d3868a2368b4625980f47eec",
}


@pytest.mark.parametrize("artifact", sorted(EXPLAIN_SHA256))
def test_explain_output_is_pinned(artifact, capsys):
    assert main(["explain", artifact]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{artifact}:")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == EXPLAIN_SHA256[artifact]
