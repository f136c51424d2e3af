"""Content-addressed cache keys for sim points.

A point's key is a SHA-256 over a canonical JSON encoding of
*everything that determines its output*: the measurement function's
dotted path, its parameters (with topologies and calibration profiles
reduced to their content fingerprints), and the package version (the
model code itself).  Grouping metadata (``experiment_id``, ``label``)
is excluded, so identical measurements reached from different
artifacts share one cache entry.

Floats are encoded via :meth:`float.hex` — the key changes iff the
bit pattern of an input changes, matching the simulator's bit-exact
determinism guarantee.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from collections.abc import Mapping
from typing import Any

from .points import SimPoint

#: Bumped when the canonical encoding itself changes.
KEY_SCHEMA = "repro-point/1"

#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` without
#: building an encoder per call; the bytes are the same.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class UncacheableValueError(TypeError):
    """A point parameter has no stable canonical form."""


def canonical_token(value: Any) -> Any:
    """JSON-serializable canonical form of one parameter value.

    Raises :class:`UncacheableValueError` for values without a stable
    content identity; the runner then computes such points without
    consulting the cache instead of risking a wrong hit.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return ["float", value.hex()]
    if isinstance(value, (list, tuple)):
        return ["seq", [canonical_token(item) for item in value]]
    if isinstance(value, Mapping):
        items = [
            [canonical_token(key), canonical_token(value[key])]
            for key in value
        ]
        items.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
        return ["map", items]
    if isinstance(value, enum.Enum):
        return ["enum", type(value).__qualname__, value.name]
    fingerprint = getattr(value, "fingerprint", None)
    if callable(fingerprint):
        # NodeTopology, CalibrationProfile — content-hashed structures.
        return ["fingerprint", type(value).__qualname__, fingerprint()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # SimEnvironment and friends: canonicalize field by field.
        fields = [
            [f.name, canonical_token(getattr(value, f.name))]
            for f in sorted(dataclasses.fields(value), key=lambda f: f.name)
        ]
        return ["dataclass", type(value).__qualname__, fields]
    raise UncacheableValueError(
        f"no canonical form for {type(value).__qualname__!r} value {value!r}"
    )


def point_key(point: SimPoint, *, version: str) -> str:
    """Content-addressed cache key (SHA-256 hex) of one point.

    Raises :class:`UncacheableValueError` when any parameter cannot be
    canonicalized.
    """
    payload = _encode(
        [
            KEY_SCHEMA,
            version,
            point.fn,
            [[name, canonical_token(value)] for name, value in point.params],
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()
