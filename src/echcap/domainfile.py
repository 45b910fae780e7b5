"""The domain-description file format, known to this module alone.

A JSON document with a ``type`` discriminator (``ball``, ``ellipsoid``,
``profile``, ``weights``, ``quasiflat``); rationals are "p/q" strings and
multiplicities decimal strings (they exceed 64 bits for quasi-flat
instances).
"""

from __future__ import annotations

import json
from pathlib import Path

from .geometry import Ellipsoid, MomentProfile
from .quasiflat import ParameterVector
from .scalars import format_rational, parse_rational
from .weights import WeightMultiset


def to_document(obj) -> dict:
    if isinstance(obj, Ellipsoid):
        if obj.a == obj.b:
            return {"type": "ball", "a": format_rational(obj.a)}
        return {"type": "ellipsoid", "a": format_rational(obj.a), "b": format_rational(obj.b)}
    if isinstance(obj, MomentProfile):
        return {
            "type": "profile",
            "vertices": [[format_rational(x), format_rational(y)] for x, y in obj.vertices],
        }
    if isinstance(obj, WeightMultiset):
        return {
            "type": "weights",
            "entries": [[format_rational(w), str(m)] for w, m in obj.entries],
        }
    if isinstance(obj, ParameterVector):
        return {"type": "quasiflat", "B": [format_rational(b) for b in obj.B]}
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _list(doc: dict, key: str, width: int = 0) -> list:
    """The list under ``key``, of ``width``-item lists if ``width`` is set."""
    value = doc[key]
    if not isinstance(value, list) or width and any(
        not isinstance(item, list) or len(item) != width for item in value
    ):
        raise ValueError(f"{key!r} must be a list{f' of {width}-item lists' if width else ''}")
    return value


def from_document(doc: dict):
    """The domain of a document; ValueError, or KeyError for a missing
    field, on a document that is not an object of that shape."""
    if not isinstance(doc, dict):
        raise ValueError(f"a domain document is a JSON object, not {type(doc).__name__}")
    kind = doc.get("type")
    if kind == "ball":
        return Ellipsoid.ball(parse_rational(doc["a"]))
    if kind == "ellipsoid":
        return Ellipsoid(parse_rational(doc["a"]), parse_rational(doc["b"]))
    if kind == "profile":
        vertices = _list(doc, "vertices", 2)
        return MomentProfile([(parse_rational(x), parse_rational(y)) for x, y in vertices])
    if kind == "weights":
        entries = _list(doc, "entries", 2)
        # through str, a float or a list multiplicity is refused, not cut
        return WeightMultiset((parse_rational(w), int(str(m))) for w, m in entries)
    if kind == "quasiflat":
        return ParameterVector([parse_rational(b) for b in _list(doc, "B")])
    raise ValueError(f"unknown domain type {kind!r}")


def save_domain(obj, path) -> None:
    Path(path).write_text(
        json.dumps(to_document(obj), indent=2, sort_keys=True) + "\n"
    )


def load_domain(path):
    return from_document(json.loads(Path(path).read_text()))
