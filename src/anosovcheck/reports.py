"""Structured verdict records emitted by checkers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# Exact types that JSON takes as they are; a subclass such as np.float64 is not one.
_ATOMS = frozenset({float, int, str, bool, type(None)})


def jsonable(obj):
    """Recursively convert numpy/tuple/set payloads into JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) <= _ATOMS:
            return list(obj)
        return [jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable(v) for v in obj)
    if isinstance(obj, np.ndarray):
        # tolist() gives plain Python scalars unless the elements are objects.
        return jsonable(obj.tolist()) if obj.dtype == object else obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


@dataclass
class PropertyReport:
    """Margin-carrying verdict of a sequence- or subgroup-level checker.

    Every number in ``constants`` is computed from the data; every knob
    that influenced the verdict is recorded in ``thresholds`` so the
    verdict is reproducible from the report alone.
    """

    name: str
    verdict: bool | None = None
    constants: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    seed: int | None = None

    def as_dict(self) -> dict:
        return jsonable(
            {
                "property": self.name,
                "verdict": self.verdict,
                "constants": self.constants,
                "thresholds": self.thresholds,
                "witnesses": self.witnesses,
                "details": self.details,
                "seed": self.seed,
            }
        )

