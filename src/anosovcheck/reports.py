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


@dataclass
class SequenceReport:
    """Windowed finite-data classification of a chamber-vector sequence."""

    face_margins: np.ndarray
    norms: np.ndarray
    regular: bool
    uniform: bool
    regular_margin_slope: float
    uniform_ratio_min: float
    detected_pure_face: object  # FaceType | None
    thresholds: dict
    window: int
    inconclusive: bool = False

    def as_dict(self) -> dict:
        pure = None
        if self.detected_pure_face is not None:
            pure = sorted(self.detected_pure_face.kept)
        return jsonable(
            {
                "face_margins": self.face_margins,
                "norms": self.norms,
                "verdicts": {
                    "regular": self.regular,
                    "uniform": self.uniform,
                    "regular_margin_slope": self.regular_margin_slope,
                    "uniform_ratio_min": self.uniform_ratio_min,
                    "detected_pure_face": pure,
                },
                "thresholds": self.thresholds,
                "window": self.window,
                "inconclusive": self.inconclusive,
            }
        )
