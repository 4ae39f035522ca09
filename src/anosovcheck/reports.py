"""Structured verdict records emitted by checkers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np


def jsonable(obj):
    """JSON value of a numpy array, a numpy scalar or a set: the ``default`` hook of ``dumps``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps(payload) -> str:
    """Text of a report: strict JSON with sorted keys, ending in a newline.

    A non-empty dict is written one key per line with a 2-space indent, and
    a list or tuple that holds a dict one element per line; every other
    value goes on one line, through one C encoder per report where json has
    one.  A non-finite float raises ``ValueError``, a value of no JSON type ``TypeError``.
    """
    # built per call, so that ``default`` is the module's current ``jsonable``
    enc = json.JSONEncoder(sort_keys=True, separators=(", ", ": "), default=jsonable, allow_nan=False)
    make = json.encoder.c_make_encoder  # enc.encode makes one per value, with these arguments
    chunks = make and make({}, enc.default, encode_basestring_ascii, enc.indent, enc.key_separator,
                           enc.item_separator, enc.sort_keys, enc.skipkeys, enc.allow_nan)
    encode = (lambda obj: "".join(chunks(obj, 0))) if chunks else enc.encode

    def text(obj, pad: str) -> str:
        inner = pad + "  "
        if isinstance(obj, dict) and obj:
            rows = [encode_basestring_ascii(k) + ": " + text(v, inner)
                    for k, v in sorted(obj.items())]
            return "{\n" + inner + f",\n{inner}".join(rows) + "\n" + pad + "}"
        if isinstance(obj, (list, tuple)) and any(isinstance(v, dict) for v in obj):
            return "[\n" + inner + f",\n{inner}".join(map(encode, obj)) + "\n" + pad + "]"
        return encode(obj)

    return text(payload, "") + "\n"


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
        return {
            "property": self.name,
            "verdict": self.verdict,
            "constants": self.constants,
            "thresholds": self.thresholds,
            "witnesses": self.witnesses,
            "details": self.details,
            "seed": self.seed,
        }

