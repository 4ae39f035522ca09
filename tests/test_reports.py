import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from anosovcheck import reports
from anosovcheck.reports import dumps

# Everything the checkers publish: numpy arrays and scalars, tuples, sets,
# empty containers, per-ray records and nested scalar lists.
PAYLOAD = {
    "vector": np.array([1.5, -2.0, 3.25]),
    "matrix": np.arange(6, dtype=float).reshape(2, 3) / 7,
    "float64": np.float64(0.1),
    "int64": np.int64(-7),
    "bool_": np.bool_(True),
    "tuple": (1, 2.5, "x"),
    "set": {3, 1, 2},
    "empty_dict": {},
    "empty_list": [],
    "none": None,
    "records": [{"ray": 0, "log_eps": np.array([0.5, 1.0]), "ok": np.bool_(False)},
                {"ray": np.int64(1), "word": [1, -2, 2], "tags": {"b", "a"}}],
    "nested": [[1, [2.0, [3]]], [], [[np.float64(4.5)]]],
    "inner": {"deep": {"z": 1, "a": (np.int64(2), np.float64(3.0))}},
}


def recursive_jsonable(obj):
    """The per-node conversion reports were written with before ``dumps``: the reference."""
    if isinstance(obj, dict):
        return {str(k): recursive_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [recursive_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(recursive_jsonable(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return recursive_jsonable(obj.tolist())
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def test_dumps_matches_the_recursive_conversion():
    expected = json.loads(json.dumps(recursive_jsonable(PAYLOAD), sort_keys=True))
    assert json.loads(dumps(PAYLOAD)) == expected


def test_dumps_is_deterministic_and_ends_in_newline():
    text = dumps(PAYLOAD)
    assert text.endswith("}\n")
    assert dumps(PAYLOAD) == text


def test_layout():
    # a dict one key per line, a list of dicts one element per line, the rest inline
    payload = {"b": [{"y": np.array([2.0, 3.0]), "x": 1}, [4]], "a": np.eye(2, dtype=int),
               "c": {}, "d": []}
    assert dumps(payload) == (
        '{\n'
        '  "a": [[1, 0], [0, 1]],\n'
        '  "b": [\n'
        '    {"x": 1, "y": [2.0, 3.0]},\n'
        '    [4]\n'
        '  ],\n'
        '  "c": {},\n'
        '  "d": []\n'
        '}\n'
    )


def test_unknown_type_raises_type_error():
    with pytest.raises(TypeError):
        dumps({"x": object()})


@pytest.mark.parametrize("value", [float("inf"), float("nan"), np.array([1.0, -np.inf])],
                         ids=["inf", "nan", "array"])
def test_non_finite_raises_value_error(value):
    with pytest.raises(ValueError):
        dumps({"x": value})


def test_hook_is_looked_up_per_call(monkeypatch):
    # a tracer that wraps reports.jsonable must see the writer's calls to it
    seen = []
    hook = reports.jsonable

    def counting(obj):
        seen.append(type(obj))
        return hook(obj)

    monkeypatch.setattr(reports, "jsonable", counting)
    dumps({"v": np.zeros(2), "n": np.int64(1)})
    assert sorted(t.__name__ for t in seen) == ["int64", "ndarray"]


def per_value_dumps(payload) -> str:
    """``dumps`` as it was written with a new ``JSONEncoder`` per value: the reference."""
    encode = json.JSONEncoder(sort_keys=True, separators=(", ", ": "),
                              default=reports.jsonable, allow_nan=False).encode

    def text(obj, pad: str) -> str:
        inner = pad + "  "
        if isinstance(obj, dict) and obj:
            rows = [json.encoder.encode_basestring_ascii(k) + ": " + text(v, inner)
                    for k, v in sorted(obj.items())]
            return "{\n" + inner + f",\n{inner}".join(rows) + "\n" + pad + "}"
        if isinstance(obj, (list, tuple)) and any(isinstance(v, dict) for v in obj):
            return "[\n" + inner + f",\n{inner}".join(map(encode, obj)) + "\n" + pad + "]"
        return encode(obj)

    return text(payload, "") + "\n"


PAYLOADS = [
    PAYLOAD,
    [{"a": [{"b": np.arange(3), "c": [{"d": {2, 1}}]}]}, [], {}, (), set()],
    {"scalars": [np.float64(-0.0), np.float32(0.5), np.int8(-3), np.uint64(7), np.bool_(False)],
     "arrays": [np.zeros((0, 2)), np.array([[True]]), np.array(2.5)], "text": "é\n\"q\""},
    [np.float64(1e-300), 1e300, -1.5e-7, [[[]]], {"": None}],
    {},
]


@pytest.mark.parametrize("payload", PAYLOADS, ids=range(len(PAYLOADS)))
def test_dumps_equals_the_per_value_encoder(payload, monkeypatch):
    text = dumps(payload)
    assert text == per_value_dumps(payload)
    # without the C encoder, JSONEncoder.encode writes each value in pure Python
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert dumps(payload) == text


def test_dumps_equals_the_per_value_encoder_on_reports(pipeline_runs):
    # every report of the bundled configs, read back: the writer gives its bytes again
    for run in pipeline_runs.values():
        for path in sorted(run["dir"].glob("*.json")):
            payload = json.loads(path.read_text())
            assert dumps(payload) == per_value_dumps(payload) == path.read_text(), path.name


def test_fallback_raises_as_the_c_encoder_does(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    with pytest.raises(ValueError):
        dumps({"x": [1.0, float("nan")]})
    with pytest.raises(TypeError):
        dumps({"x": [object()]})


def test_compare_reports_names_the_differing_paths():
    path = Path(__file__).resolve().parent.parent / "scripts" / "compare_reports.py"
    spec = importlib.util.spec_from_file_location("compare_reports", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    this = {"constants": {"c": 1.0, "n": 3}, "rays": [{"ok": True}, {"ok": False}],
            "verdict": True, "seed": 1}
    other = {"constants": {"c": 1.0, "n": 3.0, "bound": 28}, "rays": [{"ok": False}],
             "verdict": True, "seed": 1, "extra": [1]}
    assert script.json_diffs(this, this) == []
    assert script.json_diffs(this, other) == [
        "constants.n: differs",  # 3 and 3.0 are equal numbers of different JSON types
        "constants.bound: only in other",
        "rays[0].ok: differs",
        "rays[1]: only in this",
        "extra: only in other",
    ]
    # the line under the paths: the largest relative float move, and whether a verdict,
    # a word or a key moved too
    floats = {"c": [1.0, 4.0], "d": [2.0]}
    assert script.diff_summary(floats, floats) == (
        "0 values differ, largest relative float difference 0, no non-float value differs")
    assert script.diff_summary(floats, {"c": [1.0 + 2.0 ** -52, 2.0], "d": [2.0]}) == (
        "2 values differ, largest relative float difference 0.5, no non-float value differs")
    assert script.diff_summary(this, other) == (
        "5 values differ, largest relative float difference 0, 5 non-float values differ")
