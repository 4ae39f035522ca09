"""Golden snapshots of the bundled configs' reports.

Each snapshot holds, per checker, the verdict, the constants, the
witnesses and the scalar entries of ``details``.  Integers, booleans,
strings and words compare exactly; floats compare within 1e-12 relative.
An intended change to a reported number rewrites the snapshots with

    PYTHONPATH=src python tests/test_golden.py

and is explained in CHANGES.md.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = ("sl2-schottky", "sl3-symsq-schottky", "sanov-unipotent")
CHECKERS = ("uru", "morse", "limit", "anosov")
REL_TOL = 1e-12


def snapshot(reports: dict) -> dict:
    """The compared part of one config's reports, keyed by checker."""
    out = {}
    for checker in CHECKERS:
        rep = reports[checker]
        out[checker] = {
            "verdict": rep["verdict"],
            "constants": rep["constants"],
            "witnesses": rep["witnesses"],
            "details": {k: v for k, v in rep["details"].items()
                        if v is None or isinstance(v, (bool, int, float, str))},
        }
    return out


def mismatches(golden, actual, path="") -> list[str]:
    if isinstance(golden, dict) and isinstance(actual, dict):
        if golden.keys() != actual.keys():
            return [f"{path}: keys {sorted(golden)} != {sorted(actual)}"]
        return [m for k in golden for m in mismatches(golden[k], actual[k], f"{path}.{k}")]
    if isinstance(golden, list) and isinstance(actual, list):
        if len(golden) != len(actual):
            return [f"{path}: length {len(golden)} != {len(actual)}"]
        return [m for k, (g, a) in enumerate(zip(golden, actual))
                for m in mismatches(g, a, f"{path}[{k}]")]
    if (isinstance(golden, float) and isinstance(actual, float)
            and math.isclose(golden, actual, rel_tol=REL_TOL, abs_tol=0.0)):
        return []
    if type(golden) is type(actual) and golden == actual:
        return []
    return [f"{path}: {golden!r} != {actual!r}"]


@pytest.mark.parametrize("name", CONFIGS)
def test_reports_match_golden(pipeline_runs, name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    found = mismatches(golden, snapshot(pipeline_runs[name]["reports"]))
    assert not found, "\n".join(found[:20])


def _write_goldens():
    from anosovcheck.cli import bundled_config_path, run_config

    GOLDEN.mkdir(exist_ok=True)
    for name in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            assert run_config(bundled_config_path(name), out_dir=tmp) == 0
            reports = {p.stem: json.loads(p.read_text()) for p in Path(tmp).glob("*.json")}
        text = json.dumps(snapshot(reports), sort_keys=True, separators=(",", ":"))
        (GOLDEN / f"{name}.json").write_text(text + "\n")
        print(f"wrote {GOLDEN / name}.json")


if __name__ == "__main__":
    sys.exit(_write_goldens())
