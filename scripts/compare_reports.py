#!/usr/bin/env python3
"""Compare the reports of this checkout with those of another, byte for byte.

    python3 scripts/compare_reports.py OTHER_ROOT [--seeds 1,2]

Runs the bundled configs (as ``scripts/run_all.py`` does) and the
benchmark's workload configs, from ``perfbench/run.py``'s ``make_config``
at each seed, in both trees; each tree runs its own configs, as the
benchmark does, so a config format that changes between them compares
the reports of the same experiments.  Each tree runs in its own process, which
imports ``anosovcheck`` from that tree's ``src`` with BLAS pinned to one
thread.  Prints every report file that differs or exists on one side
only, with up to 5 JSON paths at which a differing ``.json`` file's values
differ and a line that counts them, gives the largest relative difference
among the differing floats and says whether any other value differs, and
exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ("sl2-schottky", "sl3-symsq-schottky", "sanov-unipotent")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runs (config path, out dir) jobs with the tree's anosovcheck, whose src is argv[1].
RUNNER = """\
import contextlib, io, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import anosovcheck
from anosovcheck.cli import run_config
if not Path(anosovcheck.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve()):
    sys.exit(f"anosovcheck imported from {anosovcheck.__file__}, not {sys.argv[1]}")
for cfg, out in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        run_config(cfg, out_dir=out)
"""


def workload_configs(tree: Path, seeds: list[int]) -> dict[str, dict]:
    """Config of each workload at each seed, by the tree's ``perfbench/run.py`` ``make_config``."""
    spec = importlib.util.spec_from_file_location("perfbench_run", tree / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return {f"{w}-seed{s}": bench.make_config(w, s) for w in bench.WORKLOADS for s in seeds}


MISSING = object()  # the side of a value_diffs entry without the path


def value_diffs(this, other, path: str = "") -> list[tuple]:
    """(JSON path, this value, other value), in document order, where the values differ.

    A path that exists on one side only has MISSING on the other.
    """
    if isinstance(this, dict) and isinstance(other, dict):
        keys = list(this) + [k for k in other if k not in this]
        steps = [(f"{path}.{k}" if path else str(k), k in this, k in other, k) for k in keys]
    elif isinstance(this, list) and isinstance(other, list):
        steps = [(f"{path}[{i}]", i < len(this), i < len(other), i)
                 for i in range(max(len(this), len(other)))]
    else:
        return [] if type(this) is type(other) and this == other else [(path, this, other)]
    diffs = []
    for sub, here, there, k in steps:
        if here and there:
            diffs += value_diffs(this[k], other[k], sub)
        else:
            diffs.append((sub, this[k] if here else MISSING, other[k] if there else MISSING))
    return diffs


def json_diffs(this, other) -> list[str]:
    """JSON paths, in document order, whose values differ or exist on one side only."""
    return [f"{path}: " + ("only in other" if a is MISSING else "only in this" if b is MISSING
                           else "differs") for path, a, b in value_diffs(this, other)]


def diff_summary(this, other) -> str:
    """How many values differ, the largest relative difference of the floats among them, and
    whether any other value (a verdict, a word, a key on one side only) differs."""
    diffs = value_diffs(this, other)
    floats = [abs(a - b) / max(abs(a), abs(b)) for _, a, b in diffs
              if type(a) is float and type(b) is float]
    rest = len(diffs) - len(floats)
    return (f"{len(diffs)} values differ, largest relative float difference "
            f"{max(floats, default=0.0):.3g}, " +
            (f"{rest} non-float values differ" if rest else "no non-float value differs"))


def run_tree(tree: Path, jobs: list[tuple[str, str]]):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{v: "1" for v in BLAS_THREAD_VARS})
    subprocess.run([sys.executable, "-c", RUNNER, str(tree / "src"), json.dumps(jobs)],
                   env=env, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the other checkout")
    parser.add_argument("--seeds", default="1,2", help="workload seeds, comma separated")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        sides = {"this": ROOT, "other": args.other.resolve()}
        for side, tree in sides.items():
            configs = [(b, str(tree / "src" / "anosovcheck" / "configs" / f"{b}.json")) for b in BUNDLED]
            for name, cfg in workload_configs(tree, seeds).items():
                path = out / f"{side}-configs" / f"{name}.json"
                path.parent.mkdir(exist_ok=True)
                path.write_text(json.dumps(cfg))
                configs.append((name, str(path)))
            run_tree(tree, [(cfg, str(out / side / name)) for name, cfg in configs])
        files = sorted({p.relative_to(out / side) for side in sides
                        for p in (out / side).rglob("*") if p.is_file()})
        differ = []
        for rel in files:
            a, b = (out / side / rel for side in sides)
            if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                differ.append(rel)
                print(f"differs: {rel}" if a.is_file() and b.is_file() else
                      f"only in {'this' if a.is_file() else 'other'}: {rel}")
                if rel.suffix == ".json" and a.is_file() and b.is_file():
                    this, other = json.loads(a.read_text()), json.loads(b.read_text())
                    for line in json_diffs(this, other)[:5]:
                        print(f"  {line}")
                    print(f"  {diff_summary(this, other)}")
        print(f"{len(files)} report files, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
