#!/usr/bin/env python3
"""Alternating pairs of benchmark runs of two trees, with each run's heap mode.

    python3 scripts/bench_pairs.py BASE CHANGE [--pairs 5] [--seed 1] [--workloads words-sl3]
                                   [--seconds 15] [--out FILE]

BASE and CHANGE are each a directory holding a checkout, or a git revision
of this repository.  Each is copied to a plain directory (``src/``,
``perfbench/`` and ``BENCHMARK.json`` only): a git clone's files read
about 3% slower.  For each workload, pair i runs ``perfbench/run.py`` on
both copies at seed ``--seed`` + i, one process at a time, base first in
even pairs and change first in odd ones.  Each line gives the pair's two
``wall_s`` medians, their ratio (change over base) and each side's minor
page faults per timed call: the child's ``ru_minflt`` less that of a
one-call run of the same copy and workload, over the calls past the first.
A process either makes a few faults per call or hundreds (glibc trimming
the heap top at each call's end and faulting it back in): 0-16 against
839-1,309 on words-sl3, where the trim moves ``wall_s`` by about 4%
whatever the code, and 5 against 270-340 on words-sl2.  A run above
HEAP_FAULTS per call is in the trimming mode; a pair whose two sides are
in different modes is flagged, and the summary gives the median ratio
over all pairs and over the unflagged ones.
``--out`` writes every run's end-to-end metrics and faults as JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREE = ("src", "perfbench", "BENCHMARK.json")  # what perfbench/run.py reads of a checkout
HEAP_FAULTS = 100  # minor faults per timed call above which a run refaults its heap top


def copy_tree(source: str, dest: Path) -> Path:
    """A plain copy of a checkout directory, or of a git revision of this repository."""
    dest.mkdir(parents=True)
    if Path(source).is_dir():
        for name in TREE:
            src = Path(source) / name
            if src.is_dir():
                shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, dest / name)
    else:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", source, *TREE],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` process: its end-to-end metrics, timed calls and minor faults."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True,
                         timeout=600).stdout
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    result = json.loads(out.splitlines()[-1])
    calls = int(re.search(r"^wall_s: .*?, n=(\d+);", out, re.M).group(1))
    return {"correct": result["correct"], "calls": calls, "faults": faults,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1, help="pair i runs at this seed + i")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {side: copy_tree(src, work / side)
                 for side, src in (("base", args.base), ("change", args.change))}
        report = {"base": args.base, "change": args.change, "seconds": args.seconds,
                  "heap_faults": HEAP_FAULTS, "workloads": {}}
        for workload in args.workloads.split(","):
            # each side's faults outside the timed calls past the first: a one-call run's
            startup = {side: run(tree, workload, args.seed, 0) for side, tree in trees.items()}
            pairs = []
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                runs = {side: run(trees[side], workload, args.seed + i, args.seconds)
                        for side in order}
                for side, r in runs.items():
                    r["faults_per_call"] = ((r["faults"] - startup[side]["faults"])
                                            / max(1, r["calls"] - 1))
                walls = [runs[side]["metrics"]["wall_s"] for side in ("base", "change")]
                pair = {"seed": args.seed + i, "first": order[0], "runs": runs,
                        "ratio": walls[1] / walls[0], "modes_differ": len(
                            {r["faults_per_call"] > HEAP_FAULTS for r in runs.values()}) > 1}
                pairs.append(pair)
                print(f"{workload} pair {i} seed {args.seed + i} ({order[0]} first): wall_s "
                      f"{walls[0]:.6g} -> {walls[1]:.6g}, ratio {pair['ratio']:.4f}; faults per "
                      f"call {runs['base']['faults_per_call']:.0f} / "
                      f"{runs['change']['faults_per_call']:.0f}"
                      + ("  HEAP MODES DIFFER" if pair["modes_differ"] else "")
                      + ("" if all(r["correct"] for r in runs.values()) else "  INCORRECT"),
                      flush=True)
            same = [p["ratio"] for p in pairs if not p["modes_differ"]]
            summary = {"median_ratio": statistics.median(p["ratio"] for p in pairs),
                       "median_ratio_same_mode": statistics.median(same) if same else None,
                       "change_lower": sum(p["ratio"] < 1 for p in pairs),
                       "modes_differ": sum(p["modes_differ"] for p in pairs)}
            for side in ("base", "change"):
                walls = [p["runs"][side]["metrics"]["wall_s"] for p in pairs]
                q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
                summary[side] = {"wall_s_median": statistics.median(walls),
                                 "wall_s_quartiles": [q1, q3]}
            print(f"  {workload}: median ratio {summary['median_ratio']:.4f} "
                  f"({len(same)} same-mode pairs: "
                  + (f"{summary['median_ratio_same_mode']:.4f}" if same else "none")
                  + f"), change lower in {summary['change_lower']} of {len(pairs)}; base "
                  f"quartiles {summary['base']['wall_s_quartiles']}", flush=True)
            report["workloads"][workload] = {"startup": startup, "pairs": pairs,
                                             "summary": summary}
        if args.out:
            args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
