"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 perfbench/spread.py --seeds 1-10 [--workloads words-sl2,rays-sl3] [--out FILE]

Runs ``perfbench/run.py`` once per workload and seed, one process at a
time, and prints for each metric its median, its quartiles and the
distance between the quartiles as a share of the median
(``statistics.quantiles(values, n=4)``).  ``--out`` writes the figures and
the environment line of the first run as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        correct = True
        for seed in args.seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            lines = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                                   text=True, timeout=600).stdout.splitlines()
            report.setdefault("environment", json.loads(lines[0].split(" env ", 1)[1]))
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vals}
            flag = "" if spread < bounds[name] / 3 else "  (above a third of the bound)"
            print(f"  {workload} {name}: median {med:.6g}, spread {spread:.4f} "
                  f"of bound {bounds[name]}{flag}", flush=True)
        report["workloads"][workload] = {"correct": correct, "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
