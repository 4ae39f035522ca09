"""Benchmark of anosovcheck: time to verdict and accuracy of ``run_config``.

Run from the repository root:

    python3 perfbench/run.py --workload words-sl2 --seed 1 --seconds 15 --trace 0

Each workload is a config generated from a bundled one, with the seed
option set to ``--seed``; the seed drives ray sampling and the continuity
probe, while the word trees are deterministic.  One process runs the
config through ``anosovcheck.cli.run_config`` sequentially, with BLAS
pinned to one thread.  ``--trace 0`` repeats the call until ``--seconds``
have passed and prints the end-to-end metrics named in BENCHMARK.json,
with call times in the nominal seconds of ``speed.py``;
``--trace 1`` makes one untraced and two traced calls and prints the
per-layer metrics.  Every call is gated for correctness.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# name -> (bundled config, overrides); see BENCHMARK.json for why each exists.
WORKLOADS = {
    "words-sl2": ("sl2-schottky", {}),
    "words-sl3": ("sl3-symsq-schottky", {}),
    "rays-sl3": ("sl3-symsq-schottky", {"checkers": ["limit", "anosov"], "ray_count": 200}),
}
SETUP_RUNS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A fresh interpreter's way to a loaded, validated config and a built presentation.
SETUP_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
from anosovcheck.cli import load_config
cfg = load_config(sys.argv[2])
cfg.presentation()
cfg.face_type()
"""


def make_config(workload: str, seed: int) -> dict:
    base, overrides = WORKLOADS[workload]
    cfg = json.loads((SRC / "anosovcheck" / "configs" / f"{base}.json").read_text())
    cfg.update(overrides, seed=seed)
    return cfg


def blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def setup_seconds(cfg_path: Path) -> float:
    t0 = time.perf_counter()
    # No timeout: waiting with one polls the child in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(cfg_path)], check=True)
    return time.perf_counter() - t0


def run_once(cli, cfg_path: Path, out_dir: Path,
             probe=None) -> tuple[float, int, dict[str, bytes]]:
    """One timed ``run_config`` call; returns wall seconds, exit code, report bytes.

    The seconds include the samples ``probe``, if given, takes during the call.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    # run_config prints its verdict lines; the benchmark prints its own.
    with contextlib.redirect_stdout(io.StringIO()), probe or contextlib.nullcontext():
        t0 = time.perf_counter()
        rc = cli.run_config(str(cfg_path), out_dir=str(out_dir))
        wall = time.perf_counter() - t0
    return wall, rc, {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.json"))}


def gate(checker: str, raw: bytes | None) -> str | None:
    """Why one checker run breaks the correctness gate, or None if it passes.

    uru, morse and limit must give a true verdict; anosov must certify
    C > 0, non-uniform divergence, stratum expansion and no irregular ray.
    Its uniform verdict is not gated: at 200 rays the slope deviation sits
    on its threshold and flips with the seed.
    """
    if raw is None:
        return "no report"
    rep = json.loads(raw)
    if checker != "anosov":
        return None if rep["verdict"] is True else "verdict false"
    c, d = rep["constants"], rep["details"]
    if c["C"] > 0 and d["non_uniform"] and d["cea"] and c["irregular_rays"] == 0:
        return None
    return f"C={c['C']} non_uniform={d['non_uniform']} cea={d['cea']} irregular={c['irregular_rays']}"


class Tally:
    """Checker runs attempted and failed, with the reason of each failure."""

    def __init__(self, checkers: list[str]):
        self.checkers = checkers
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, rc: int, reports: dict[str, bytes], reference=None):
        if rc != 0:
            self.problems.append(f"{label}: run_config exit code {rc}")
        for checker in self.checkers:
            self.attempted += 1
            raw = reports.get(f"{checker}.json")
            why = gate(checker, raw)
            if why is None and reference is not None and raw != reference.get(f"{checker}.json"):
                why = "report differs from the first run's"
            if why is not None:
                self.failed += 1
                self.problems.append(f"{label}: {checker}: {why}")
        if reference is not None and reports.get("summary.json") != reference.get("summary.json"):
            self.problems.append(f"{label}: summary differs from the first run's")


def work_counts(cfg: dict, reports: dict[str, bytes]) -> dict[str, int]:
    """Input size: words and interior points of the word trees, rays sampled."""
    r = len(cfg["generators"])

    def per_length(depth):
        return [2 * r * (2 * r - 1) ** (k - 1) for k in range(1, depth + 1)]

    uru = per_length(cfg["depth"]) if "uru" in cfg["checkers"] else []
    morse = per_length(cfg["options"]["morse_depth"]) if "morse" in cfg["checkers"] else []
    rays = 0
    if "limit.json" in reports:
        rep = json.loads(reports["limit.json"])
        rays += len(rep["details"]["rays"]) + len(rep["witnesses"]["failures"])
    if "anosov.json" in reports:
        rep = json.loads(reports["anosov.json"])
        rays += len(rep["details"]["rays"]) + rep["constants"]["irregular_rays"]
    return {
        "subgroup.words": sum(uru),
        "subgroup.morse_words": sum(morse),
        "subgroup.interior_points": sum(k * c for k, c in enumerate(morse)),
        "subgroup.rays": rays,
    }


def digits(err: float) -> float:
    """Correct decimal digits of a result whose absolute error is ``err``.

    An exact result reads as the digits of the smallest positive double.
    """
    return -math.log10(max(err, math.ulp(0.0)))


def measure(cli, cfg: dict, cfg_path: Path, work: Path, seconds: float, tally: Tally) -> dict:
    import oracle
    from speed import SpeedProbe, nominal

    setups = [setup_seconds(cfg_path) for _ in range(SETUP_RUNS)]
    walls, walls_nominal = [], []
    reference = None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        probe = SpeedProbe()
        wall, rc, reports = run_once(cli, cfg_path, work / "reports", probe)
        tally.add(f"call {len(walls) + 1}", rc, reports, reference)
        walls.append(wall - probe.spent)
        walls_nominal.append(nominal(walls[-1], probe.samples))
        if reference is None:
            reference = reports
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    acc = oracle.check(cfg, reference)
    anosov = json.loads(reference.get("anosov.json", b"{}"))
    print(f"wall_s: median {statistics.median(walls_nominal):.6g} nominal s, "
          f"max {max(walls_nominal):.6g}, n={len(walls)}; "
          f"measured median {statistics.median(walls):.6g} s, max {max(walls):.6g}")
    print(f"setup_s: median {statistics.median(setups):.6g} s, max {max(setups):.6g}, "
          f"n={len(setups)}")
    print(f"logsv_err_max: {acc['logsv_err_max']:.6g}, flag_err_max: {acc['flag_err_max']:.6g} "
          f"(200-digit reference, {acc['words_checked']} words)")
    if anosov:
        print(f"anosov uniform (not gated): {anosov['details']['uniform']}, "
              f"max_slope_deviation {anosov['constants']['max_slope_deviation']}")
    return {
        "wall_s": statistics.median(walls_nominal),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "logsv_digits": digits(acc["logsv_err_max"]),
        "flag_digits": digits(acc["flag_err_max"]),
    }


def trace(cli, cfg: dict, cfg_path: Path, work: Path, tally: Tally) -> dict:
    from tracing import Tracer

    base_wall, rc, reference = run_once(cli, cfg_path, work / "reports")
    tally.add("untraced", rc, reference)
    runs = []
    for k in (1, 2):
        with Tracer() as tracer:
            wall, rc, reports = run_once(cli, cfg_path, work / "reports")
        tally.add(f"traced {k}", rc, reports, reference)
        runs.append((wall, tracer.snapshot()))
    counts = [{name: (st["calls"], st["raised"]) for name, st in snap.items()} for _, snap in runs]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        tally.problems.append(f"call counts differ between traced runs: {diff[:8]}")
    stats = runs[0][1]
    made = stats["symmspace.make_diamond"]["calls"]
    values = {f"{func}.{field}": v for func, st in stats.items() for field, v in st.items()}
    values.update({
        **work_counts(cfg, reference),
        "cli.report_bytes": sum(len(b) for b in reference.values()),
        "symmspace.diamond_useful_ratio":
            stats["symmspace.diamond_query"]["calls"] / made if made else 0.0,
        "trace.overhead_s": statistics.mean(w for w, _ in runs) - base_wall,
    })
    (work / "trace.json").write_text(json.dumps(
        {"untraced_wall_s": base_wall, "traced_wall_s": [w for w, _ in runs],
         "stats": stats}, indent=1, sort_keys=True))
    print(f"untraced wall {base_wall:.6g} s, traced {[round(w, 4) for w, _ in runs]} s; "
          f"all spans in {work / 'trace.json'}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "anosovcheck" / "__init__.py").is_file():
        print(f"perfbench: no anosovcheck sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in BLAS_THREAD_VARS:  # read by numpy's BLAS when it loads, so set first
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import anosovcheck.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: anosovcheck imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = make_config(args.workload, args.seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, env {json.dumps(environment())}")

    tally = Tally(cfg["checkers"])
    if args.trace:
        wanted = spec["per_layer"]
        values = trace(cli, cfg, cfg_path, work, tally)
    else:
        wanted = spec["end_to_end"]
        values = measure(cli, cfg, cfg_path, work, args.seconds, tally)
        values["pass_ratio"] = 1.0 - tally.failed / tally.attempted
    print(f"fail_ratio: {tally.failed / tally.attempted!r} "
          f"({tally.failed} of {tally.attempted} checker runs)")
    for problem in tally.problems:
        print(f"FAIL {problem}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
