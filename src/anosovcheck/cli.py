"""Batch experiment runner and report emitter.

A config names a group, a face type and a checker pipeline; the runner
executes the checkers in dependency order and writes one JSON report per
checker plus a summary.  Reports are deterministic given the seed (no
timestamps, sorted keys); plots are CSV plus hand-written SVG so no
raster toolchain is involved.

Exit codes: 0 on success (negative verdicts included), 1 on a checker
hard failure, 2 on a config error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .chamber import FaceType
from .errors import BudgetExceeded, IllConditioned, PingPongFailed, VanishingGap
from .reports import dumps
from .subgroup import (
    DET_TOL,
    MAX_WORDS,
    FreeGroupPresentation,
    _morse_scan,
    _uru_scan,
    anosov_check,
    limit_report,
    sample_rays,
    word_checks,
    word_count,
)

CHECKER_ORDER = ("uru", "morse", "limit", "anosov")
RANDOMIZED_CHECKERS = {"limit", "anosov"}
PLOT_KINDS = ("limit-set-rp2", "expansion-growth", "margin-histogram", "delta-projection")


class ConfigError(ValueError):
    pass


def _has_kind(value, kind) -> bool:
    """Whether a JSON value has a kind: a type, a tuple of types, or [kind] for a list."""
    if isinstance(kind, list):
        return type(value) is list and all(_has_kind(v, kind[0]) for v in value)
    return type(value) in (kind if isinstance(kind, tuple) else (kind,))


NUMBER = (int, float)  # a JSON number; bool is not one
# morse_depth is morse's word length; rho_cap is morse's keyword, its default the checker's.
# The verdict thresholds every config set alike are constants of subgroup.
OPTION_KINDS = {"morse_depth": int, "rho_cap": NUMBER}
FIELD_KINDS = {"name": str, "n": int, "generators": [[[NUMBER]]], "face": [int], "depth": int,
               "ray_count": int, "ray_depth": int, "seed": (int, type(None)), "checkers": [str],
               "out_dir": str, "options": dict}


@dataclass
class ExperimentConfig:
    """One experiment: group, face type, checker pipeline, knobs."""

    name: str
    n: int
    generators: list  # row-major n x n matrices
    face: list[int]
    depth: int            # word enumeration depth L
    ray_count: int = 20
    ray_depth: int = 10   # prefix depth N for boundary rays
    seed: int | None = None
    checkers: list[str] = field(default_factory=lambda: list(CHECKER_ORDER))
    out_dir: str = "reports"
    options: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict, path: str = "<config>") -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: a config is a JSON object")
        # a misspelt key would otherwise run silently on its default
        opts = raw["options"] if isinstance(raw.get("options"), dict) else {}
        unknown = sorted(set(raw) - {f.name for f in fields(cls)}) + sorted(
            f"options.{k}" for k in set(opts) - set(OPTION_KINDS))
        if unknown:
            raise ConfigError(f"{path}: unknown keys {unknown}")
        try:
            cfg = cls(**raw)
        except TypeError as exc:  # a required field is missing
            raise ConfigError(f"{path}: {exc}") from exc
        cfg.validate(path)
        cfg.options = {k: v if OPTION_KINDS[k] is int else float(v) for k, v in cfg.options.items()}
        return cfg

    @property
    def morse_depth(self) -> int:
        return self.options.get("morse_depth", min(self.depth, 8))

    def validate(self, path: str = "<config>"):
        # integer fields and morse_depth take JSON integers, rho_cap a number; both are finite
        # and positive, as a cap at or below 0 decides on no data
        typed = {k: _has_kind(getattr(self, k), kind) for k, kind in FIELD_KINDS.items()}
        opts = self.options if typed["options"] else {}
        typed.update((f"options.{k}", _has_kind(v, OPTION_KINDS[k])
                      and 0 < v < math.inf) for k, v in opts.items())
        mistyped = sorted(k for k, ok in typed.items() if not ok)
        if mistyped:
            raise ConfigError(f"{path}: values of the wrong type or range for keys {mistyped}")
        if self.n < 2:
            raise ConfigError(f"{path}: n must be >= 2")
        for k, rows in enumerate(self.generators):
            m = np.asarray(rows, dtype=float)
            if m.shape != (self.n, self.n):
                raise ConfigError(f"{path}: generator {k} is not {self.n}x{self.n}")
            if not np.isfinite(m).all():
                raise ConfigError(f"{path}: generator {k} has a non-finite entry")
            det = float(np.linalg.det(m))
            if abs(det - 1.0) > DET_TOL:
                raise ConfigError(f"{path}: generator {k} determinant {det:.8f} is not 1")
        if not self.face or not all(1 <= i <= self.n - 1 for i in self.face):
            raise ConfigError(f"{path}: face indices must lie in 1..{self.n - 1}")
        unknown = [c for c in self.checkers if c not in CHECKER_ORDER]
        if unknown:
            raise ConfigError(f"{path}: unknown checkers {unknown}")
        if self.seed is None and RANDOMIZED_CHECKERS.intersection(self.checkers):
            raise ConfigError(f"{path}: a seed is mandatory for randomized checkers")
        if self.depth < 4:
            raise ConfigError(f"{path}: depth must be >= 4")
        # distinct rays, the words of length ray_depth, or from rank 2 on a count past ray_count
        rank = len(self.generators)
        rays = 2 * rank * (2 * rank - 1) ** min(self.ray_depth - 1, self.ray_count.bit_length())
        # ranges a checker would fail on with a traceback, or certify on no data
        checks = (
            (not self.generators, "'generators' must hold at least one matrix"),
            (self.seed is not None and self.seed < 0, "'seed' must be >= 0"),
            ("morse" in self.checkers and self.morse_depth < 2,
             "'options.morse_depth' must be >= 2 for morse"),
            ("limit" in self.checkers and self.ray_count < 2, "'ray_count' must be >= 2 for limit"),
            ("anosov" in self.checkers and self.ray_count < 1,
             "'ray_count' must be >= 1 for anosov"),
            (RANDOMIZED_CHECKERS.intersection(self.checkers) and self.ray_depth < 2,
             "'ray_depth' must be >= 2 for limit and anosov"),
            ("anosov" in self.checkers and self.ray_depth < 3,
             "'ray_depth' must be >= 3 for anosov, which fits slopes on prefixes"),
            (RANDOMIZED_CHECKERS.intersection(self.checkers) and self.ray_count > rays,
             "'ray_count' exceeds the {rays} distinct rays of length 'ray_depth'"),
            # the word walk refuses them, but only after the earlier checkers' reports
            ("uru" in self.checkers and word_count(rank, self.depth) > MAX_WORDS,
             "'depth' takes over {budget} words for uru, the word walk's budget"),
            ("morse" in self.checkers and word_count(rank, self.morse_depth) > MAX_WORDS,
             "'options.morse_depth' takes over {budget} words for morse, the word walk's budget"),
            ("limit" in self.checkers and not self.face_type().is_iota_invariant,
             "'face' {face} must be invariant under the opposition involution for limit"),
        )
        for failed, message in checks:
            if failed:  # formatted here alone, so that no passing check pays for its message
                raise ConfigError(f"{path}: " + message.format(rays=rays, budget=MAX_WORDS, face=self.face))

    def presentation(self) -> FreeGroupPresentation:
        return FreeGroupPresentation(tuple(np.asarray(g, dtype=float) for g in self.generators))

    def face_type(self) -> FaceType:
        return FaceType.make(self.n, self.face)


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return ExperimentConfig.from_dict(raw, str(path))


def bundled_config_path(name: str) -> Path:
    """Path of a config shipped with the package (e.g. 'sl2-schottky')."""
    fname = name if name.endswith(".json") else f"{name}.json"
    return Path(str(resources.files("anosovcheck").joinpath("configs", fname)))


def _dump_json(payload: dict, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps(payload))


def _clear_reports(out: Path):
    """Remove every report a run may write into ``out``: none of an earlier run outlives it."""
    for name in (*CHECKER_ORDER, "summary", "error"):
        (out / f"{name}.json").unlink(missing_ok=True)


def run_config(path, seed: int | None = None, out_dir: str | None = None) -> int:
    """Execute the pipeline of a config; returns the process exit code."""
    try:
        cfg = load_config(path)
        if seed is not None:
            cfg.seed = seed
            cfg.validate(str(path))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        if out_dir is None:  # the config's own, where the file is a JSON object
            with contextlib.suppress(OSError, ValueError, AttributeError):
                out_dir = json.loads(Path(path).read_text()).get("out_dir", "reports")
        if isinstance(out_dir, (str, Path)):
            _clear_reports(Path(out_dir))
        return 2
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    pres = cfg.presentation()
    face = cfg.face_type()
    reports: dict[str, dict] = {}
    ordered = [c for c in CHECKER_ORDER if c in cfg.checkers]
    # rho_cap where the config sets it, else morse's default
    rho_cap = {k: v for k, v in cfg.options.items() if k == "rho_cap"}
    _clear_reports(out)
    try:
        # uru and morse read one walk of the word tree, as uru_check and morse_check do alone
        scans = {c: scan for c, scan in (("uru", _uru_scan(pres, face, cfg.depth)), (
            "morse", _morse_scan(pres, face, cfg.morse_depth, **rho_cap))) if c in ordered}
        reps = dict(zip(scans, word_checks(pres, face, list(scans.values())) if scans else ()))
        if RANDOMIZED_CHECKERS.intersection(ordered):  # one ray sample, which both read
            sample = sample_rays(pres, cfg.ray_count, cfg.ray_depth, cfg.seed, face)
        for checker in ordered:
            rep = reps.get(checker)
            if checker == "limit":
                rep = limit_report(pres, face, sample)
            elif checker == "anosov":
                rep = anosov_check(pres, face, sample)
            payload = rep.as_dict()
            payload["config"] = {"name": cfg.name, "n": cfg.n, "face": cfg.face,
                                 "seed": cfg.seed, "depth": cfg.depth,
                                 "ray_depth": cfg.ray_depth, "ray_count": cfg.ray_count}
            reports[checker] = payload
            _dump_json(payload, out / f"{checker}.json")
    except (VanishingGap, IllConditioned, PingPongFailed, BudgetExceeded) as exc:
        _dump_json({"error": type(exc).__name__, "message": str(exc)}, out / "error.json")
        print(f"checker hard failure: {exc}", file=sys.stderr)
        return 1
    summary = {
        "name": cfg.name,
        "verdicts": {k: reports[k]["verdict"] for k in reports},
        "seed": cfg.seed,
        "checkers": ordered,
    }
    _dump_json(summary, out / "summary.json")
    for checker in ordered:
        print(f"{cfg.name}: {checker} -> {reports[checker]['verdict']}")
    return 0


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_csv(path: Path, header: list[str], rows: list[list]):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _write_svg(path: Path, w: int, h: int, pad: int, title: str, body: list[str]):
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{pad}" y="24" font-family="monospace" font-size="14">{title}</text>',
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(head + body + ["</svg>"]) + "\n")


def _svg_scatter(path: Path, pts: list[tuple[float, float]], title: str,
                 polylines: list[list[tuple[float, float]]] | None = None):
    w, h, pad = 640, 640, 48
    xs = [p[0] for p in pts] + [q[0] for line in (polylines or []) for q in line]
    ys = [p[1] for p in pts] + [q[1] for line in (polylines or []) for q in line]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = (w - 2 * pad) / max(x1 - x0, 1e-12)
    sy = (h - 2 * pad) / max(y1 - y0, 1e-12)

    def tx(x):
        return pad + (x - x0) * sx

    def ty(y):
        return h - pad - (y - y0) * sy

    parts = []
    for line in polylines or []:
        d = " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}" for x, y in line)
        parts.append(f'<polyline points="{d}" fill="none" stroke="#888" stroke-width="1"/>')
    for x, y in pts:
        parts.append(f'<circle cx="{_fmt(tx(x))}" cy="{_fmt(ty(y))}" r="2.5" fill="#1a66cc"/>')
    _write_svg(path, w, h, pad, title, parts)


def _svg_bars(path: Path, counts: list[int], title: str):
    w, h, pad = 640, 480, 48
    top = max(counts) if counts else 1
    parts = []
    nb = len(counts)
    for k, c in enumerate(counts):
        bw = (w - 2 * pad) / max(nb, 1)
        bh = (h - 2 * pad) * (c / max(top, 1))
        parts.append(
            f'<rect x="{_fmt(pad + k * bw)}" y="{_fmt(h - pad - bh)}" '
            f'width="{_fmt(bw * 0.9)}" height="{_fmt(bh)}" fill="#1a66cc"/>'
        )
    _write_svg(path, w, h, pad, title, parts)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_number_rows(x) -> bool:
    """Whether x is a list of lists of numbers, as a frame, a delta path or the probe points."""
    return isinstance(x, list) and all(isinstance(r, list) and all(map(_is_number, r)) for r in x)


def emit_plot(report_path, kind: str, out_dir: str | None = None) -> list[Path]:
    """Emit a CSV + SVG rendering of one report aspect."""
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}; choose from {PLOT_KINDS}")
    rp = Path(report_path)
    report = json.loads(rp.read_text())
    det = report.get("details", {}) if isinstance(report, dict) else None
    if not isinstance(det, dict):
        raise ValueError(f"{report_path}: a report and its 'details' are JSON objects")
    rays, points, deltas = det.get("rays", []), det.get("probe_points", []), det.get("deltas", {})
    if not (isinstance(rays, list) and all(isinstance(r, dict) for r in rays)
            and isinstance(points, list) and all(isinstance(p, list) for p in points)
            and isinstance(deltas, dict) and all(isinstance(d, list) for d in deltas.values())):
        raise ValueError(f"{report_path}: 'rays' is a list of objects, 'probe_points' a list "
                         "of lists and 'deltas' an object of lists")
    out = Path(out_dir) if out_dir is not None else rp.parent
    stem = f"{rp.stem}-{kind}"
    csv_path = out / f"{stem}.csv"
    svg_path = out / f"{stem}.svg"

    if kind == "limit-set-rp2":
        rows = []
        pts = []
        for i, ray in enumerate(rays):
            frame = ray.get("limit_flag_frame", [])
            if not _is_number_rows(frame):
                raise ValueError(f"{report_path}: ray {i}'s 'limit_flag_frame' is rows of numbers")
            frame = np.asarray(frame, dtype=float)
            if frame.size == 0 or frame.shape[0] != 3:
                continue
            v = frame[:, 0]
            if abs(v[0]) < 1e-6:
                rows.append([i, "", "", "at-infinity"])
                continue
            x, y = float(v[1] / v[0]), float(v[2] / v[0])
            rows.append([i, x, y, "ok"])
            pts.append((x, y))
        _write_csv(csv_path, ["ray", "x", "y", "status"], rows)
        _svg_scatter(svg_path, pts, "limit set, affine chart of the projective plane")
    elif kind == "expansion-growth":
        rows = []
        lines = []
        pts = []
        for i, ray in enumerate(rays):
            les = ray.get("log_eps", [])
            slope = ray.get("slope", 0.0)
            intercept = ray.get("intercept", 0.0)
            if not (isinstance(les, list) and all(map(_is_number, [*les, slope, intercept]))):
                raise ValueError(f"{report_path}: ray {i}'s 'log_eps' is a list of numbers, "
                                 "its 'slope' and 'intercept' numbers")
            line = []
            for n, le in enumerate(les, start=1):
                rows.append([i, n, float(le), float(slope * n + intercept)])
                pts.append((float(n), float(le)))
                line.append((float(n), float(slope * n + intercept)))
            if line:
                lines.append(line)
        _write_csv(csv_path, ["ray", "n", "log_expansion", "fit"], rows)
        _svg_scatter(svg_path, pts, "log expansion factor vs prefix length", lines)
    elif kind == "margin-histogram":
        if not (_is_number_rows(points) and all(len(p) == 4 for p in points)):
            raise ValueError(f"{report_path}: each of 'probe_points' is 4 numbers")
        vals = [float(p[3]) for p in points]
        if not vals:
            for i, ray in enumerate(rays):
                if "conical_geometric_sup" in ray:
                    if not _is_number(ray["conical_geometric_sup"]):
                        raise ValueError(f"{report_path}: ray {i}'s 'conical_geometric_sup' "
                                         "is a number")
                    vals.append(float(ray["conical_geometric_sup"]))
        rows, counts, title = [], [], "margin histogram (empty)"
        if vals:
            arr = np.array(vals)
            span = (float(arr.min()), float(arr.max()))
            if span[1] - span[0] <= 1e-9 * max(1.0, abs(span[1])):
                span = (span[0] - 0.5, span[1] + 0.5)
            counts, edges = np.histogram(arr, bins=16, range=span)
            rows = [[float(lo), float(hi), int(c)] for lo, hi, c in zip(edges, edges[1:], counts)]
            title = "margin histogram"
        _write_csv(csv_path, ["lo", "hi", "count"], rows)
        _svg_bars(svg_path, list(counts), title)
    else:  # delta-projection
        rows = []
        lines = []
        pts = []
        b1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        b2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
        for key in sorted(deltas, key=lambda s: int(s)):
            if not _is_number_rows(deltas[key]):
                raise ValueError(f"{report_path}: delta path {key} is rows of numbers")
            line = []
            for step, d in enumerate(deltas[key]):
                d = np.asarray(d, dtype=float)
                if d.size != 3:
                    continue
                x, y = float(d @ b1), float(d @ b2)
                rows.append([int(key), step, x, y])
                line.append((x, y))
                pts.append((x, y))
            if line:
                lines.append(line)
        _write_csv(csv_path, ["ray", "step", "x", "y"], rows)
        _svg_scatter(svg_path, pts, "chamber projection paths", lines)
    return [csv_path, svg_path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="anosovcheck",
                                     description="run subgroup property checkers")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a config pipeline")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out-dir", default=None)
    p_plot = sub.add_parser("plot", help="emit a plot from a report")
    p_plot.add_argument("report")
    p_plot.add_argument("--kind", required=True, choices=PLOT_KINDS)
    p_plot.add_argument("--out-dir", default=None)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_config(args.config, seed=args.seed, out_dir=args.out_dir)
    try:
        paths = emit_plot(args.report, args.kind, args.out_dir)
    except (ValueError, OSError) as exc:
        print(f"plot error: {exc}", file=sys.stderr)
        return 2
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
