"""Finite-data classification of sequences in SL(n,R).

Asymptotic notions (regularity, pureness, contraction, flag and conical
convergence) are replaced by windowed verdicts with explicit thresholds;
every report records the thresholds so verdicts are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .chamber import (
    FaceType,
    check_cartan_vector,
    face_boundary_distance,
    flat_cone_deficit,
    iota_face,
    project_to_face_sector,
    wall_gaps,
)
from .errors import VanishingGap
from .flags import (
    GAP_TOL,
    Flag,
    act_on_flag,
    attractive_flag,
    flag_distance,
    random_flag,
    transversality_margin,
)
from .reports import PropertyReport, SequenceReport
from .symmspace import (
    _mat,
    adapted_coordinates,
    factored_coords_pair,
    spd_sqrt,
)

# Every conical test's floor on pulled-back flags' transversality to the backward limit.
CONICAL_MARGIN_FLOOR = 0.05
LIMIT_TOL = 1e-6       # flag limits: Cauchy residual tail below which a sequence converges
CLUSTER_RADIUS = 0.1   # flag limits: distance at which a tail flag starts a new cluster


@dataclass(frozen=True)
class ClassifyThresholds:
    """Knobs of the windowed sequence classifier."""

    slope_min: float = 0.01       # least-squares gap slope counted as growth
    gap_floor: float = 1.0        # final gap needed for a growing wall
    ratio_floor: float = 0.05     # margin / norm floor for uniformity
    bound_ceiling: float = 5.0    # max gap allowed for a bounded wall
    pure_dist_ceiling: float = 5.0  # max sector distance for pureness

    def as_dict(self) -> dict:
        return {
            "slope_min": self.slope_min,
            "gap_floor": self.gap_floor,
            "ratio_floor": self.ratio_floor,
            "bound_ceiling": self.bound_ceiling,
            "pure_dist_ceiling": self.pure_dist_ceiling,
        }


def _fit_slope(ys: np.ndarray) -> float:
    xs = np.arange(len(ys), dtype=float)
    if len(ys) < 2:
        return 0.0
    return float(np.polyfit(xs, ys, 1)[0])


def _wall_state(gaps: np.ndarray, th: ClassifyThresholds) -> str:
    # One wall's gap sequence over the window: growing, bounded or unclear.
    slope = _fit_slope(gaps)
    if gaps[-1] >= th.gap_floor and slope >= th.slope_min:
        return "growing"
    if gaps.max() <= th.bound_ceiling:
        return "bounded"
    return "unclear"


def classify_sequence(deltas, face: FaceType, window: int,
                      thresholds: ClassifyThresholds = ClassifyThresholds()) -> SequenceReport:
    """Classify a chamber-vector sequence over a tail-anchored window.

    Regularity requires every kept wall gap to grow over the window (this
    makes the verdict monotone under face containment); uniformity
    requires the margin/norm ratio floor on the tail; the detected pure
    face is the minimal one whose sector stays near while its own walls
    grow.
    """
    ds = [check_cartan_vector(d) for d in deltas]
    if len(ds) < 3:
        raise ValueError("need at least 3 terms")
    window = min(window, len(ds))
    arr = np.stack(ds)
    tail = arr[-window:]
    margins = np.array([face_boundary_distance(d, face) for d in arr])
    norms = np.linalg.norm(arr, axis=1)

    full = FaceType.full(face.n)
    all_gaps = np.stack([wall_gaps(d, full) for d in tail])  # window x (n-1)
    states = {i: _wall_state(all_gaps[:, i - 1], thresholds) for i in range(1, face.n)}

    regular = all(states[i] == "growing" for i in face.dims)
    ratio_tail = margins[-window:] / np.maximum(norms[-window:], 1e-300)
    uniform_ratio_min = float(min(ratio_tail.min(), 1.0))
    uniform = regular and uniform_ratio_min >= thresholds.ratio_floor

    # Pure face: minimal by size, then lexicographically.
    detected = None
    walls = list(range(1, face.n))
    for size in range(1, face.n):
        for combo in itertools.combinations(walls, size):
            cand = FaceType.make(face.n, combo)
            dist = max(
                float(np.linalg.norm(d - project_to_face_sector(d, cand))) for d in tail
            )
            if dist > thresholds.pure_dist_ceiling:
                continue
            gaps = np.stack([wall_gaps(d, cand) for d in tail])
            if all(_wall_state(gaps[:, k], thresholds) == "growing" for k in range(size)):
                detected = cand
                break
        if detected is not None:
            break

    inconclusive = any(states[i] == "unclear" for i in face.dims)
    return SequenceReport(
        face_margins=margins,
        norms=norms,
        regular=regular,
        uniform=uniform,
        regular_margin_slope=_fit_slope(margins[-window:]),
        uniform_ratio_min=uniform_ratio_min,
        detected_pure_face=detected,
        thresholds=thresholds.as_dict(),
        window=window,
        inconclusive=inconclusive,
    )


def sample_transverse_flags(face: FaceType, opposite: Flag, count: int,
                            rng: np.random.Generator, margin_floor: float,
                            max_tries: int = 10_000) -> list[Flag]:
    """Random flags on the open stratum at a transversality floor.

    The floor plays the role of a compact exhaustion parameter for the
    open stratum opposite the given flag.
    """
    out: list[Flag] = []
    tries = 0
    while len(out) < count and tries < max_tries:
        tries += 1
        f = random_flag(face, rng)
        if transversality_margin(f, opposite) >= margin_floor:
            out.append(f)
    if len(out) < count:
        raise RuntimeError("could not sample enough transverse flags")
    return out


def detect_contraction(gs, face: FaceType, samples: int = 100, seed: int = 0,
                       margin_floor: float = 0.05, decay_threshold: float = 1e-2,
                       tol: float = 1e-9) -> PropertyReport:
    """Detect contraction of a sequence toward a flag pair.

    The candidate flags come from the last element; sampled flags
    transverse to the repelling flag are pushed forward and their maximal
    distance to the attracting flag must decay below threshold.  An
    irregular terminal element yields a negative verdict with the
    vanishing-gap reason recorded rather than an exception.
    """
    mats = [_mat(g) for g in gs]
    if len(mats) < 2:
        raise ValueError("need at least 2 elements")
    try:
        plus, minus, gaps = attractive_flag(mats[-1], face, tol=tol)
    except VanishingGap as exc:
        return PropertyReport(
            name="contraction",
            verdict=False,
            thresholds={"margin_floor": margin_floor, "decay_threshold": decay_threshold},
            details={"reason": "vanishing-gap", "detail": str(exc)},
            seed=seed,
        )
    rng = np.random.default_rng(seed)
    flags = sample_transverse_flags(face, minus, samples, rng, margin_floor)
    dists = []
    for g in mats:
        worst = max(flag_distance(act_on_flag(g, f), plus) for f in flags)
        dists.append(worst)
    dists = np.array(dists)
    verdict = bool(dists[-1] <= decay_threshold and dists[-1] <= 0.5 * dists.max())
    return PropertyReport(
        name="contraction",
        verdict=verdict,
        constants={"final_max_distance": float(dists[-1]), "peak": float(dists.max()),
                   "terminal_gaps": gaps},
        thresholds={"margin_floor": margin_floor, "decay_threshold": decay_threshold,
                    "samples": samples},
        details={"max_distances": dists},
        seed=seed,
    )


@dataclass
class FlagLimitResult:
    flag: Flag | None
    residuals: np.ndarray
    converged: bool
    clusters: list[Flag] = field(default_factory=list)

    @property
    def inconclusive(self) -> bool:
        return not self.converged and len(self.clusters) >= 2


def _limit_verdicts(flags: Flag, tol: float, cluster_radius: float):
    """(residuals, converged, has a limit) of regular flag sequences along the last batch axis."""
    residuals = flag_distance(flags[..., :-1, :, :], flags[..., 1:, :, :])
    converged = (residuals[..., -max(1, residuals.shape[-1] // 4):] < tol).all(axis=-1)
    # A limit, the last flag, exists iff converged or the greedy clustering of the tail
    # makes one cluster, i.e. no tail flag lies beyond cluster_radius from the first.
    tail = flags[..., flags.frame.shape[-3] // 2:, :, :]
    spread = flag_distance(tail, tail[..., :1, :, :])
    return residuals, converged, converged | ~(spread > cluster_radius).any(axis=-1)


def flag_limit(gs, face: FaceType, tol: float = LIMIT_TOL,
               cluster_radius: float = CLUSTER_RADIUS) -> FlagLimitResult:
    """Limit of the attracting flags along a sequence, with Cauchy residuals.

    Convergence is declared when the residual tail sits below tolerance;
    oscillating residuals yield an inconclusive result carrying the
    cluster flags.  Raises VanishingGap if the terminal element is not
    regular for the face type.
    """
    mats = np.stack([_mat(g) for g in gs])
    try:
        attractive_flag(mats[-1], face)
    except VanishingGap as exc:
        raise VanishingGap(f"terminal element irregular: {exc}") from exc
    plus, _, gaps = attractive_flag(mats, face, tol=-np.inf)
    flags = plus[~(gaps.min(axis=-1) < GAP_TOL)]  # the regular elements
    residuals, converged, has_limit = _limit_verdicts(flags, tol, cluster_radius)
    if converged:
        return FlagLimitResult(flags[-1], residuals, True)
    # Cluster the tail flags greedily in sequence order: the next cluster is
    # the first flag apart from every cluster so far.
    tail_flags = flags[len(flags.frame) // 2:]
    apart = np.ones(len(tail_flags.frame), dtype=bool)
    clusters: list[Flag] = []
    while apart.any():
        k = int(np.argmax(apart))
        clusters.append(tail_flags[k])
        apart &= flag_distance(tail_flags, clusters[-1]) > cluster_radius
        apart[k] = False
    return FlagLimitResult(flags[-1] if has_limit else None, residuals, False, clusters)


def flag_limits(mats, face: FaceType):
    """flag_limit of every sequence in a stack (R, N, n, n): (last flags, has_limit, irregular)."""
    plus, _, gaps = attractive_flag(mats, face, tol=-np.inf)
    regular = ~(gaps.min(axis=-1) < GAP_TOL)
    has_limit = _limit_verdicts(plus, LIMIT_TOL, CLUSTER_RADIUS)[2] & regular.all(axis=-1)
    for r in np.flatnonzero(regular[:, -1] & ~regular.all(axis=-1)):  # ragged regular rows
        has_limit[r] = flag_limit(mats[r], face).flag is not None
    return plus[:, -1], has_limit, ~regular[:, -1]  # irregular: where flag_limit raises


def conical_check(gs, tau: Flag, x, rho: float = 2.0) -> PropertyReport:
    """Test conical approach of an orbit sequence toward a limit flag.

    Geometric side: each orbit point must stay within rho of the nested
    cones toward the flag, measured against the cone at the limit flag
    directly, which is reliable only at moderate orbit scales.  Dynamical
    side: the pulled-back flags g_n^{-1} tau must keep a transversality
    floor from the backward limit flag.
    """
    mats = [_mat(g) for g in gs]
    face = tau.face
    xm = _mat(x)
    inv_mats = [np.linalg.inv(g) for g in mats]
    basis, _ = adapted_coordinates(xm, tau)
    binv = np.linalg.inv(basis)
    xroot = spd_sqrt(xm)
    xroot_inv = np.linalg.inv(xroot)
    v, off = factored_coords_pair(binv @ np.stack(mats) @ xroot,
                                  xroot_inv @ np.stack(inv_mats) @ basis, face)
    scores = np.maximum(off, flat_cone_deficit(v, face))
    geometric_sup = float(scores.max())
    geometric_ok = bool(geometric_sup <= rho)
    dyn_ok = None
    dyn_margin = None
    try:
        back = flag_limit(inv_mats, iota_face(face))
        if back.flag is not None:
            margins = transversality_margin(act_on_flag(np.stack(inv_mats), tau), back.flag)
            tail = margins[len(margins) // 2:]
            dyn_margin = float(tail.min())
            dyn_ok = bool(dyn_margin >= CONICAL_MARGIN_FLOOR)
    except VanishingGap:
        dyn_ok = False
    verdict = bool(geometric_ok and (dyn_ok is not False))
    return PropertyReport(
        name="conical-convergence",
        verdict=verdict,
        constants={"geometric_sup": geometric_sup, "dynamical_min_margin": dyn_margin},
        thresholds={"rho": rho, "margin_floor": CONICAL_MARGIN_FLOOR},
        details={
            "scores": scores,
            "geometric_ok": geometric_ok,
            "dynamical_ok": dyn_ok,
        },
    )
