"""Flag limits and conical convergence of sequences in SL(n,R).

The asymptotic notions are replaced by finite-data verdicts with
explicit thresholds: a flag limit by a Cauchy residual tail, conical
convergence by a cone-distance bound and a transversality floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chamber import FaceType, flat_cone_deficit, iota_face
from .errors import VanishingGap
from .flags import (
    GAP_TOL,
    Flag,
    act_on_flag,
    attractive_flag,
    flag_distance,
    transversality_margin,
)
from .reports import PropertyReport
from .symmspace import adapted_coordinates, factored_coords_pair, spd_sqrt

# Every conical test's floor on pulled-back flags' transversality to the backward limit.
CONICAL_MARGIN_FLOOR = 0.05
LIMIT_TOL = 1e-6       # flag limits: Cauchy residual tail below which a sequence converges
CLUSTER_RADIUS = 0.1   # flag limits: distance at which a tail flag starts a new cluster


@dataclass
class FlagLimitResult:
    flag: Flag | None
    residuals: np.ndarray
    converged: bool
    clusters: list[Flag] = field(default_factory=list)


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
    plus, _, gaps = attractive_flag(np.asarray(gs, dtype=float), face, tol=-np.inf)
    least = gaps.min(axis=-1)
    if least[-1] < GAP_TOL:
        raise VanishingGap(f"terminal element irregular: log singular-value gap "
                           f"{least[-1]:.3e} below {GAP_TOL:.1e}")
    flags = plus[~(least < GAP_TOL)]  # the regular elements
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


def flag_limits(flags: Flag) -> np.ndarray:
    """Whether each regular flag sequence of a stack (R, N) has a limit, as flag_limit decides."""
    return _limit_verdicts(flags, LIMIT_TOL, CLUSTER_RADIUS)[2]


def conical_check(gs, tau: Flag, x, rho: float = 2.0) -> PropertyReport:
    """Test conical approach of an orbit sequence toward a limit flag.

    Geometric side: each orbit point must stay within rho of the nested
    cones toward the flag, measured against the cone at the limit flag
    directly, which is reliable only at moderate orbit scales.  Dynamical
    side: the pulled-back flags g_n^{-1} tau must keep a transversality
    floor from the backward limit flag.
    """
    mats = np.asarray(gs, dtype=float)
    face = tau.face
    xm = np.asarray(x, dtype=float)
    inv_mats = np.linalg.inv(mats)
    basis, _ = adapted_coordinates(xm, tau)
    binv = np.linalg.inv(basis)
    xroot = spd_sqrt(xm)
    xroot_inv = np.linalg.inv(xroot)
    v, off = factored_coords_pair(binv @ mats @ xroot, xroot_inv @ inv_mats @ basis, face)
    scores = np.maximum(off, flat_cone_deficit(v, face))
    geometric_sup = float(scores.max())
    geometric_ok = bool(geometric_sup <= rho)
    dyn_ok = None
    dyn_margin = None
    try:
        back = flag_limit(inv_mats, iota_face(face))
        if back.flag is not None:
            margins = transversality_margin(act_on_flag(inv_mats, tau), back.flag)
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
