"""Flag limits and conical convergence of sequences in SL(n,R).

The asymptotic notions are replaced by finite-data verdicts with
explicit thresholds: a flag limit by a Cauchy residual tail, conical
convergence by a cone-distance bound and a transversality floor
(``rules.conical``).
"""

from __future__ import annotations

import math

import numpy as np

from . import rules
from .chamber import flat_cone_deficit, iota_face
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

LIMIT_TOL = 1e-6       # flag limits: Cauchy residual tail below which a sequence converges
CLUSTER_RADIUS = 0.1   # flag limits: distance at which a tail flag starts a new cluster


def flag_limits(flags: Flag) -> np.ndarray:
    """Whether each regular flag sequence of a stack (..., N) has a limit, its last flag.

    A sequence has one when its Cauchy residual tail sits below LIMIT_TOL, or
    when greedy clustering of its tail (the second half) in sequence order
    makes one cluster: no tail flag lies beyond CLUSTER_RADIUS from the first.
    """
    residuals = flag_distance(flags[..., :-1, :, :], flags[..., 1:, :, :])
    converged = (residuals[..., -max(1, residuals.shape[-1] // 4):] < LIMIT_TOL).all(axis=-1)
    tail = flags[..., flags.frame.shape[-3] // 2:, :, :]
    return converged | ~(flag_distance(tail, tail[..., :1, :, :]) > CLUSTER_RADIUS).any(axis=-1)


def conical_check(gs, tau: Flag, x, rho: float = rules.CONICAL_RHO) -> PropertyReport:
    """Test conical approach of an orbit sequence toward a limit flag.

    Geometric side: each orbit point must stay within rho of the nested
    cones toward the flag, measured against the cone at the limit flag
    directly, which is reliable only at moderate orbit scales.  Dynamical
    side: the pulled-back flags g_n^{-1} tau must keep a transversality
    floor from the backward limit flag, and fail if the last element is
    irregular.
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
    # the backward limit is the last of the inverses' flags, taken over their regular ones;
    # an irregular last element has none, so no margin: its dynamical side is read, and fails
    back, _, gaps = attractive_flag(inv_mats, iota_face(face), tol=-np.inf)
    regular = ~(gaps.min(axis=-1) < GAP_TOL)
    limited = not regular[-1] or bool(flag_limits(back[regular]))
    dyn_margin = math.nan
    if regular[-1] and limited:
        margins = transversality_margin(act_on_flag(inv_mats, tau), back[-1])
        dyn_margin = float(margins[len(margins) // 2:].min())
    verdict, parts, thresholds = rules.conical(geometric_sup, dyn_margin, limited, rho)
    return PropertyReport(
        name="conical-convergence",
        verdict=bool(verdict),
        constants={"geometric_sup": geometric_sup,
                   "dynamical_min_margin": None if math.isnan(dyn_margin) else dyn_margin},
        thresholds=thresholds,
        details={
            "scores": scores,
            "geometric_ok": bool(parts["geometric_ok"]),
            "dynamical_ok": bool(parts["dynamical_ok"]) if limited else None,
        },
    )
