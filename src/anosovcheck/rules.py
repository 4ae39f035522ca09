"""Verdict rules: every threshold a verdict reads, and one function per rule.

A rule takes figures that its checker's report publishes and returns
(verdict, sub-verdicts, thresholds): the sub-verdicts are the report's
``details`` entries of those names, and the thresholds its ``thresholds``
entries, so that a verdict is re-derived from its report alone.  The
thresholds are fixed by the method rather than set per experiment, except
morse's ``rho_cap``, whose default is RHO_CAP.  Algorithm parameters, such as
probe depths, tie tolerances and block sizes, stay with the code that reads them.
"""

from __future__ import annotations

import math

import numpy as np

C_FLOOR = 0.05         # uru: least certified slope of orbit distance over word length
RATIO_FLOOR = 0.05     # uru: least wall-margin/norm ratio on the tail
RHO_CAP = 1.0          # morse: default cap on the worst diamond deficit
THETA_FLOOR = 0.1      # morse: least normalized wall gap
ANTIPODAL_FLOOR = 0.01  # limit: least transversality margin of limit flags in disjoint cylinders
CONICAL_RHO = 2.0      # conical: largest window deficit along a conical ray
CONICAL_MARGIN_FLOOR = 0.05  # conical: least margin of pulled-back flags from the backward limit
UNIFORM_DEV = 0.2      # anosov: largest relative deviation of a ray's slope from the mean
DIVERGENCE_LOGEPS = math.log(100.0)  # anosov: log expansion counted as divergent
EXPANSION_FLOOR = 0.05  # anosov: least excess over 1 of the best short word's expansion


def uru(c_certificate: float, uniform_ratio_min: float):
    """uru's verdict: undistorted and uniformly regular.

    Undistorted where the certified slope keeps C_FLOOR, uniformly regular
    where the least wall-margin/norm ratio keeps RATIO_FLOOR.
    """
    undistorted = bool(c_certificate >= C_FLOOR)
    uniformly_regular = bool(uniform_ratio_min >= RATIO_FLOOR)
    return (undistorted and uniformly_regular,
            {"undistorted": undistorted, "uniformly_regular": uniformly_regular},
            {"c_floor": C_FLOOR, "ratio_floor": RATIO_FLOOR})


def morse(rho: float, theta_gap: float | None, vanishing_gap_count: int, rho_cap: float = RHO_CAP):
    """Morse if no word's gap vanishes, rho is at most rho_cap and the type gap keeps THETA_FLOOR.

    ``theta_gap`` is None where no word is regular.
    """
    verdict = bool(not vanishing_gap_count and rho <= rho_cap
                   and (theta_gap is None or theta_gap >= THETA_FLOOR))
    return verdict, {}, {"rho_cap": rho_cap, "theta_floor": THETA_FLOOR}


def conical(sup, margin, limited, rho: float = CONICAL_RHO):
    """Conical approach toward a limit flag, elementwise over rays.

    Geometric side: the largest deficit ``sup`` is at most rho.  Dynamical
    side, read where ``limited``, where the pulled-back flags have a
    backward limit: their least transversality ``margin`` to it keeps
    CONICAL_MARGIN_FLOOR; a NaN margin, one that could not be read, fails.
    """
    geometric_ok = np.less_equal(sup, rho)
    dynamical_ok = np.greater_equal(margin, CONICAL_MARGIN_FLOOR)
    return (geometric_ok & (dynamical_ok | np.logical_not(limited)),
            {"geometric_ok": geometric_ok, "dynamical_ok": dynamical_ok},
            {"rho": rho, "margin_floor": CONICAL_MARGIN_FLOOR})


def limit(antipodality_margin: float | None, conical_rays, failures: list):
    """Antipodal if the cross margin keeps ANTIPODAL_FLOOR, with every ray conical and regular.

    ``antipodality_margin`` is None where no two rays lie in disjoint
    cylinders; ``conical_rays`` holds each ray's conical verdict, and
    ``failures`` the irregular rays.
    """
    antipodal = antipodality_margin is not None and antipodality_margin >= ANTIPODAL_FLOOR
    all_conical = all(conical_rays)
    return (bool(not failures and antipodal and all_conical),
            {"antipodal": antipodal, "all_conical": all_conical},
            {"antipodal_floor": ANTIPODAL_FLOOR, "conical_rho": CONICAL_RHO})


def anosov(least_slope: float, max_slope_deviation: float | None, irregular_rays: int,
           max_log_eps, best_eps):
    """anosov's verdict, uniform expansion, with its non-uniform and stratum-expansion sub-verdicts.

    Uniform: every sampled ray is regular and expands at a positive slope
    within UNIFORM_DEV of the mean (``max_slope_deviation``, None where the
    mean is not positive).  Non-uniform: every ray's largest log expansion
    ``max_log_eps`` reaches DIVERGENCE_LOGEPS.  Stratum expansion (cea): at
    every ray, the best short word expands by ``best_eps`` >= 1 + EXPANSION_FLOOR.
    """
    sampled = bool(irregular_rays == 0 and len(max_log_eps) > 0)
    uniform = bool(sampled and least_slope > 0.0 and max_slope_deviation is not None
                   and max_slope_deviation <= UNIFORM_DEV)
    non_uniform = sampled and all(e >= DIVERGENCE_LOGEPS for e in max_log_eps)
    cea = not any(e < 1.0 + EXPANSION_FLOOR for e in best_eps)
    return (uniform, {"uniform": uniform, "non_uniform": non_uniform, "cea": cea},
            {"uniform_dev": UNIFORM_DEV, "divergence_logeps": DIVERGENCE_LOGEPS,
             "expansion_floor": EXPANSION_FLOOR})
