"""Every verdict is its rule applied to figures its report publishes.

On each atlas row, the three bundled configs among them, every verdict and
sub-verdict is re-derived from the row's reports alone through ``rules``,
and each rule's thresholds are the report's.  Each rule's deciding figure,
moved one ulp past its threshold, flips its verdict or sub-verdict.
"""

import copy
import math

import numpy as np
import pytest

from anosovcheck import rules
from anosovcheck.cli import CHECKER_ORDER
from test_atlas import ATLAS


def ruling(checker, rep):
    """(verdict, sub-verdicts, thresholds) of a checker's rule on its report's figures."""
    c, d = rep["constants"], rep["details"]
    if checker == "uru":
        return rules.uru(c["c_certificate"], c["uniform_ratio_min"])
    if checker == "morse":
        return rules.morse(c["rho"], c["theta_gap"], d["vanishing_gap_count"],
                           rep["thresholds"]["rho_cap"])
    if checker == "limit":
        return rules.limit(c["antipodality_margin"], [r["conical"] for r in d["rays"]],
                           rep["witnesses"]["failures"])
    return rules.anosov(c["C"], c["max_slope_deviation"], c["irregular_rays"],
                        [r["max_log_eps"] for r in d["rays"]],
                        [r["best_eps"] for r in d["cea_records"]])


@pytest.mark.parametrize("checker", CHECKER_ORDER)
@pytest.mark.parametrize("row", ATLAS)
def test_verdict_is_its_rule_of_the_report(atlas_reports, row, checker):
    rep = atlas_reports(row)[checker]
    verdict, parts, thresholds = ruling(checker, rep)
    assert verdict is rep["verdict"]
    assert {k: rep["details"][k] for k in parts} == parts
    assert all(type(v) is bool for v in parts.values())
    assert {k: rep["thresholds"][k] for k in thresholds} == thresholds


@pytest.mark.parametrize("row", ATLAS)
def test_conical_rays_keep_the_geometric_side(atlas_reports, row):
    # a ray's transversality margin is not published, so limit's rule reads its conical
    # bit; that bit holds only where the ray's published sup passes the conical rule
    for ray in atlas_reports(row)["limit"]["details"]["rays"]:
        geometric = rules.conical(ray["conical_geometric_sup"], math.nan, False)[0]
        assert geometric or not ray["conical"]


def below(x):
    return float(np.nextafter(x, -np.inf))


def above(x):
    return float(np.nextafter(x, np.inf))


# checker, the path of its deciding figure in its report, the figure's value that passes at
# the threshold and the one an ulp past it, and the sub-verdict the figure decides
FLIPS = [
    ("uru", ("constants", "c_certificate"), rules.C_FLOOR, below(rules.C_FLOOR), "undistorted"),
    ("uru", ("constants", "uniform_ratio_min"), rules.RATIO_FLOOR, below(rules.RATIO_FLOOR),
     "uniformly_regular"),
    ("morse", ("constants", "rho"), rules.RHO_CAP, above(rules.RHO_CAP), None),
    ("morse", ("constants", "theta_gap"), rules.THETA_FLOOR, below(rules.THETA_FLOOR), None),
    ("limit", ("constants", "antipodality_margin"), rules.ANTIPODAL_FLOOR,
     below(rules.ANTIPODAL_FLOOR), "antipodal"),
    ("anosov", ("constants", "max_slope_deviation"), rules.UNIFORM_DEV, above(rules.UNIFORM_DEV),
     "uniform"),
    ("anosov", ("constants", "C"), above(0.0), 0.0, "uniform"),
    ("anosov", ("details", "rays", 0, "max_log_eps"), rules.DIVERGENCE_LOGEPS,
     below(rules.DIVERGENCE_LOGEPS), "non_uniform"),
    ("anosov", ("details", "cea_records", 0, "best_eps"), 1.0 + rules.EXPANSION_FLOOR,
     below(1.0 + rules.EXPANSION_FLOOR), "cea"),
]


@pytest.mark.parametrize("checker, path, at, past, part", FLIPS,
                         ids=[f"{f[0]}-{f[1][-1]}" for f in FLIPS])
def test_one_ulp_past_the_threshold_flips_the_rule(atlas_reports, checker, path, at, past, part):
    # sl2-schottky passes every rule and sub-verdict: its deciding figure, moved to the
    # threshold, still passes, and one ulp past it fails
    rulings = []
    for value in (at, past):
        rep = copy.deepcopy(atlas_reports("sl2-schottky")[checker])
        owner = rep
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        rulings.append(ruling(checker, rep))
    if part:
        assert [parts[part] for _, parts, _ in rulings] == [True, False]
    # anosov's verdict is its uniform sub-verdict alone
    decides = part not in ("non_uniform", "cea")
    assert [verdict for verdict, _, _ in rulings] == [True, not decides]


def test_conical_rule_flips_one_ulp_past_each_threshold():
    floor, rho = rules.CONICAL_MARGIN_FLOOR, rules.CONICAL_RHO
    assert rules.conical(rho, floor, True)[0]
    assert not rules.conical(above(rho), floor, True)[0]
    assert not rules.conical(rho, below(floor), True)[0]
    # without a backward limit the margin goes unread, and a margin that was not read fails
    assert rules.conical(rho, below(floor), False)[0]
    assert not rules.conical(rho, math.nan, True)[0]
    # elementwise over rays, as limit reads it
    verdicts = rules.conical(np.array([rho, above(rho), rho]), np.array([floor, floor, 0.0]),
                             np.array([True, True, False]))[0]
    assert verdicts.tolist() == [True, False, True]
