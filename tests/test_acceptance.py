"""Acceptance suite: one criterion per test, one printed verdict line each.

Tolerances are pinned here; the pipeline criteria consume the shared
bundled-config runs from the session fixture.
"""

import time

import numpy as np
from scipy.linalg import eigh

from anosovcheck.chamber import (
    FaceType,
    ThetaSpec,
    face_boundary_distance,
    iota_vector,
)
from anosovcheck.cli import bundled_config_path, run_config
from anosovcheck.flags import Flag, expansion_factor, random_flag
from anosovcheck.symmspace import (
    WeylConeRef,
    act_point,
    cartan_vector,
    cone_query,
    delta_projection,
    normalize_det,
    riemannian_distance,
    taumod_distance,
)
from oracles import (
    expansion_factor_fd,
    flat_cone_member,
    random_regular_cone_vector,
    random_sl,
    random_spd_unit_det,
    theta_boundary_angle,
)

FACE_FULL = FaceType.full(3)
FACE1 = FaceType.make(3, [1])
O3 = np.eye(3)


def _verdict(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def diag_point(*logs):
    return np.diag(np.exp(np.array(logs, dtype=float)))


def test_criterion_1_delta_distance_algebra():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_inv = 0.0
    worst_dist = 0.0
    for _ in range(1000):
        x = random_spd_unit_det(rng, 3, scale=0.55)
        y = random_spd_unit_det(rng, 3, scale=0.55)
        d_xy = cartan_vector(x, y)
        d_yx = cartan_vector(y, x)
        worst_inv = max(worst_inv, float(np.max(np.abs(d_yx - iota_vector(d_xy)))))
        # independent route: the generalized symmetric eigenproblem y v = l x v
        # has the spectrum of x^{-1} y, without a square root of x
        d_indep = 0.5 * np.linalg.norm(np.log(eigh(y, x, eigvals_only=True)))
        worst_dist = max(worst_dist, abs(float(np.linalg.norm(d_xy)) - d_indep))
    elapsed = time.perf_counter() - t0
    ok = worst_inv < 1e-9 and worst_dist < 1e-9 and elapsed < 5.0
    _verdict(1, ok, f"swap residual {worst_inv:.2e}, distance residual "
                    f"{worst_dist:.2e}, {elapsed:.1f}s on 1000 pairs")


def test_criterion_2_projection_theorems():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    # 500 cone-nested triples: chamber side lengths stay in the shifted cone
    triples_ok = 0
    for _ in range(500):
        q = random_sl(rng, 3, scale=0.4)
        v1 = random_regular_cone_vector(rng, FACE1, min_gap=0.05, scale=1.2)
        v2 = random_regular_cone_vector(rng, FACE1, min_gap=0.05, scale=1.2)
        x = act_point(q, O3)
        y = act_point(q, diag_point(*v1))
        z = act_point(q, diag_point(*(v1 + v2)))
        step = cartan_vector(x, z) - cartan_vector(x, y)
        if flat_cone_member(step, FACE1, slack=1e-7):
            triples_ok += 1
    # 100 synthesized type-bounded geodesics: additivity and comparability
    theta = ThetaSpec(FACE_FULL, 0.2)
    eps_theta = np.sin(theta_boundary_angle(theta))
    additivity_worst = 0.0
    comparability_ok = True
    for _ in range(100):
        q = random_sl(rng, 3, scale=0.35)
        acc = np.zeros(3)
        path = [act_point(q, O3)]
        for _ in range(4):
            v = random_regular_cone_vector(rng, FACE_FULL, min_gap=0.2, scale=1.0)
            acc = acc + v * (1.0 + rng.random())
            path.append(act_point(q, diag_point(*acc)))
        deltas, taus = delta_projection(path, FACE_FULL)
        for i in range(len(path)):
            for j in range(i, len(path)):
                step = taumod_distance(path[i], path[j], FACE_FULL)
                additivity_worst = max(additivity_worst,
                                       float(np.max(np.abs(taus[j] - taus[i] - step))))
                lhs = np.linalg.norm(deltas[j] - deltas[i])
                rhs = riemannian_distance(path[i], path[j])
                if not (lhs >= eps_theta * rhs - 1e-9 and lhs <= rhs + 1e-9):
                    comparability_ok = False
    elapsed = time.perf_counter() - t0
    ok = (triples_ok == 500 and additivity_worst <= 1e-7 and comparability_ok
          and elapsed < 30.0)
    _verdict(2, ok, f"triples {triples_ok}/500, additivity {additivity_worst:.2e}, "
                    f"comparability factor {eps_theta:.3f}, {elapsed:.1f}s")


def test_criterion_3_expansion_exactness():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    worst_rel = 0.0
    for _ in range(200):
        while True:
            g = random_sl(rng, 3, scale=0.7)
            if np.linalg.norm(np.log(np.linalg.svd(g, compute_uv=False))) <= 3.0:
                break
        face = FACE_FULL if rng.random() < 0.5 else FACE1
        f = random_flag(face, rng)
        exact = expansion_factor(g, f)
        fd = expansion_factor_fd(g, f)
        worst_rel = max(worst_rel, abs(exact - fd) / exact)
    # diagonal transvections: the identity between the log expansion and
    # the cone wall margin holds exactly
    worst_diag = 0.0
    flag = Flag(FACE1, np.eye(3))
    for t in (0.5, 1.0, 1.5, 2.0, 2.5):
        g = np.diag([np.exp(2 * t), np.exp(t), np.exp(-3 * t)])
        log_eps = np.log(expansion_factor(np.linalg.inv(g), flag))
        margin = face_boundary_distance(cartan_vector(O3, act_point(g, O3)), FACE1)
        worst_diag = max(worst_diag, abs(log_eps - np.sqrt(2.0) * margin))
    # drifting out of the cone kills the expansion factor
    drift_eps = [expansion_factor(np.linalg.inv(np.diag([np.exp(-t), np.exp(2 * t), np.exp(-t)])), flag)
                 for t in (1.0, 2.0, 3.0, 4.0)]
    drift_ok = all(b < a for a, b in zip(drift_eps, drift_eps[1:])) and drift_eps[-1] < 1e-4
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-4 and worst_diag <= 1e-7 and drift_ok and elapsed < 20.0
    _verdict(3, ok, f"fd relative {worst_rel:.2e}, diagonal identity {worst_diag:.2e}, "
                    f"drift tail {drift_eps[-1]:.1e}, {elapsed:.1f}s")


def test_criterion_4_separation_and_nestedness():
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    cone = WeylConeRef(O3, Flag(FACE1, np.eye(3)))
    worst_sep = 0.0
    for _ in range(200):
        v = np.sort(random_regular_cone_vector(rng, FACE1, min_gap=0.05, scale=1.5))[::-1]
        y = diag_point(*v)
        verdict = cone_query(y, cone)
        assert verdict.kind == "interior"
        worst_sep = max(worst_sep, abs(verdict.margin - face_boundary_distance(
            cartan_vector(O3, y), FACE1)))
    nested_ok = 0
    tip_offset = diag_point(3.0, 0.5, -3.5)
    for _ in range(500):
        v = np.sort(random_regular_cone_vector(rng, FACE1, min_gap=0.1, scale=1.5))[::-1]
        inner_point = normalize_det(tip_offset @ diag_point(*v))
        if cone_query(inner_point, cone).inside:
            nested_ok += 1
    elapsed = time.perf_counter() - t0
    ok = worst_sep <= 1e-9 and nested_ok == 500 and elapsed < 10.0
    _verdict(4, ok, f"separation residual {worst_sep:.2e}, nested points "
                    f"{nested_ok}/500, {elapsed:.1f}s")


def test_criterion_5_pipeline_positive_control(pipeline_runs):
    closed_form = 2 * np.log(4.0)
    ok = True
    notes = []
    for name in ("sl2-schottky", "sl3-symsq-schottky"):
        run = pipeline_runs[name]
        verdicts = run["reports"]["summary"]["verdicts"]
        if not all(verdicts[c] for c in ("uru", "morse", "limit", "anosov")):
            ok = False
            notes.append(f"{name} verdicts {verdicts}")
            continue
        morse = run["reports"]["morse"]
        curve = morse["constants"]["rho_by_length"]
        if abs(curve[7] - curve[5]) > 0.25:
            ok = False
            notes.append(f"{name} rho unstable {curve[5]:.3f}->{curve[7]:.3f}")
        limit = run["reports"]["limit"]
        if not limit["constants"]["antipodality_margin"] > 0:
            ok = False
            notes.append(f"{name} antipodality")
        anosov = run["reports"]["anosov"]
        if not (anosov["constants"]["C"] > 0
                and anosov["constants"]["max_slope_deviation"] <= 0.2):
            ok = False
            notes.append(f"{name} expansion uniformity")
        power_slopes = [r["slope"] for r in anosov["details"]["rays"]
                        if r["scheme"] == "power"]
        if any(abs(s - closed_form) / closed_form > 0.01 for s in power_slopes):
            ok = False
            notes.append(f"{name} power-ray slope {power_slopes}")
        if run["exit"] != 0:
            ok = False
            notes.append(f"{name} exit {run['exit']}")
    elapsed = sum(pipeline_runs[n]["elapsed"]
                  for n in ("sl2-schottky", "sl3-symsq-schottky"))
    if elapsed >= 300.0:
        ok = False
        notes.append(f"runtime {elapsed:.0f}s")
    _verdict(5, ok, f"both positive pipelines green in {elapsed:.0f}s"
             + ("; " + "; ".join(notes) if notes else ""))


def test_criterion_6_pipeline_negative_control(pipeline_runs):
    run = pipeline_runs["sanov-unipotent"]
    uru = run["reports"]["uru"]
    anosov = run["reports"]["anosov"]
    ok = (run["exit"] == 0
          and uru["verdict"] is False
          and uru["details"]["undistorted"] is False
          and uru["constants"]["c_certificate"] < 0.05
          and anosov["verdict"] is False
          and run["elapsed"] < 60.0)
    # the fitted slope collapses along the generator-power subsequence
    probe = np.array(uru["details"]["probe_points"], dtype=float)
    deep = probe[probe[:, 1] >= 250]
    ok = ok and len(deep) > 0 and bool(np.all(deep[:, 2] / deep[:, 1] < 0.05))
    _verdict(6, ok, f"undistortion certificate {uru['constants']['c_certificate']:.3f}, "
                    f"uniform expansion {anosov['verdict']}, exit {run['exit']}, "
                    f"{run['elapsed']:.0f}s")


def test_criterion_7_equivalence_cross_checks(pipeline_runs):
    violations = []
    for name, run in pipeline_runs.items():
        verdicts = run["reports"]["summary"]["verdicts"]
        if verdicts["morse"] and not (verdicts["limit"] and verdicts["anosov"]):
            violations.append(f"{name}: diamond pass without limit/expansion pass")
        if not verdicts["uru"] and verdicts["morse"]:
            violations.append(f"{name}: distorted but diamond-close")
    _verdict(7, not violations, "implications hold on all fixtures"
             if not violations else "; ".join(violations))


def test_criterion_8_determinism(pipeline_runs, tmp_path):
    first = pipeline_runs["sanov-unipotent"]["dir"]
    second = tmp_path / "rerun"
    code = run_config(bundled_config_path("sanov-unipotent"), out_dir=str(second))
    ok = code == 0
    diffs = []
    for rp in sorted(first.glob("*.json")):
        if rp.read_bytes() != (second / rp.name).read_bytes():
            diffs.append(rp.name)
            ok = False
    _verdict(8, ok, "reports byte-identical across runs"
             if ok else f"differs: {diffs}")
