"""Acceptance suite: one criterion per test, one printed verdict line each.

Criteria 1-4 run the production kernels the checkers read, name them in
their verdict lines, and compare them with an independent route: scipy's
generalized eigenproblem, finite differences, or the scalar cone geometry
that stays in ``symmspace`` as the tests' reference route.  Tolerances are
pinned here; the pipeline criteria consume the shared bundled-config runs
from the session fixture.
"""

import time

import numpy as np
from scipy.linalg import eigh

from anosovcheck.chamber import FaceType, ThetaSpec, flat_cone_deficit
from anosovcheck.cli import bundled_config_path, run_config
from anosovcheck.flags import Flag, expansion_factor
from anosovcheck.subgroup import _least_gaps, _two_sided_logs
from anosovcheck.symmspace import (
    WeylConeRef,
    _two_sided_frame,
    cone_query,
    normalize_det,
    segment_deficits,
)
from oracles import (
    act_point,
    delta_projection,
    expansion_factor_fd,
    flat_cone_member,
    iota_vector,
    random_flag,
    random_regular_cone_vector,
    random_sl,
    random_spd_unit_det,
    riemannian_distance,
    taumod_distance,
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


def kernel_distance(x, y):
    """Vector-valued distances d(x, y) of stacked points, by ``_two_sided_logs``.

    With Cholesky factors x = a a^T and y = b b^T, d(x, y) = d(o, m.o) for
    m = a^-1 b, whose centered log singular values the kernel reads from m
    and its inverse b^-1 a, as the word checks read a word's product.
    """
    a, b = np.linalg.cholesky(x), np.linalg.cholesky(y)
    m = np.linalg.solve(a, b)
    return _two_sided_logs(m, np.linalg.solve(b, a), np.linalg.slogdet(m)[1])


def eigh_distance(x, y):
    """d(x, y) of one pair along an independent route, descending.

    The generalized symmetric eigenproblem y v = l x v has the spectrum of
    x^-1 y, without a square root or a factor of x.
    """
    return 0.5 * np.log(eigh(y, x, eigvals_only=True))[::-1]


def test_criterion_1_delta_distance_algebra():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    pairs = [(random_spd_unit_det(rng, 3, scale=0.55), random_spd_unit_det(rng, 3, scale=0.55))
             for _ in range(1000)]
    x, y = (np.stack(side) for side in zip(*pairs))
    d_xy, d_yx = kernel_distance(x, y), kernel_distance(y, x)
    worst_inv = max(float(np.max(np.abs(b - iota_vector(a)))) for a, b in zip(d_xy, d_yx))
    worst_dist = max(float(np.max(np.abs(d - eigh_distance(x, y)))) for d, (x, y) in zip(d_xy, pairs))
    elapsed = time.perf_counter() - t0
    ok = worst_inv < 1e-9 and worst_dist < 1e-9 and elapsed < 5.0
    _verdict(1, ok, f"subgroup._two_sided_logs: swap residual {worst_inv:.2e}, distance "
                    f"residual {worst_dist:.2e} against scipy eigh, {elapsed:.1f}s on 1000 pairs")


def test_criterion_2_projection_theorems():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    # 500 cone-nested triples: chamber side lengths stay in the shifted cone
    triples = []
    for _ in range(500):
        q = random_sl(rng, 3, scale=0.4)
        v1 = random_regular_cone_vector(rng, FACE1, min_gap=0.05, scale=1.2)
        v2 = random_regular_cone_vector(rng, FACE1, min_gap=0.05, scale=1.2)
        triples.append((act_point(q, O3), act_point(q, diag_point(*v1)),
                        act_point(q, diag_point(*(v1 + v2)))))
    x, y, z = (np.stack(side) for side in zip(*triples))
    deficits = flat_cone_deficit(kernel_distance(x, z) - kernel_distance(x, y), FACE1)
    triples_ok = sum(bool(d <= 1e-7) and flat_cone_member(
        eigh_distance(a, c) - eigh_distance(a, b), FACE1, slack=1e-7)
        for d, (a, b, c) in zip(deficits, triples))
    # 100 synthesized type-bounded geodesics: additivity and comparability of the
    # delta-projection, which no checker reads, on the independent route alone
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
    _verdict(2, ok, f"chamber.flat_cone_deficit of subgroup._two_sided_logs steps: triples "
                    f"{triples_ok}/500, additivity {additivity_worst:.2e}, "
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
    # diagonal transvections: the log expansion equals the least wall gap of the
    # log singular values exactly
    worst_diag = 0.0
    flag = Flag(FACE1, np.eye(3))
    for t in (0.5, 1.0, 1.5, 2.0, 2.5):
        g = np.diag([np.exp(2 * t), np.exp(t), np.exp(-3 * t)])
        ginv = np.linalg.inv(g)
        log_eps = np.log(expansion_factor(ginv, flag))
        gap = _least_gaps(_two_sided_logs(g, ginv, np.linalg.slogdet(g)[1]), FACE1)
        worst_diag = max(worst_diag, abs(log_eps - gap))
    # drifting out of the cone kills the expansion factor
    drift_eps = [expansion_factor(np.linalg.inv(np.diag([np.exp(-t), np.exp(2 * t), np.exp(-t)])), flag)
                 for t in (1.0, 2.0, 3.0, 4.0)]
    drift_ok = all(b < a for a, b in zip(drift_eps, drift_eps[1:])) and drift_eps[-1] < 1e-4
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-4 and worst_diag <= 1e-7 and drift_ok and elapsed < 20.0
    _verdict(3, ok, f"flags.expansion_factor: fd relative {worst_rel:.2e}, diagonal identity "
                    f"with subgroup._least_gaps {worst_diag:.2e}, drift tail {drift_eps[-1]:.1e}, "
                    f"{elapsed:.1f}s")


def tip_deficits(tips, points, face):
    """``segment_deficits`` of points p.o in the diamonds from o to tip.o, read as morse reads.

    Each tip's frame and logs come from ``_two_sided_frame`` and
    ``_two_sided_logs`` of the tip and its inverse; ``points`` stacks the
    points' group elements, broadcast against the tips.
    """
    inv = np.linalg.inv(tips)
    u = _two_sided_frame(tips, inv)
    a_plus = _two_sided_logs(tips, inv, np.linalg.slogdet(tips)[1])
    return segment_deficits(u, a_plus, [(points, np.linalg.inv(points))], face)[..., 0]


def test_criterion_4_separation_and_nestedness():
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    # one random Weyl cone at o; its frame k turns the model flat into the cone's
    flag = random_flag(FACE1, rng)
    k = flag.frame
    cone = WeylConeRef(O3, flag)
    # separation: a point's margin in the cone, by the scalar cone_query, is the deficit
    # of its mirror image across the wall, read in the diamond from o to the point's double
    margins, tips, mirrors = [], [], []
    for _ in range(200):
        v = np.sort(random_regular_cone_vector(rng, FACE1, min_gap=0.05, scale=1.5))[::-1]
        verdict = cone_query(act_point(k, diag_point(*v)), cone)
        assert verdict.kind == "interior"
        margins.append(verdict.margin)
        tips.append(k @ diag_point(*v))
        mirrors.append(k @ diag_point(*(0.5 * v[[1, 0, 2]])))
    worst_sep = float(np.max(np.abs(tip_deficits(np.stack(tips), np.stack(mirrors), FACE1)
                                    - margins)))
    # nestedness: the inner cone's tip lies in the diamond from o to each point of the
    # inner cone, and cone_query finds each such point in the outer cone
    inner_tip = k @ diag_point(1.5, 0.25, -1.75)
    inside, tips = [], []
    for _ in range(500):
        v = np.sort(random_regular_cone_vector(rng, FACE1, min_gap=0.1, scale=1.5))[::-1]
        tips.append(normalize_det(inner_tip @ diag_point(*(0.5 * v))))
        inside.append(cone_query(act_point(tips[-1], O3), cone).inside)
    deficits = tip_deficits(np.stack(tips), inner_tip, FACE1)
    nested_ok = int(np.sum(np.array(inside) & (deficits <= 1e-9)))
    elapsed = time.perf_counter() - t0
    ok = worst_sep <= 1e-9 and nested_ok == 500 and elapsed < 10.0
    _verdict(4, ok, f"symmspace.segment_deficits: separation residual {worst_sep:.2e} "
                    f"against cone_query, nested points {nested_ok}/500, {elapsed:.1f}s")


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
