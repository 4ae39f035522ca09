import math
import warnings

import numpy as np
import pytest

from anosovcheck import flags as flags_module
from anosovcheck import subgroup
from anosovcheck.chamber import FaceType, iota_face
from anosovcheck.cli import bundled_config_path, load_config
from anosovcheck.errors import VanishingGap
from anosovcheck.flags import (
    Flag,
    act_on_flag,
    action_differential,
    antipodality_margin,
    attractive_flag,
    expansion_factor,
    flag_distance,
    least_singular,
    qr_pos,
    stable_product_flag,
    transversality_margin,
)
from oracles import (
    expansion_factor_fd,
    flag_distance_mp,
    least_singular_mp,
    qr_mp,
    random_flag,
    random_sl,
    suffix_flag_errors_mp,
    transversality_margin_mp,
)

FACE1 = FaceType.make(3, [1])
FACE_FULL = FaceType.full(3)


def std_flag(face=FACE_FULL):
    return Flag(face, np.eye(face.n))


class TestActOnFlag:
    def test_identity(self, rng):
        f = random_flag(FACE_FULL, rng)
        assert flag_distance(act_on_flag(np.eye(3), f), f) <= 1e-12

    def test_orthogonal_action(self, rng):
        k = qr_pos(rng.standard_normal((3, 3)))[0]
        f = random_flag(FACE_FULL, rng)
        moved = act_on_flag(k, f)
        for d in f.dims:
            assert np.allclose(moved.projector(d), k @ f.projector(d) @ k.T, atol=1e-12)

    def test_associativity(self, rng):
        for _ in range(100):
            g = random_sl(rng, 3)
            h = random_sl(rng, 3)
            f = random_flag(FACE_FULL, rng)
            lhs = act_on_flag(g @ h, f)
            rhs = act_on_flag(g, act_on_flag(h, f))
            assert flag_distance(lhs, rhs) <= 1e-8


class TestFlagDistance:
    def test_zero_on_equal(self, rng):
        f = random_flag(FACE1, rng)
        assert flag_distance(f, f) == 0.0

    def test_orthogonal_lines(self):
        face = FaceType.make(2, [1])
        f1 = Flag(face, np.eye(2))
        f2 = Flag(face, np.eye(2)[:, ::-1])
        assert flag_distance(f1, f2) == pytest.approx(1.0)

    def test_isometry_invariance(self, rng):
        for _ in range(30):
            k = qr_pos(rng.standard_normal((3, 3)))[0]
            f1 = random_flag(FACE_FULL, rng)
            f2 = random_flag(FACE_FULL, rng)
            assert flag_distance(act_on_flag(k, f1), act_on_flag(k, f2)) == pytest.approx(
                flag_distance(f1, f2), abs=1e-10)

    def test_triangle_inequality_sampled(self, rng):
        for _ in range(50):
            a, b, c = (random_flag(FACE1, rng) for _ in range(3))
            assert flag_distance(a, c) <= flag_distance(a, b) + flag_distance(b, c) + 1e-12


class TestTransversality:
    def test_standard_pair(self):
        f = Flag(FACE1, np.eye(3))
        fop = Flag(iota_face(FACE1), np.eye(3)[:, ::-1])
        assert transversality_margin(f, fop) == pytest.approx(1.0)

    def test_rank_deficiency(self):
        f = Flag(FACE1, np.eye(3))
        # opposite-type flag whose plane contains the line of f
        frame = np.eye(3)[:, [0, 1, 2]]
        fop = Flag(iota_face(FACE1), frame)
        assert transversality_margin(f, fop) <= 1e-12

    def test_orthogonal_invariance(self, rng):
        f = random_flag(FACE1, rng)
        fop = random_flag(iota_face(FACE1), rng)
        base = transversality_margin(f, fop)
        for _ in range(20):
            k = qr_pos(rng.standard_normal((3, 3)))[0]
            assert transversality_margin(act_on_flag(k, f), act_on_flag(k, fop)) == pytest.approx(base, abs=1e-10)


class TestAttractiveFlag:
    def test_diagonal_example(self):
        g = np.diag([np.e**2, np.e, np.e**-3])
        plus, minus, gaps = attractive_flag(g, FACE1)
        assert np.allclose(plus.projector(1), np.diag([1.0, 0, 0]), atol=1e-12)
        assert np.allclose(minus.projector(2), np.diag([0, 1.0, 1.0]), atol=1e-12)
        assert gaps == pytest.approx([1.0])

    def test_right_rotation_invariance(self, rng):
        g = np.diag([np.e**2, np.e, np.e**-3])
        k = qr_pos(rng.standard_normal((3, 3)))[0]
        plus1, _, _ = attractive_flag(g, FACE1)
        plus2, _, _ = attractive_flag(g @ k, FACE1)
        assert flag_distance(plus1, plus2) <= 1e-10

    def test_power_iteration_oracle(self, rng):
        # orbits of a generic flag converge to the attracting flag of
        # high powers; eigenvalue ratio 1.4 gives 5e-8 at fifty steps
        a = random_sl(rng, 3, scale=0.3)
        g = a @ np.diag([1.4, 1.0, 1 / 1.4]) @ np.linalg.inv(a)
        g50 = np.linalg.matrix_power(g, 50)
        g50 /= abs(np.linalg.det(g50)) ** (1 / 3)
        plus, _, _ = attractive_flag(g50, FACE1)
        iterated = stable_product_flag([g] * 50, FACE1)
        assert flag_distance(iterated, plus) <= 1e-6

    def test_inverse_swaps_roles(self, rng):
        for _ in range(20):
            g = random_sl(rng, 3, scale=1.0)
            try:
                plus, minus, _ = attractive_flag(g, FACE1)
                plus_i, minus_i, _ = attractive_flag(np.linalg.inv(g), iota_face(FACE1))
            except VanishingGap:
                continue
            assert flag_distance(plus_i, minus) <= 1e-8
            assert flag_distance(minus_i, plus) <= 1e-8

    def test_vanishing_gap(self):
        with pytest.raises(VanishingGap):
            attractive_flag(np.eye(3), FACE1)


class TestExpansionFactor:
    def test_identity(self, rng):
        assert expansion_factor(np.eye(3), random_flag(FACE_FULL, rng)) == pytest.approx(1.0)

    def test_diagonal_example(self):
        g = np.diag([np.e**2, np.e, np.e**-3])
        f = Flag(FACE1, np.eye(3))
        assert expansion_factor(np.linalg.inv(g), f) == pytest.approx(np.e, rel=1e-12)

    def test_orthogonal_isometry(self, rng):
        k = qr_pos(rng.standard_normal((3, 3)))[0]
        for _ in range(10):
            f = random_flag(FACE_FULL, rng)
            assert expansion_factor(k, f) == pytest.approx(1.0, abs=1e-12)

    def test_finite_difference_oracle(self, rng):
        for _ in range(40):
            g = random_sl(rng, 3, scale=0.8)
            f = random_flag(FACE_FULL if rng.random() < 0.5 else FACE1, rng)
            exact = expansion_factor(g, f)
            fd = expansion_factor_fd(g, f)
            assert abs(exact - fd) / exact <= 1e-4

    def test_inverse_product_bound(self, rng):
        # eps(g, F) * eps(g^{-1}, gF) <= 1 <= |dg| * |dg^{-1}| via the
        # assembled differential matrices
        for _ in range(50):
            g = random_sl(rng, 3)
            f = random_flag(FACE_FULL, rng)
            d = action_differential(g, f)
            svals = np.linalg.svd(d, compute_uv=False)
            d_inv = action_differential(np.linalg.inv(g), act_on_flag(g, f))
            svals_inv = np.linalg.svd(d_inv, compute_uv=False)
            assert svals[-1] * svals_inv[-1] <= 1.0 + 1e-9
            assert svals[0] * svals_inv[0] >= 1.0 - 1e-9

    def test_drift_out_kills_expansion(self):
        face = FACE1
        flag = Flag(face, np.eye(3))
        eps = []
        for t in (1.0, 2.0, 3.0, 4.0):
            g = np.diag([np.exp(-t), np.exp(2 * t), np.exp(-t)])
            eps.append(expansion_factor(np.linalg.inv(g), flag))
        assert all(b < a for a, b in zip(eps, eps[1:]))
        assert eps[-1] < 1e-4

    def test_bounded_perturbation_bounded_change(self, rng):
        face = FACE1
        flag = Flag(face, np.eye(3))
        for t in (1.0, 2.0, 3.0):
            g = np.diag([np.exp(2 * t), np.exp(t), np.exp(-3 * t)])
            base = np.log(expansion_factor(np.linalg.inv(g), flag))
            for _ in range(5):
                b = random_sl(rng, 3, scale=0.03)
                pert = np.log(expansion_factor(np.linalg.inv(g @ b), flag))
                assert abs(pert - base) <= 0.5


class TestContractionSymmetryAtFlagLevel:
    def test_forward_backward_cooccur(self, rng):
        # forward contraction toward the attracting flag on the stratum
        # opposite the repelling one, and backward contraction of the
        # inverses toward the repelling flag, on diagonal power fixtures
        g = np.diag([np.e**2, np.e, np.e**-3])
        plus, minus, _ = attractive_flag(g, FACE1)
        gn = np.linalg.matrix_power(g, 8)
        gn_inv = np.linalg.inv(gn)
        fwd = []
        bwd = []
        while len(fwd) < 30 or len(bwd) < 30:
            f = random_flag(FACE1, rng)
            if transversality_margin(f, minus) >= 0.05:
                fwd.append(flag_distance(act_on_flag(gn, f), plus))
            fop = random_flag(iota_face(FACE1), rng)
            if transversality_margin(plus, fop) >= 0.05:
                bwd.append(flag_distance(act_on_flag(gn_inv, fop), minus))
        # rate e^{-8} against the 0.05 transversality floor
        assert max(fwd) < 5e-2 and max(bwd) < 5e-2


class TestAntipodalityMargin:
    def test_requires_iota_invariance(self, rng):
        f = random_flag(FaceType.make(3, [1]), rng)
        with pytest.raises(ValueError):
            antipodality_margin(f, f)

    def test_full_flags(self, rng):
        f = Flag(FACE_FULL, np.eye(3))
        g = Flag(FACE_FULL, np.eye(3)[:, ::-1])
        assert antipodality_margin(f, g) == pytest.approx(1.0)


ORACLE_FACES = {
    2: [FaceType.full(2)],
    3: [FaceType.full(3), FaceType.make(3, [1]), FaceType.make(3, [2])],
    4: [FaceType.full(4), FaceType.make(4, [1]), FaceType.make(4, [3]), FaceType.make(4, [2])],
}
ORACLE_ANGLES = [1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0]


def turned(q, axis, angle, rng):
    """q with column `axis` turned by `angle` in a random plane through it."""
    a = q[:, axis]
    b = rng.standard_normal(len(a))
    b -= (a @ b) * a
    b /= np.linalg.norm(b)
    turn = (np.cos(angle) - 1.0) * (np.outer(a, a) + np.outer(b, b)) + np.sin(angle) * (
        np.outer(b, a) - np.outer(a, b))
    return q + turn @ q


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flag_metrics_match_oracle(rng, n):
    # The line (column 0) or the hyperplane's normal (column n-1) is turned
    # by angles from 1e-15 to 1: against the same flag for the distance,
    # and against the reversed frame for margins near 1, where the sine
    # must not come from sqrt(1 - cos^2); same-frame margins are near 0.
    for face in ORACLE_FACES[n]:
        op = iota_face(face)
        for axis in (0, n - 1):
            for angle in ORACLE_ANGLES:
                q = qr_pos(rng.standard_normal((n, n)))[0]
                f = Flag(face, q)
                pairs = [
                    (flag_distance, flag_distance_mp, Flag(face, turned(q, axis, angle, rng))),
                    (transversality_margin, transversality_margin_mp,
                     Flag(op, turned(q, axis, angle, rng)[:, ::-1])),
                    (transversality_margin, transversality_margin_mp,
                     Flag(op, turned(q, axis, angle, rng))),
                ]
                for fast, exact, other in pairs:
                    err = abs(fast(f, other) - exact(f, other))
                    assert err <= 1e-14, (face.dims, axis, angle, fast.__name__, err)


QR_KAPPAS = [1.0, 1e2, 1e4, 1e6, 1e8]


def conditioned(rng, n, kappa):
    """A matrix with singular values spread from 1 to 1/kappa, in random orthogonal frames."""
    u, v = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    return u @ np.diag(np.logspace(0, -np.log10(kappa), n)) @ v.T


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_qr_pos_matches_oracle(rng, n):
    # condition numbers 1 to 1e8, each with both signs of the determinant (a matrix and
    # its first column negated); Q and R are resolved to about eps * kappa, as by any
    # backward stable QR
    mats, kappas = [], []
    for kappa in QR_KAPPAS:
        for _ in range(8):
            a = conditioned(rng, n, kappa)
            mats += [a, a * np.r_[-1.0, np.ones(n - 1)]]
            kappas += [kappa, kappa]
    mats = np.array(mats)
    assert (np.linalg.det(mats) < 0).sum() == len(mats) // 2
    q, r = qr_pos(mats)
    eps = np.finfo(float).eps
    for k, (a, kappa) in enumerate(zip(mats, kappas)):
        q_mp, r_mp = qr_mp(a)
        assert np.abs(q[k] - q_mp).max() <= 4 * eps * kappa, (k, kappa)
        assert np.abs(r[k] - r_mp).max() <= 4 * eps * kappa * np.abs(a).max(), (k, kappa)
        assert np.abs(q[k].T @ q[k] - np.eye(n)).max() <= 4 * eps
        assert np.all(np.diagonal(r[k]) > 0.0) and not np.tril(r[k], -1).any()
        single = qr_pos(a)
        assert same_bits(q[k], single[0]) and same_bits(r[k], single[1]), k
    # a stack of more than one batch axis
    grid = qr_pos(mats[:12].reshape(3, 4, n, n))
    assert same_bits(grid[0], q[:12].reshape(3, 4, n, n))


@pytest.mark.parametrize("n", [2, 3])
def test_qr_pos_rank_deficient_columns(rng, n):
    # a zero column, or a second column on the line of the first, is well defined: an
    # orthonormal Q with Q R = A, R upper triangular with a nonnegative diagonal, no warning
    base = rng.standard_normal((6, n, n))
    cases = []
    for col in range(n):
        a = base.copy()
        a[:, :, col] = 0.0
        cases.append(a)
    a = base.copy()
    a[:, :, 1] = 3.0 * a[:, :, 0]
    cases.append(a)
    eps = np.finfo(float).eps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in cases:
            q, r = qr_pos(a)
            assert np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(n)).max() <= 4 * eps
            assert np.abs(q @ r - a).max() <= 8 * eps * np.abs(a).max()
            assert np.all(np.diagonal(r, axis1=-2, axis2=-1) >= 0.0)
            assert not np.tril(r, -1).any()
    q, r = qr_pos(cases[0])
    assert np.array_equal(q[:, :, 0], np.broadcast_to(np.eye(n)[0], (6, n)))  # as LAPACK
    assert not r[:, 0, 0].any()


@pytest.mark.parametrize("face", [FaceType.full(2), FaceType.full(3), FACE1, FaceType.make(3, [2])],
                         ids=lambda f: f"{f.n}-{f.dims}")
def test_expansion_factor_matches_oracle(rng, face):
    # tangent dimensions 1, 3, 2 and 2: the closed-form least singular value of the
    # same float differential, against 50 digits, on elements spread up to e^8
    n = face.n
    mats, flags = [], []
    for t in (0.0, 1.0, 2.0, 4.0, 8.0):
        for _ in range(6):
            k1, k2 = (qr_pos(rng.standard_normal((n, n)))[0] for _ in range(2))
            logs = rng.standard_normal(n) * t
            mats.append(k1 @ np.diag(np.exp(logs - logs.mean())) @ k2)
            flags.append(random_flag(face, rng).frame)
    f = Flag(face, np.array(flags))
    eps = expansion_factor(np.array(mats), f)
    diffs = action_differential(np.array(mats), f)
    for k, d in enumerate(diffs):
        exact = least_singular_mp(d)
        assert abs(eps[k] - exact) <= 1e-13 * exact, (k, eps[k], exact)


BUNDLED = ["sl2-schottky", "sl3-symsq-schottky", "sanov-unipotent"]


@pytest.mark.parametrize("name", BUNDLED)
def test_anosov_reads_match_oracle(monkeypatch, name):
    # every published log_eps, and every expansion factor of the stratum scan, against the
    # 50-digit least singular value of the same float chain or differential
    seen = []

    def recorded(mat):
        seen.append(mat)
        return least_singular(mat)

    monkeypatch.setattr(subgroup, "least_singular", recorded)
    monkeypatch.setattr(flags_module, "least_singular", recorded)
    cfg = load_config(bundled_config_path(name))
    pres, face = cfg.presentation(), cfg.face_type()
    report = subgroup.anosov_check(
        pres, face, subgroup.sample_rays(pres, cfg.ray_count, cfg.ray_depth, cfg.seed, face))
    chains, diffs = seen
    log_eps = np.array([r["log_eps"] for r in report.details["rays"]])
    assert log_eps.shape == chains.shape[:2]
    for index in np.ndindex(log_eps.shape):
        assert abs(log_eps[index] - math.log(least_singular_mp(chains[index]))) <= 5e-14, index
    eps = least_singular(diffs)
    for index in np.ndindex(eps.shape):
        exact = least_singular_mp(diffs[index])
        assert abs(eps[index] - exact) <= 1e-13 * exact, index
    best = [r["best_eps"] for r in report.details["cea_records"]]
    assert best == eps.max(axis=1).tolist()



@pytest.mark.parametrize("m", [2, 3])
def test_least_singular_spread_matrices(rng, m):
    # graded rows, as in deep chains: singular values spread to s2 / s1 = 1e-20 ... 1e-120,
    # which the float entries keep, at scales up to 2^600 either way; against 200 digits.
    # Past the floor (about 5e-91 on a diagonal entry of L, or a determinant, scaled to the
    # largest entry) rows take LAPACK's value, bit for bit; at the spreads between, the
    # closed form holds, with no warning
    mats = []
    for spread in (1e-20, 1e-40, 1e-60, 1e-80, 1e-120):
        for _ in range(4):
            rows = np.array([1.0, spread, 0.1 * spread][:m]) * 2.0 ** rng.integers(-600, 600)
            mats.append(rows[:, None] * conditioned(rng, m, 10.0))
    mats = np.array(mats)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = least_singular(mats)
    lapack = np.linalg.svd(mats, compute_uv=False)[..., -1]
    for k, mat in enumerate(mats):
        exact = least_singular_mp(mat, digits=200)
        assert abs(got[k] - exact) <= 1e-14 * exact, (k, got[k], exact)
        assert same_bits(got[k], least_singular(mat)), k
    assert same_bits(got[-4:], lapack[-4:])
    assert not same_bits(got[:-4], lapack[:-4])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_least_singular_rejects_non_finite(m):
    for bad in (np.nan, np.inf):
        mat = np.eye(m)
        mat[-1, 0] = bad
        with pytest.raises(np.linalg.LinAlgError):
            least_singular(np.stack([np.eye(m), mat]))
    assert least_singular(np.zeros((m, m))) == 0.0


def test_deep_anosov_chains_match_oracle(monkeypatch):
    # sl3 rays of depth 60: the chains' singular values spread to s2 / s1 = 1e-72, and every
    # log_eps stays within 5e-14 of the 150-digit least singular value of its float chain
    seen = []

    def recorded(mat):
        seen.append(mat)
        return least_singular(mat)

    monkeypatch.setattr(subgroup, "least_singular", recorded)
    cfg = load_config(bundled_config_path("sl3-symsq-schottky"))
    pres, face = cfg.presentation(), cfg.face_type()
    report = subgroup.anosov_check(pres, face, subgroup.sample_rays(pres, 4, 60, cfg.seed, face))
    chains = seen[0]
    spreads = np.linalg.svd(chains, compute_uv=False)
    assert (spreads[..., 1] / spreads[..., 0]).min() < 1e-70
    log_eps = np.array([r["log_eps"] for r in report.details["rays"]])
    for index in np.ndindex(log_eps.shape):
        exact = math.log(least_singular_mp(chains[index], digits=150))
        assert abs(log_eps[index] - exact) <= 5e-14, index

@pytest.mark.parametrize("name", BUNDLED)
def test_ray_tails_match_suffix_products(name):
    # anosov's sample: 12 rays of depth 20, each tail flag against the exact suffix
    # product applied to the sweep's start frame; the sl3 products spread by up to
    # 256^20 (about 1e48), so the oracle takes 50 digits more
    cfg = load_config(bundled_config_path(name))
    face = cfg.face_type()
    pres = cfg.presentation()
    sample = subgroup.sample_rays(pres, 12, cfg.ray_depth, cfg.seed, face)
    steps = pres.table[sample.letters + pres.rank]
    for r in range(len(steps)):
        frames = sample.tails.frame[r]
        errors = suffix_flag_errors_mp(steps[r], frames[-1], frames, face.dims, digits=100)
        assert errors.max() <= 1e-14, (r, errors.argmax(), errors.max())
