import numpy as np
import pytest

from anosovcheck.chamber import FaceType, iota_face
from anosovcheck.errors import VanishingGap
from anosovcheck.flags import (
    Flag,
    act_on_flag,
    action_differential,
    antipodality_margin,
    attractive_flag,
    expansion_factor,
    flag_distance,
    qr_pos,
    random_flag,
    stable_product_flag,
    transversality_margin,
)
from oracles import (
    expansion_factor_fd,
    flag_distance_mp,
    random_sl,
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
