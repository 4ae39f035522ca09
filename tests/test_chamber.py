import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovcheck.chamber import (
    FaceType,
    ThetaSpec,
    block_sort,
    face_boundary_distance,
    flat_cone_deficit,
    iota_face,
    pav_nonincreasing,
    theta_membership,
    wall_gaps,
)
from oracles import (
    flat_cone_member,
    iota_bruteforce,
    iota_vector,
    project_to_face_sector,
    random_chamber_vector,
    random_regular_cone_vector,
    sector_projection_kkt_gap,
    theta_boundary_angle,
    wall_distance_bruteforce,
)

SQRT2 = math.sqrt(2.0)


def centered(draw_vals):
    v = np.asarray(draw_vals, dtype=float)
    return v - v.mean()


coords = st.lists(st.floats(-50, 50), min_size=3, max_size=6).map(centered)


class TestIota:
    def test_palindromic(self):
        assert np.allclose(iota_vector([1.0, 0.0, -1.0]), [1.0, 0.0, -1.0])

    def test_derived_example(self):
        got = iota_vector([2.0, -1.0, -1.0])
        assert np.allclose(got, [1.0, 1.0, -2.0])
        assert np.allclose(got, iota_bruteforce(np.array([2.0, -1.0, -1.0])))

    def test_face_reflection(self):
        assert iota_face(FaceType.make(4, [1])) == FaceType.make(4, [3])

    @given(coords)
    @settings(max_examples=60, deadline=None)
    def test_involution_preserves_chamber(self, v):
        delta = np.sort(v)[::-1]
        image = iota_vector(delta)
        assert np.all(np.diff(image) <= 1e-12)  # iota preserves the chamber
        assert np.allclose(iota_vector(image), delta)

    def test_face_involution(self):
        for n in (3, 4, 5):
            for kept in ([1], [2], [1, 2], list(range(1, n))):
                if max(kept) > n - 1:
                    continue
                f = FaceType.make(n, kept)
                assert iota_face(iota_face(f)) == f


class TestFaceBoundaryDistance:
    def test_derived_example(self):
        assert face_boundary_distance([2.0, -1.0, -1.0], FaceType.make(3, [1])) == pytest.approx(3 / SQRT2)

    def test_on_wall(self):
        assert face_boundary_distance([1.0, 1.0, -2.0], FaceType.make(3, [1])) == 0.0

    def test_full_face_example(self):
        assert face_boundary_distance([1.0, 0.0, -1.0], FaceType.full(3)) == pytest.approx(1 / SQRT2)

    def test_zero_iff_zero_gap(self, rng):
        face = FaceType.make(4, [1, 3])
        for _ in range(50):
            delta = random_chamber_vector(rng, 4)
            d = face_boundary_distance(delta, face)
            assert (d == 0.0) == (wall_gaps(delta, face).min() == 0.0)

    def test_oracle_agreement(self, rng):
        # wall projections computed by an independent tied-pair route
        for _ in range(1000):
            n = int(rng.integers(3, 6))
            kept = sorted(rng.choice(np.arange(1, n), size=int(rng.integers(1, n)),
                                     replace=False).tolist())
            face = FaceType.make(n, kept)
            delta = random_chamber_vector(rng, n, scale=2.0)
            assert face_boundary_distance(delta, face) == pytest.approx(
                wall_distance_bruteforce(delta, face), abs=1e-9)


class TestProjectToFaceSector:
    def test_identity_on_sector(self):
        face = FaceType.make(3, [1])
        v = np.array([2.0, -1.0, -1.0])
        assert np.allclose(project_to_face_sector(v, face), v)

    def test_block_average_example(self):
        face = FaceType.make(3, [1])
        got = project_to_face_sector([1.0, 0.0, -1.0], face)
        assert np.allclose(got, [1.0, -0.5, -0.5])

    def test_norm_nonincreasing(self, rng):
        face = FaceType.make(4, [2])
        for _ in range(200):
            delta = random_chamber_vector(rng, 4)
            assert np.linalg.norm(project_to_face_sector(delta, face)) <= np.linalg.norm(delta) + 1e-12

    def test_idempotent_and_lipschitz(self, rng):
        face = FaceType.make(5, [1, 3])
        for _ in range(200):
            a = random_chamber_vector(rng, 5)
            b = random_chamber_vector(rng, 5)
            pa = project_to_face_sector(a, face)
            pb = project_to_face_sector(b, face)
            assert np.allclose(project_to_face_sector(pa, face), pa, atol=1e-12)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_kkt_certificate(self, rng):
        # optimality of the projection certified against the cone generators
        for _ in range(300):
            n = int(rng.integers(3, 6))
            kept = sorted(rng.choice(np.arange(1, n), size=int(rng.integers(1, n)),
                                     replace=False).tolist())
            face = FaceType.make(n, kept)
            delta = random_chamber_vector(rng, n, scale=2.0)
            proj = project_to_face_sector(delta, face)
            assert sector_projection_kkt_gap(delta, proj, face) <= 1e-9


class TestThetaMembership:
    def test_member_example(self):
        theta = ThetaSpec(FaceType.full(3), 0.1)
        member, margin = theta_membership([1.0, 0.0, -1.0], theta)
        assert member and margin == pytest.approx(1 / SQRT2 - 0.1)

    def test_zero_gap(self):
        theta = ThetaSpec(FaceType.make(3, [1]), 0.05)
        member, margin = theta_membership([1.0, 1.0, -2.0], theta)
        assert not member and margin == pytest.approx(-0.05)

    def test_scale_invariance(self, rng):
        theta = ThetaSpec(FaceType.make(3, [2]), 0.2)
        for _ in range(50):
            delta = random_chamber_vector(rng, 3)
            m1 = theta_membership(delta, theta)
            m2 = theta_membership(delta * float(rng.uniform(0.1, 10.0)), theta)
            assert m1[0] == m2[0]
            assert m1[1] == pytest.approx(m2[1], abs=1e-12)

    def test_zero_rejected(self):
        theta = ThetaSpec(FaceType.full(3), 0.1)
        with pytest.raises(ValueError):
            theta_membership([0.0, 0.0, 0.0], theta)


class TestWeylConvexitySampling:
    def test_midpoints_stay_in_symmetrized_cone(self, rng):
        # certifies the uniform-gap type family is admissible for the
        # convexity requirement on type sets
        for face, gap in ((FaceType.make(3, [2]), 0.15), (FaceType.make(4, [1, 3]), 0.1)):
            def member(v):
                if not flat_cone_member(v, face, slack=1e-9):
                    return False
                u = block_sort(v, face)
                u = u / np.linalg.norm(u)
                return wall_gaps(u, face).min() >= gap - 1e-9

            count = 0
            while count < 1000:
                a = random_regular_cone_vector(rng, face, min_gap=gap, scale=2.0)
                b = random_regular_cone_vector(rng, face, min_gap=gap, scale=2.0)
                if not (member(a) and member(b)):
                    continue
                count += 1
                assert member(0.5 * (a + b))


class TestFlatModel:
    def test_block_sort(self):
        face = FaceType.make(4, [2])
        assert np.allclose(block_sort([1.0, 2.0, -1.0, -2.0], face), [2.0, 1.0, -1.0, -2.0])

    def test_deficit_zero_iff_member(self, rng):
        face = FaceType.make(3, [1])
        for _ in range(100):
            v = rng.standard_normal(3)
            v -= v.mean()
            member = flat_cone_member(v, face, slack=1e-12)
            deficit = flat_cone_deficit(v, face)
            assert member == (deficit <= 1e-12)

    def test_pav_matches_sorted_projection(self, rng):
        for _ in range(100):
            y = rng.standard_normal(6)
            fit = pav_nonincreasing(y)
            assert np.all(np.diff(fit) <= 1e-12)
            # projection propery: residual orthogonal to the fit
            assert abs((y - fit) @ fit) <= 1e-9

    def test_pav_returns_a_copy_of_a_stack_without_ascent(self, rng):
        y = -np.sort(-rng.standard_normal((10000, 4)), axis=1)
        y[::7, 2] = y[::7, 1]  # ties are no ascent
        fit = pav_nonincreasing(y)
        assert not np.shares_memory(fit, y) and np.array_equal(fit, y)
        fit[0, 0] = np.inf
        assert np.isfinite(y).all()


class TestThetaBoundaryAngle:
    def test_full_face_angle(self):
        # unit chamber arc between the two wall rays spans 60 degrees; a
        # symmetric gap constraint leaves an arc with equal clearance
        theta = ThetaSpec(FaceType.full(3), 0.3)
        alpha = theta_boundary_angle(theta)
        assert 0.0 < alpha < math.pi / 6
        tighter = theta_boundary_angle(ThetaSpec(FaceType.full(3), 0.4))
        assert tighter > alpha
