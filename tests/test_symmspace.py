import numpy as np
import pytest
from scipy.linalg import expm, fractional_matrix_power, logm

from anosovcheck.chamber import (
    FaceType,
    ThetaSpec,
    face_boundary_distance,
    iota_face,
)
from anosovcheck.errors import IllConditioned, VanishingGap
from anosovcheck.flags import Flag, flag_distance
from anosovcheck.symmspace import (
    DiamondRef,
    WeylConeRef,
    adapted_coordinates,
    cartan_vector,
    cone_query,
    diamond_query,
    factored_coords_pair,
    make_diamond,
    make_parallel_set,
    normalize_det,
    relative_flag,
    segment_deficits,
)
from oracles import (
    act_point,
    delta_projection,
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

FACE1 = FaceType.make(3, [1])
FACE_FULL = FaceType.full(3)
O3 = np.eye(3)


def diag_point(*logs):
    return np.diag(np.exp(np.array(logs, dtype=float)))


def factor_deficit(tip, point, face):
    """Deficit of point.o in the diamond spanned by (o, tip.o), from the factors."""
    u = np.linalg.svd(tip)[0]
    a_plus = factored_coords_pair(u.T @ tip, np.linalg.inv(tip) @ u, face)[0]
    pts = [(point, np.linalg.inv(point))]
    return float(segment_deficits(u, a_plus, pts, face)[0])


class TestCartanVector:
    def test_diagonal_readoff(self):
        assert np.allclose(cartan_vector(O3, diag_point(2, 0, -2)), [1.0, 0.0, -1.0])

    def test_zero_distance(self, rng):
        x = random_spd_unit_det(rng, 3)
        assert np.allclose(cartan_vector(x, x), 0.0, atol=1e-12)

    def test_swap_is_involution(self, rng):
        for _ in range(100):
            x = random_spd_unit_det(rng, 3)
            y = random_spd_unit_det(rng, 3)
            assert np.max(np.abs(cartan_vector(y, x) - iota_vector(cartan_vector(x, y)))) < 1e-9

    def test_distance_matches_independent_route(self, rng):
        for _ in range(50):
            x = random_spd_unit_det(rng, 3)
            y = random_spd_unit_det(rng, 3)
            xis = np.real(fractional_matrix_power(x, -0.5))
            d_ind = 0.5 * np.linalg.norm(np.real(logm(xis @ y @ xis)))
            assert riemannian_distance(x, y) == pytest.approx(d_ind, abs=1e-9)


class TestTaumodDistance:
    def test_identity_on_sector_segments(self):
        y = diag_point(2, -1, -1)
        assert np.allclose(taumod_distance(O3, y, FACE1), cartan_vector(O3, y))

    def test_one_lipschitz(self, rng):
        for _ in range(100):
            x = random_spd_unit_det(rng, 3)
            y = random_spd_unit_det(rng, 3)
            assert np.linalg.norm(taumod_distance(x, y, FACE1)) <= riemannian_distance(x, y) + 1e-12

    def test_theta_regular_ratio_window(self, rng):
        theta = ThetaSpec(FACE_FULL, 0.2)
        alpha = theta_boundary_angle(theta)
        lo = np.sin(alpha)
        count = 0
        while count < 500:
            v = random_regular_cone_vector(rng, FACE_FULL, min_gap=0.2, scale=1.5)
            q = random_sl(rng, 3, scale=0.4)
            x = act_point(q, O3)
            y = act_point(q, diag_point(*np.sort(v)[::-1]))
            ratio = np.linalg.norm(taumod_distance(x, y, FACE_FULL)) / riemannian_distance(x, y)
            assert lo - 1e-9 <= ratio <= 1.0 + 1e-9
            count += 1


class TestRelativeFlag:
    def test_diagonal_example(self):
        flag, gaps = relative_flag(O3, diag_point(2, 0, -2), FACE1)
        assert np.allclose(flag.projector(1), np.diag([1.0, 0.0, 0.0]), atol=1e-12)
        assert gaps == pytest.approx([1.0])

    def test_reverse_has_opposite_type(self, rng):
        x = random_spd_unit_det(rng, 3)
        y = random_spd_unit_det(rng, 3)
        fwd, _ = relative_flag(x, y, FACE1)
        bwd, _ = relative_flag(y, x, iota_face(FACE1))
        assert fwd.face == FACE1 and bwd.face == iota_face(FACE1)
        # the reverse flag complements the forward one through the segment
        assert np.allclose(
            cartan_vector(y, x), iota_vector(cartan_vector(x, y)), atol=1e-9)

    def test_conjugation_equivariance(self, rng):
        from anosovcheck.flags import act_on_flag

        x = random_spd_unit_det(rng, 3)
        y = random_spd_unit_det(rng, 3)
        base, _ = relative_flag(x, y, FACE1)
        for _ in range(100):
            q = random_sl(rng, 3, scale=0.4)
            moved, _ = relative_flag(act_point(q, x), act_point(q, y), FACE1)
            assert flag_distance(moved, act_on_flag(q, base)) < 1e-7

    def test_reverse_flag_from_same_decomposition(self, rng):
        # the reverse segment's flag is spanned by the trailing left
        # singular columns of the same representative, translated back
        from anosovcheck.flags import qr_pos
        from anosovcheck.symmspace import spd_inv_sqrt, spd_sqrt

        for _ in range(20):
            x = random_spd_unit_det(rng, 3)
            y = random_spd_unit_det(rng, 3)
            u, _, _ = np.linalg.svd(spd_inv_sqrt(x) @ spd_sqrt(y))
            frame, _ = qr_pos(spd_sqrt(x) @ u[:, ::-1])
            expected = Flag(iota_face(FACE1), frame)
            bwd, _ = relative_flag(y, x, iota_face(FACE1))
            assert flag_distance(bwd, expected) < 1e-8

    def test_vanishing_gap(self):
        with pytest.raises(VanishingGap):
            relative_flag(O3, diag_point(1, 1, -2), FACE1)


class TestConeQuery:
    def cone(self):
        return WeylConeRef(O3, Flag(FACE1, np.eye(3)))

    def test_tip_is_boundary(self):
        assert cone_query(O3, self.cone()).kind == "boundary"

    def test_interior_margin(self):
        a = np.diag([np.e**4, np.e**-1, np.e**-3])
        verdict = cone_query(act_point(a, O3), self.cone())
        assert verdict.kind == "interior"
        assert verdict.margin == pytest.approx(5 / np.sqrt(2))

    def test_off_flag_is_outside(self):
        a = np.diag([np.e**-3, np.e**4, np.e**-1])
        verdict = cone_query(act_point(a, O3), self.cone())
        assert verdict.kind == "outside"
        assert verdict.diagnostics["flag_mismatch"] > 0.5

    def test_wall_point_is_boundary(self):
        # equal leading gaps collapse at the wall but keep the subspace
        y = diag_point(1, 1, -2)
        cone = WeylConeRef(O3, Flag(FaceType.make(3, [1, 2]), np.eye(3)))
        assert cone_query(y, cone).kind == "boundary"

    def test_separation_identity(self, rng):
        # inner-point margin equals the wall distance of the tip offset
        for _ in range(50):
            v = random_regular_cone_vector(rng, FACE1, min_gap=0.1)
            v = np.sort(v)[::-1]
            y = diag_point(*v)
            verdict = cone_query(y, self.cone())
            assert verdict.kind == "interior"
            assert verdict.margin == pytest.approx(
                face_boundary_distance(cartan_vector(O3, y), FACE1), abs=1e-12)

    def test_nestedness_sampled(self, rng):
        # points of an inner cone pass the outer cone query
        outer = self.cone()
        tip_offset = diag_point(3, 0.5, -3.5)
        count = 0
        while count < 200:
            v = np.sort(random_regular_cone_vector(rng, FACE1, min_gap=0.15, scale=1.5))[::-1]
            inner_pt = tip_offset @ diag_point(*v)
            inner_pt = normalize_det(inner_pt)
            assert cone_query(inner_pt, outer).inside
            count += 1


class TestDiamonds:
    def test_midpoint_member(self):
        y = diag_point(2, 0, -2)
        dia = make_diamond(O3, y, FACE1)
        member, _ = diamond_query(diag_point(1, 0, -1), dia)
        assert member

    def test_tips_member(self):
        y = diag_point(2, 0, -2)
        dia = make_diamond(O3, y, FACE_FULL, theta=ThetaSpec(FACE_FULL, 0.2))
        assert diamond_query(O3, dia)[0]
        assert diamond_query(y, dia)[0]

    def test_antipodality_enforced(self):
        frame = np.eye(3)
        with pytest.raises(IllConditioned):
            DiamondRef(O3, diag_point(2, 0, -2),
                       Flag(iota_face(FACE1), frame), Flag(FACE1, frame))

    def test_nested_diamond_transfer(self, rng):
        # sub-segments of regular diagonal segments stay members
        count = 0
        while count < 100:
            v = np.sort(random_regular_cone_vector(rng, FACE_FULL, min_gap=0.2, scale=1.2))[::-1]
            y = diag_point(*(4 * v / np.linalg.norm(v)))
            dia = make_diamond(O3, y, FACE_FULL, theta=ThetaSpec(FACE_FULL, 0.15))
            t0, t1 = sorted(rng.uniform(0.1, 0.9, size=2))
            if t1 - t0 < 0.2:
                continue
            logs = np.log(np.diag(y))
            inner_x = diag_point(*(t0 * logs))
            inner_y = diag_point(*(t1 * logs))
            inner = make_diamond(normalize_det(inner_x), normalize_det(inner_y), FACE_FULL)
            probe = normalize_det(diag_point(*(0.5 * (t0 + t1) * logs)))
            assert diamond_query(probe, inner)[0]
            assert diamond_query(probe, dia)[0]
            count += 1

    def test_deficit_zero_iff_member(self, rng):
        # points as g g^T with g the factor the deficit kernel reads
        tip = diag_point(1.25, 0, -1.25)
        dia = make_diamond(O3, tip @ tip.T, FACE1)
        inside = diag_point(0.6, 0, -0.6)
        assert diamond_query(inside @ inside.T, dia)[0]
        assert factor_deficit(tip, inside, FACE1) <= 1e-9
        mover = expm(np.array([[0, 0, 0.8], [0, 0, 0], [0.8, 0, 0]]))
        outside = mover @ inside
        assert not diamond_query(outside @ outside.T, dia)[0]
        assert factor_deficit(tip, outside, FACE1) > 0.1


def off_blocks(basis, x, face):
    """Off-block part of B^-1 x B^-T relative to the whole: zero iff x lies on the parallel set."""
    binv = np.linalg.inv(basis)
    z = binv @ x @ binv.T
    off = z.copy()
    for lo, hi in face.blocks:
        off[lo:hi, lo:hi] = 0.0
    return np.linalg.norm(off) / np.linalg.norm(z)


class TestParallelSet:
    def build(self, rng):
        q = random_sl(rng, 3, scale=0.4)
        y = act_point(q, diag_point(3, 0, -3))
        x = act_point(q, O3)
        plus, _ = relative_flag(x, y, FACE1)
        minus, _ = relative_flag(y, x, iota_face(FACE1))
        return x, y, make_parallel_set(minus, plus)

    def test_members_block_diagonal(self, rng):
        x, y, basis = self.build(rng)
        assert abs(np.linalg.det(basis) - 1.0) <= 1e-12
        assert off_blocks(basis, x, FACE1) <= 1e-12
        assert off_blocks(basis, y, FACE1) <= 1e-12

    def test_identity_in_standard_set(self):
        plus = Flag(FACE1, np.eye(3))
        minus = Flag(iota_face(FACE1), np.eye(3)[:, ::-1])
        basis = make_parallel_set(minus, plus)
        assert off_blocks(basis, O3, FACE1) <= 1e-12

    def test_transversality_floor(self, rng):
        plus = Flag(FACE1, np.eye(3))
        minus = Flag(iota_face(FACE1), np.eye(3))  # plane contains the line
        with pytest.raises(IllConditioned):
            make_parallel_set(minus, plus)

    def test_opposite_flag_through_point(self, rng):
        from anosovcheck.flags import transversality_margin
        std = Flag(FACE1, np.eye(3))
        _, opp = adapted_coordinates(O3, std)
        assert np.allclose(opp.projector(2), np.diag([0.0, 1.0, 1.0]), atol=1e-12)
        for _ in range(10):
            x = random_spd_unit_det(rng, 3)
            flag = random_flag(FACE1, rng)
            _, opp = adapted_coordinates(x, flag)
            assert transversality_margin(flag, opp) > 0.0
            # the point lies on the parallel set of the resulting pair
            assert off_blocks(make_parallel_set(opp, flag), x, FACE1) <= 1e-12


def synthesize_geodesic(rng, face, gap=0.2, steps=5, conjugate=True):
    q = random_sl(rng, 3, scale=0.35) if conjugate else np.eye(3)
    acc = np.zeros(3)
    path = [act_point(q, O3)]
    for _ in range(steps):
        v = random_regular_cone_vector(rng, face, min_gap=gap, scale=1.0)
        v *= (1.0 + rng.random())
        acc = acc + v
        path.append(act_point(q, diag_point(*acc)))
    return path


class TestDeltaProjection:
    def test_single_point(self):
        deltas, taus = delta_projection([O3], FACE1)
        assert np.allclose(deltas, 0.0) and np.allclose(taus, 0.0)

    def test_additivity_along_geodesics(self, rng):
        for _ in range(20):
            path = synthesize_geodesic(rng, FACE_FULL, gap=0.15)
            _, taus = delta_projection(path, FACE_FULL)
            for i in range(len(path)):
                for j in range(i, len(path)):
                    step = taumod_distance(path[i], path[j], FACE_FULL)
                    assert np.max(np.abs(taus[j] - taus[i] - step)) < 1e-7

    def test_flat_model_finsler(self, rng):
        path = synthesize_geodesic(rng, FACE_FULL, gap=0.2)
        deltas, _ = delta_projection(path, FACE_FULL)
        for i in range(len(path)):
            for j in range(i + 1, len(path)):
                assert flat_cone_member(deltas[j] - deltas[i], FACE_FULL, slack=1e-7)

    def test_distance_comparability(self, rng):
        theta = ThetaSpec(FACE_FULL, 0.2)
        eps = np.sin(theta_boundary_angle(theta))
        for _ in range(10):
            path = synthesize_geodesic(rng, FACE_FULL, gap=0.2)
            deltas, _ = delta_projection(path, FACE_FULL)
            for i in range(len(path)):
                for j in range(i + 1, len(path)):
                    lhs = np.linalg.norm(deltas[j] - deltas[i])
                    rhs = riemannian_distance(path[i], path[j])
                    assert lhs >= eps * rhs - 1e-9
                    assert lhs <= rhs + 1e-9


class TestTriangleContainment:
    def test_delta_side_lengths(self, rng):
        # triples with the middle point in the first cone and the third in
        # the middle point's cone, inside one parallel set
        count = 0
        while count < 500:
            q = random_sl(rng, 3, scale=0.4)
            v1 = random_regular_cone_vector(rng, FACE1, min_gap=0.05, scale=1.2)
            v2 = random_regular_cone_vector(rng, FACE1, min_gap=0.05, scale=1.2)
            x = act_point(q, O3)
            y = act_point(q, diag_point(*v1))
            z = act_point(q, diag_point(*(v1 + v2)))
            d_xy = cartan_vector(x, y)
            d_xz = cartan_vector(x, z)
            assert flat_cone_member(d_xz - d_xy, FACE1, slack=1e-7)
            assert np.all(np.diff(d_xz) <= 1e-9)
            count += 1
