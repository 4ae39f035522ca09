import numpy as np
import pytest
from scipy.linalg import expm

from anosovcheck.chamber import FaceType
from anosovcheck.dynamics import (
    ClassifyThresholds,
    classify_sequence,
    conical_check,
    detect_contraction,
    flag_limit,
)
from anosovcheck.errors import VanishingGap
from anosovcheck.flags import Flag, flag_distance
from anosovcheck.symmspace import normalize_det
from oracles import random_sl

FACE1 = FaceType.make(3, [1])
FACE2W = FaceType.make(3, [2])
FACE_FULL = FaceType.full(3)


def diag_powers(logs, count):
    g = np.diag(np.exp(np.array(logs, dtype=float)))
    return [np.linalg.matrix_power(g, n) for n in range(1, count + 1)]


class TestClassifySequence:
    def test_linear_family(self):
        deltas = [n * np.array([1.0, 0.0, -1.0]) for n in range(1, 31)]
        rep = classify_sequence(deltas, FACE_FULL, window=15)
        assert rep.regular and rep.uniform
        assert sorted(rep.detected_pure_face.kept) == [1, 2]
        assert rep.uniform_ratio_min == pytest.approx(0.5)

    def test_wall_family(self):
        v = np.array([1.0, 1.0, -2.0])
        v /= np.linalg.norm(v)
        deltas = [n * v for n in range(1, 31)]
        rep = classify_sequence(deltas, FACE2W, window=15)
        assert rep.regular and sorted(rep.detected_pure_face.kept) == [2]
        rep1 = classify_sequence(deltas, FACE1, window=15)
        assert not rep1.regular

    def test_sqrt_gap_not_uniform(self):
        deltas = [np.array([n + np.sqrt(n), float(n), -2 * n - np.sqrt(n)])
                  for n in range(1, 401)]
        rep = classify_sequence(deltas, FACE1, window=100)
        assert rep.regular and not rep.uniform

    def test_prepend_invariance(self):
        tail = [n * np.array([1.0, 0.0, -1.0]) for n in range(1, 31)]
        junk = [np.array([1.0, 0.5, -1.5]), np.array([2.0, -0.5, -1.5])]
        r1 = classify_sequence(tail, FACE_FULL, window=15)
        r2 = classify_sequence(junk + tail, FACE_FULL, window=15)
        assert (r1.regular, r1.uniform) == (r2.regular, r2.uniform)
        assert r1.detected_pure_face == r2.detected_pure_face

    def test_face_containment_monotone(self, rng):
        # a verdict for a larger face type implies it for smaller ones
        for _ in range(30):
            rates = np.sort(rng.uniform(0.2, 2.0, size=3))[::-1]
            rates -= rates.mean()
            deltas = [n * rates + rng.standard_normal(3) * 0.01 for n in range(1, 25)]
            deltas = [d - d.mean() for d in deltas]
            deltas = [np.sort(d)[::-1] for d in deltas]
            big = classify_sequence(deltas, FACE_FULL, window=12)
            for face in (FACE1, FACE2W):
                small = classify_sequence(deltas, face, window=12)
                if big.regular:
                    assert small.regular
                if big.uniform:
                    assert small.uniform

    def test_thresholds_recorded(self):
        deltas = [n * np.array([1.0, 0.0, -1.0]) for n in range(1, 10)]
        rep = classify_sequence(deltas, FACE_FULL, window=5,
                                thresholds=ClassifyThresholds(ratio_floor=0.11))
        assert rep.thresholds["ratio_floor"] == 0.11
        assert rep.as_dict()["thresholds"]["ratio_floor"] == 0.11


class TestDetectContraction:
    def test_diagonal_powers(self):
        gs = diag_powers([2, 1, -3], 8)
        rep = detect_contraction(gs, FACE1, samples=100, seed=5)
        assert rep.verdict
        dists = np.asarray(rep.details["max_distances"])
        # geometric decay at rate sigma_2/sigma_1
        assert dists[-1] < dists[0] * 1e-2

    def test_rotations_report_negative(self):
        th = 0.7
        rot = np.array([[np.cos(th), -np.sin(th), 0.0],
                        [np.sin(th), np.cos(th), 0.0],
                        [0.0, 0.0, 1.0]])
        gs = [np.linalg.matrix_power(rot, n) for n in range(1, 9)]
        rep = detect_contraction(gs, FACE1, samples=20, seed=5)
        assert rep.verdict is False
        assert rep.details["reason"] == "vanishing-gap"

    def test_inverse_sequence_co_contracts(self):
        # contraction of (g_n) toward its flag pair co-occurs with
        # contraction of the inverses toward the swapped pair
        from anosovcheck.chamber import iota_face
        from anosovcheck.flags import attractive_flag, flag_distance

        # depth 7 keeps the powered condition numbers resolvable in doubles
        for logs in ([2, 1, -3], [1.5, 0.5, -2.0], [3, -1, -2]):
            gs = diag_powers(logs, 7)
            inv = [np.linalg.inv(g) for g in gs]
            fwd = detect_contraction(gs, FACE1, samples=40, seed=2,
                                     decay_threshold=0.05)
            bwd = detect_contraction(inv, iota_face(FACE1), samples=40, seed=2,
                                     decay_threshold=0.05)
            assert fwd.verdict and bwd.verdict
            plus, minus, _ = attractive_flag(gs[-1], FACE1)
            plus_i, minus_i, _ = attractive_flag(inv[-1], iota_face(FACE1))
            assert flag_distance(plus_i, minus) <= 1e-10
            assert flag_distance(minus_i, plus) <= 1e-10


class TestFlagLimit:
    def test_powers_of_symmetric_element(self):
        gs = diag_powers([2, 1, -3], 8)
        res = flag_limit(gs, FACE1)
        assert res.converged
        assert flag_distance(res.flag, Flag(FACE1, np.eye(3))) <= 1e-10

    def test_alternating_is_inconclusive(self):
        g = np.diag([np.e**2, np.e, np.e**-3])
        th = 1.0
        rot = np.array([[np.cos(th), -np.sin(th), 0.0],
                        [np.sin(th), np.cos(th), 0.0],
                        [0.0, 0.0, 1.0]])
        gs = []
        for n in range(1, 9):
            gn = np.linalg.matrix_power(g, n)
            gs.append(gn if n % 2 == 0 else rot @ gn @ rot.T)
        res = flag_limit(gs, FACE1)
        assert not res.converged and len(res.clusters) == 2

    def test_bounded_perturbation_same_limit(self, rng):
        g = np.diag([np.e**2, np.e, np.e**-3])
        gs = [np.linalg.matrix_power(g, n) for n in range(1, 12)]
        perturbed = [m @ random_sl(rng, 3, scale=0.03) for m in gs]
        base = flag_limit(gs, FACE1)
        pert = flag_limit(perturbed, FACE1)
        assert flag_distance(base.flag, pert.flag) <= 1e-6

    def test_irregular_terminal_raises(self):
        with pytest.raises(VanishingGap):
            flag_limit([np.diag([np.e, 1.0, np.e**-1]), np.eye(3)], FACE1)


class TestConicalCheck:
    def test_diagonal_orbit_is_conical(self):
        gs = diag_powers([2, 1, -3], 8)
        tau = Flag(FACE1, np.eye(3))
        rep = conical_check(gs, tau, np.eye(3))
        assert rep.verdict
        assert rep.constants["geometric_sup"] <= 1e-9

    def test_transversal_drift_fails(self):
        gs = diag_powers([2, 1, -3], 6)
        k = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        drifted = [normalize_det(expm(0.35 * n * k) @ gs[n - 1] @ expm(0.35 * n * k).T)
                   for n in range(1, 7)]
        tau = Flag(FACE1, np.eye(3))
        rep = conical_check(drifted, tau, np.eye(3))
        assert not rep.verdict
        assert rep.constants["geometric_sup"] > 2.0

    def test_geometric_and_dynamical_agree(self, rng):
        # paired conical / drifting constructions give matching verdicts
        agreements = 0
        checked = 0
        for trial in range(50):
            q = random_sl(rng, 3, scale=0.25)
            g = q @ np.diag([np.e**1.4, 1.0, np.e**-1.4]) @ np.linalg.inv(q)
            gs = [normalize_det(np.linalg.matrix_power(g, n)) for n in range(1, 8)]
            drift = trial % 2 == 1
            if drift:
                k = q @ np.array([[0, 0, 1.0], [0, 0, 0], [1.0, 0, 0]]) @ q.T
                k = 0.5 * (k + k.T)
                gs = [normalize_det(expm(0.35 * n * k) @ gs[n - 1] @ expm(0.35 * n * k).T)
                      for n in range(1, 8)]
            try:
                limit = flag_limit(gs, FACE1)
            except VanishingGap:
                continue
            if limit.flag is None:
                continue
            rep = conical_check(gs, limit.flag, np.eye(3), rho=1.0)
            geo = rep.details["geometric_ok"]
            dyn = rep.details["dynamical_ok"]
            if dyn is None:
                continue
            checked += 1
            if geo == dyn:
                agreements += 1
            assert rep.verdict == (not drift)
        assert checked >= 40 and agreements >= checked - 5
