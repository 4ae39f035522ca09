import numpy as np
import pytest
from scipy.linalg import expm

from anosovcheck.chamber import FaceType
from anosovcheck.dynamics import conical_check, flag_limits
from anosovcheck.errors import VanishingGap
from anosovcheck.flags import Flag, attractive_flag, flag_distance
from anosovcheck.symmspace import normalize_det
from oracles import random_sl

FACE1 = FaceType.make(3, [1])


def diag_powers(logs, count):
    g = np.diag(np.exp(np.array(logs, dtype=float)))
    return [np.linalg.matrix_power(g, n) for n in range(1, count + 1)]


def limit_of(gs):
    """The limit flag of a regular sequence by flag_limits, or None."""
    flags = attractive_flag(np.asarray(gs), FACE1)[0]
    return flags[-1] if flag_limits(flags) else None


class TestFlagLimit:
    def test_powers_of_symmetric_element(self):
        gs = diag_powers([2, 1, -3], 8)
        assert flag_distance(limit_of(gs), Flag(FACE1, np.eye(3))) <= 1e-10

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
        assert limit_of(gs) is None

    def test_bounded_perturbation_same_limit(self, rng):
        g = np.diag([np.e**2, np.e, np.e**-3])
        gs = [np.linalg.matrix_power(g, n) for n in range(1, 12)]
        perturbed = [m @ random_sl(rng, 3, scale=0.03) for m in gs]
        assert flag_distance(limit_of(gs), limit_of(perturbed)) <= 1e-6


class TestConicalCheck:
    def test_diagonal_orbit_is_conical(self):
        gs = diag_powers([2, 1, -3], 8)
        tau = Flag(FACE1, np.eye(3))
        rep = conical_check(gs, tau, np.eye(3))
        assert rep.verdict
        assert rep.constants["geometric_sup"] <= 1e-9

    def test_irregular_terminal_fails_dynamical(self):
        tau = Flag(FACE1, np.eye(3))
        rep = conical_check([np.diag([np.e, 1.0, np.e**-1]), np.eye(3)], tau, np.eye(3))
        assert rep.details["dynamical_ok"] is False and not rep.verdict
        # an irregular element before a regular end is left out of the backward limit
        gs = diag_powers([2, 1, -3], 8)
        gs[5] = np.eye(3)
        rep = conical_check(gs, tau, np.eye(3))
        assert rep.details["dynamical_ok"] is True
        assert rep.constants["dynamical_min_margin"] == pytest.approx(1.0, abs=1e-12)

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
                limit = limit_of(gs)
            except VanishingGap:
                continue
            if limit is None:
                continue
            rep = conical_check(gs, limit, np.eye(3), rho=1.0)
            geo = rep.details["geometric_ok"]
            dyn = rep.details["dynamical_ok"]
            if dyn is None:
                continue
            checked += 1
            if geo == dyn:
                agreements += 1
            assert rep.verdict == (not drift)
        assert checked >= 40 and agreements >= checked - 5
