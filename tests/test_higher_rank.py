"""Spot checks in SL(4): middle blocks exercise every code path that
three-dimensional fixtures cannot (interior block structures, non-full
iota-invariant faces)."""

import numpy as np
import pytest

from anosovcheck.chamber import FaceType, iota_face
from anosovcheck.errors import TransversalityTooSmall
from anosovcheck.flags import (
    Flag,
    expansion_factor,
    flag_distance,
    tangent_dim,
)
from anosovcheck.subgroup import (
    morse_check,
    schottky_build,
    uru_check,
)
from anosovcheck.symmspace import (
    WeylConeRef,
    _two_sided_frame,
    cartan_vector,
    cone_query,
    diamond_query,
    factored_coords_pair,
    make_diamond,
    relative_flag,
    segment_deficits,
)
from conftest import sl4_pair
from oracles import (
    exact_left_singular_frame,
    expansion_factor_fd,
    iota_vector,
    random_flag,
    random_sl,
    random_spd_unit_det,
    reduced_words,
)

FACE_MID = FaceType.make(4, [2])          # blocks (2, 2)
FACE_SPLIT = FaceType.make(4, [1, 3])     # blocks (1, 2, 1), iota-invariant
FACE_FULL4 = FaceType.full(4)


def test_face_bookkeeping():
    assert FACE_MID.blocks == ((0, 2), (2, 4))
    assert FACE_SPLIT.blocks == ((0, 1), (1, 3), (3, 4))
    assert FACE_SPLIT.is_iota_invariant
    assert iota_face(FaceType.make(4, [1])) == FaceType.make(4, [3])
    assert tangent_dim(FACE_MID) == 4
    assert tangent_dim(FACE_SPLIT) == 5
    assert tangent_dim(FACE_FULL4) == 6


def test_cartan_involution(rng):
    for _ in range(50):
        x = random_spd_unit_det(rng, 4, scale=0.4)
        y = random_spd_unit_det(rng, 4, scale=0.4)
        assert np.max(np.abs(cartan_vector(y, x) - iota_vector(cartan_vector(x, y)))) < 1e-9


@pytest.mark.parametrize("face", [FACE_MID, FACE_SPLIT, FACE_FULL4])
def test_expansion_matches_finite_differences(face, rng):
    for _ in range(15):
        g = random_sl(rng, 4, scale=0.5)
        f = random_flag(face, rng)
        exact = expansion_factor(g, f)
        assert abs(exact - expansion_factor_fd(g, f)) / exact <= 1e-4


def test_diagonal_expansion_per_face(rng):
    logs = np.array([3.0, 1.0, -1.0, -3.0])
    g = np.diag(np.exp(logs))
    for face in (FACE_MID, FACE_SPLIT, FACE_FULL4):
        f = random_flag(face, rng)
        frame_id = np.eye(4)
        std = Flag(face, frame_id)
        # minimal scaling of the inverse action at the attracting flag is
        # the smallest kept-wall gap
        expected = np.exp(min(logs[i - 1] - logs[i] for i in face.dims))
        assert expansion_factor(np.linalg.inv(g), std) == pytest.approx(expected, rel=1e-10)


def test_cone_and_diamond_mid_face(rng):
    o4 = np.eye(4)
    y = np.diag(np.exp([2.0, 1.0, -1.0, -2.0]))  # a point: half-log spectrum
    flag, gaps = relative_flag(o4, y, FACE_MID)
    assert gaps == pytest.approx([1.0])
    verdict = cone_query(y, WeylConeRef(o4, flag))
    assert verdict.kind == "interior"
    assert verdict.margin == pytest.approx(1.0 / np.sqrt(2.0))
    dia = make_diamond(o4, y, FACE_SPLIT)
    mid = np.diag(np.exp([0.5, 0.25, -0.25, -0.5]))  # a factor: mid @ mid.T is the point
    assert diamond_query(mid @ mid.T, dia)[0]
    tip = np.diag(np.exp([1.0, 0.5, -0.5, -1.0]))
    a_plus = factored_coords_pair(tip, np.linalg.inv(tip), FACE_SPLIT)[0]
    pts = [(mid, np.linalg.inv(mid))]
    assert segment_deficits(o4, a_plus, pts, FACE_SPLIT)[0] <= 1e-9


def test_small_pipeline_in_sl4(rng):
    # certify a pair by ping-pong first, then run the coarse checkers on
    # the certified presentation; rotations in the (1,4) and (2,3) planes
    # move every axis flag of a to a transverse position (the (1,3) and
    # (2,4) planes do not: there e1 lies in q<e1,e2,e3>, see
    # test_sl4_pair_sharing_axis_lines_rejected)
    pres, pp = schottky_build(list(sl4_pair(((0, 3, 0.9), (1, 2, 0.7)))), FACE_SPLIT, max_power=16)
    assert pp.verdict
    uru = uru_check(pres, FACE_SPLIT, 5)
    assert uru.verdict
    morse = morse_check(pres, FACE_SPLIT, 5, rho_cap=6.0)
    assert morse.verdict


def test_sl4_pair_sharing_axis_lines_rejected():
    # with rotations in the (1,3) and (2,4) planes, q e4 is orthogonal to
    # e1, so the attracting line of a lies in the attracting 3-plane of b:
    # the axis flags are not antipodal and ping-pong must not be attempted
    pair = sl4_pair(((0, 2, 0.9), (1, 3, 0.7)))
    with pytest.raises(TransversalityTooSmall, match="axis flags 0 and 2"):
        schottky_build(list(pair), FACE_SPLIT, max_power=16)


def test_morse_endpoint_frame_matches_exact_flag():
    # past depth 2 the smallest singular value of a word falls below eps
    # times the largest, so a direct SVD's trailing columns are noise; the
    # two-sided frame must still match the exact singular flag
    pres, _ = schottky_build(list(sl4_pair(((0, 3, 0.9), (1, 2, 0.7)))), FACE_SPLIT, max_power=16)
    worst = 0.0
    for word in reduced_words(pres.rank, 5):
        if word[0] != 1:
            continue
        letters = [pres.letter_matrix(lt) for lt in word]
        m = np.eye(4)
        minv = np.eye(4)
        for lt, g in zip(word, letters):
            m = m @ g
            minv = pres.letter_matrix(-lt) @ minv
        frame = _two_sided_frame(m, minv)
        exact = exact_left_singular_frame(letters)
        worst = max(worst, flag_distance(Flag(FACE_SPLIT, frame), Flag(FACE_SPLIT, exact)))
    assert worst <= 1e-12
