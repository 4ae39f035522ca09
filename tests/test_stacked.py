"""Stacked primitives: leading axes are batch axes, and every row of a
stack comes out bit for bit as the same primitive gives it alone."""

import itertools

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from anosovcheck.chamber import (
    FaceType,
    block_sort,
    flat_cone_deficit,
    iota_face,
    pav_nonincreasing,
    row_norms,
)
from anosovcheck.cli import bundled_config_path, load_config
from anosovcheck.dynamics import flag_limits
from anosovcheck.errors import VanishingGap
from anosovcheck.flags import (
    Flag,
    act_on_flag,
    action_differential,
    antipodality_margin,
    attractive_flag,
    expansion_factor,
    flag_distance,
    q_closed,
    qr_pos,
    suffix_flags,
    transversality_margin,
    triu_inverse,
)
from anosovcheck import subgroup, symmspace
from anosovcheck.subgroup import (
    FreeGroupPresentation,
    _pair_scan,
    _two_sided_logs,
    anosov_check,
    limit_report,
    sample_rays,
    word_levels,
)
from anosovcheck.symmspace import (
    _two_sided_frame,
    _two_sided_svd,
    factored_coords_pair,
    segment_deficits,
)
from oracles import (
    exact_centered_logs,
    exact_left_singular_frame,
    flag_limit_loop,
    off_mp,
    pair_scan_loop,
    pav_sequential,
    random_sl,
    ray_letters_loop,
    segment_deficit_mp,
    word_product,
)

FACES = {
    2: [FaceType.full(2)],
    3: [FaceType.full(3), FaceType.make(3, [1])],
    4: [FaceType.full(4), FaceType.make(4, [1, 3]), FaceType.make(4, [2])],
}


def products(rng, n, count=40):
    """Exact products of up to 12 random letters and their inverses."""
    letters = [random_sl(rng, n, scale=1.2) for _ in range(4)]
    mats, invs = [], []
    for _ in range(count):
        m, mi = np.eye(n), np.eye(n)
        for k in rng.integers(len(letters), size=rng.integers(1, 13)):
            m = m @ letters[k]
            mi = np.linalg.inv(letters[k]) @ mi
        mats.append(m)
        invs.append(mi)
    return np.stack(mats), np.stack(invs)


def assert_rows_equal(stacked, single):
    for k, row in enumerate(single):
        assert np.array_equal(stacked[k], row), k


@pytest.mark.parametrize("n", [2, 3, 4])
def test_two_sided_svd_and_logs(rng, n):
    mats, invs = products(rng, n)
    svd, svd_inv = np.linalg.svd(mats), np.linalg.svd(invs)
    for args in ((svd, svd_inv), (svd_inv, svd)):  # the frames of mats, and of invs
        assert_rows_equal(_two_sided_svd(*args),
                          [_two_sided_svd(*(tuple(x[k] for x in side) for side in args))
                           for k in range(len(mats))])
    for m, mi in ((mats, invs), (invs, mats)):
        assert_rows_equal(_two_sided_frame(m, mi), [_two_sided_frame(*x) for x in zip(m, mi)])
        # as limit reads both sides of a ray sample: one call over a stack of stacks
        both = _two_sided_frame(np.stack([m, mi]), np.stack([mi, m]))
        assert np.array_equal(both[0], _two_sided_frame(m, mi))
    if n > 3:  # LAPACK's two-sided frame, bit for bit
        assert np.array_equal(_two_sided_frame(mats, invs), _two_sided_svd(svd, svd_inv))
    logdets = np.linalg.slogdet(mats)[1]
    assert_rows_equal(_two_sided_logs(mats, invs, logdets),
                      [_two_sided_logs(m, mi, d) for m, mi, d in zip(mats, invs, logdets)])


ORACLE_DEPTHS = (1, 2, 4, 8, 12, 16, 24, 32, 48, 64)


def assert_ray_logs_match_oracle(pres, sample, logs, depths, read, tol=1e-12):
    """``read`` of each ray's computed logs at the given prefix depths, against mpmath."""
    for r, word in enumerate(sample.letters.tolist()):
        for depth in depths:
            exact = exact_centered_logs([pres.letter_matrix(lt) for lt in word[:depth]])
            assert abs(read(logs[r, depth - 1]) - read(exact)).max() <= tol, (r, depth)


@pytest.mark.parametrize("fixture, tol", [("sl2_pres", 1e-13), ("sanov_pres", 1e-13),
                                          ("sl3_pres", 1e-12)], ids=["2", "sanov", "3"])
def test_two_sided_logs_match_oracle(request, fixture, tol):
    # power rays and random words; at depth 64 the sl3 power rays' top
    # singular value is 16**64, and an unscaled Gram matrix overflows its cube.
    # At n = 2 the logs read s_1 and the summed log|det| alone (largest error 1.4e-14 on
    # sl2, 1.1e-16 on sanov's parabolic letters, whose determinants are exactly 1)
    pres = request.getfixturevalue(fixture)
    sample = sample_rays(pres, 8, ORACLE_DEPTHS[-1], seed=1, face=FACES[pres.n][0])
    logs = _two_sided_logs(sample.prefixes, sample.inverses, sample.logdets)
    assert_ray_logs_match_oracle(pres, sample, logs, ORACLE_DEPTHS, lambda x: x, tol)


def test_two_sided_logs_read_no_inverse_at_n2(rng):
    # at n = 2 the smallest log is -d_1 from the determinant, so a NaN inverse changes no bit
    mats, invs = products(rng, 2)
    logdets = np.linalg.slogdet(mats)[1]
    assert np.array_equal(_two_sided_logs(mats, np.full_like(invs, np.nan), logdets),
                          _two_sided_logs(mats, invs, logdets))


def test_limit_flags_match_oracle(sl3_pres, monkeypatch):
    # limit reads the last prefixes' flags in one two-sided frame call and every
    # inverse prefix's in a second; a one-sided read of these rays errs by 1.7e-2
    # at depth 12 and by about 1 from depth 16 on.  The prefixes' flags at
    # shallower depths come from the same kernel on the sample's whole stack
    frames = []
    kernel = subgroup._two_sided_frame
    monkeypatch.setattr(subgroup, "_two_sided_frame",
                        lambda *args: frames.append(kernel(*args)) or frames[-1])
    face = FaceType.full(3)
    sample = sample_rays(sl3_pres, 40, 24, 1, face)
    rep = limit_report(sl3_pres, face, sample)
    # a ray is named, and read, by its first 24 letters
    assert [ray["letters"] for ray in rep.details["rays"]] == sample.letters[:, :24].tolist()
    forward, backward = kernel(sample.prefixes, sample.inverses), frames[1]
    assert backward.shape == forward.shape

    def error(frame, letters):
        exact = exact_left_singular_frame([sl3_pres.letter_matrix(lt) for lt in letters])
        return flag_distance(Flag(face, frame), Flag(face, exact))

    for r, ray in enumerate(rep.details["rays"]):
        word = ray["letters"]
        assert np.array_equal(ray["limit_flag_frame"], forward[r, -1]), r
        assert error(ray["limit_flag_frame"], word) <= 1e-12, r
        for depth in (8, 12, 16, 24):
            assert error(forward[r, depth - 1], word[:depth]) <= 1e-12, (r, depth)
            inverse = [-lt for lt in reversed(word[:depth])]
            assert error(backward[r, depth - 1], inverse) <= 1e-12, (r, depth)


def test_two_sided_logs_at_a_doubled_top_value():
    # rotated diag(2, 2, 1/4): the trigonometric top eigenvalue alone reads the vanishing
    # gap d_1 - d_2 as up to 8e-9, which GAP_TOL = 1e-9 would take for a regular wall
    rng = np.random.default_rng(0)
    q1, q2 = (np.stack([qr_pos(rng.standard_normal((3, 3)))[0] for _ in range(200)])
              for _ in range(2))
    mats = q1 @ np.diag([2.0, 2.0, 0.25]) @ q2
    invs = np.swapaxes(q2, -1, -2) @ np.diag([0.5, 0.5, 4.0]) @ np.swapaxes(q1, -1, -2)
    logs = _two_sided_logs(mats, invs, np.zeros(len(mats)))
    assert np.abs(logs[:, 0] - logs[:, 1]).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_two_sided_frame_matches_oracle(request, n):
    # 200 digits: at depth 64 the sl3 power rays spread their singular values by 1e154,
    # past what a 90-digit SVD resolves in the bottom column
    pres = request.getfixturevalue(f"sl{n}_pres")
    sample = sample_rays(pres, 8, ORACLE_DEPTHS[-1], seed=1, face=FACES[n][0])
    frame = _two_sided_frame(sample.prefixes, sample.inverses)
    for r, word in enumerate(sample.letters.tolist()):
        for depth in ORACLE_DEPTHS:
            got = frame[r, depth - 1]
            exact = exact_left_singular_frame([pres.letter_matrix(lt) for lt in word[:depth]],
                                              digits=200)
            # each column against the exact one's line, cancellation free
            err = np.linalg.norm(got - exact * (exact * got).sum(axis=0), axis=0)
            assert err.max() <= 1e-14, (r, depth, err)
            assert np.abs(got.T @ got - np.eye(n)).max() <= 2e-15, (r, depth)


def test_two_sided_frame_shares_the_top_read(rng):
    # the frame and logs from m's top read, as word_checks, the conical windows and limit
    # pass it, are those that read their own, bit for bit: on products, on rows whose top
    # vector is noise and u3 is kept (first False) and on short rows, where u2 is an axis
    # normal; and on the last prefixes of a stack of stacks, with the read sliced as limit
    # slices it
    q1, q2 = (np.stack([qr_pos(rng.standard_normal((3, 3)))[0] for _ in range(50)])
              for _ in range(2))
    mats, invs = products(rng, 3)
    for spectrum in ([2.0, 2.0, 0.25], [1.0, 1.0, 1.0]):
        mats = np.concatenate([mats, q1 @ np.diag(spectrum) @ q2])
        invs = np.concatenate([invs, np.swapaxes(q2, -1, -2) @ np.diag(1.0 / np.array(spectrum))
                               @ np.swapaxes(q1, -1, -2)])
    (u1, res1), (u3, res3) = (symmspace._top_left_vector(x)
                              for x in (mats, np.swapaxes(invs, -1, -2)))
    u2 = symmspace._cross3(u3, u1)
    first, short = res1 >= res3, symmspace._dot3(u2, u2) < 0.5
    assert (first & ~short).any() and (~first).any() and short.any()
    top = symmspace._top_read(mats)
    assert np.array_equal(_two_sided_frame(mats, invs, top), _two_sided_frame(mats, invs))
    logdets = np.linalg.slogdet(mats)[1]
    assert np.array_equal(_two_sided_logs(mats, invs, logdets, top),
                          _two_sided_logs(mats, invs, logdets))
    m, mi = (x.reshape(10, -1, 3, 3) for x in (mats, invs))
    assert np.array_equal(_two_sided_frame(m[:, -1], mi[:, -1],
                                           tuple(x[:, -1] for x in symmspace._top_read(m))),
                          _two_sided_frame(m[:, -1], mi[:, -1]))
    assert symmspace._top_read(mats[:, :2, :2]) == ()


def test_two_sided_frame_at_doubled_values():
    # rotated diag(2, 2, 1/4) resolves only its bottom vector, diag(4, 1/2, 1/2) only its
    # top one, and an orthogonal matrix none: the frame stays finite and orthonormal, and
    # keeps the vector that is resolved
    rng = np.random.default_rng(0)
    q1, q2 = (np.stack([qr_pos(rng.standard_normal((3, 3)))[0] for _ in range(200)])
              for _ in range(2))
    for spectrum, col in (([2.0, 2.0, 0.25], 2), ([4.0, 0.5, 0.5], 0), ([1.0, 1.0, 1.0], None)):
        mats = q1 @ np.diag(spectrum) @ q2
        invs = np.swapaxes(q2, -1, -2) @ np.diag(1.0 / np.array(spectrum)) @ np.swapaxes(q1, -1, -2)
        for m, mi in ((mats, invs), (np.diag(spectrum), np.diag(1.0 / np.array(spectrum)))):
            frame = _two_sided_frame(m, mi)
            assert np.isfinite(frame).all(), spectrum
            gram = np.swapaxes(frame, -1, -2) @ frame
            assert np.abs(gram - np.eye(3)).max() <= 2e-15, spectrum
            if col is not None:
                exact = (q1 if m is mats else np.eye(3))[..., col]
                assert (1.0 - np.abs((frame[..., col] * exact).sum(axis=-1))).max() <= 1e-14


def test_deficits_match_oracle(pipeline_runs):
    # the sl3 witnesses of morse's rho and limit's conical sup, against 80-digit
    # segment_deficits: ray 33's centred window (1, 1, -2, -1, 2, 1, -2, -1), letters
    # 4 to 11, at t = 4 is the conical witness
    reports = pipeline_runs["sl3-symsq-schottky"]["reports"]
    cfg = load_config(bundled_config_path("sl3-symsq-schottky"))
    pres, face = cfg.presentation(), cfg.face_type()

    def exact(word, t):
        letters = [pres.letter_matrix(lt) for lt in word]
        return segment_deficit_mp(letters, letters[:t], face)

    morse = reports["morse"]
    witness = morse["witnesses"]
    rho = exact(witness["worst_word"], witness["worst_interior_index"])
    assert rho == pytest.approx(1.58339322086160344, rel=1e-15)
    assert morse["constants"]["rho"] == pytest.approx(rho, rel=5e-12, abs=0.0)
    assert witness["worst_deficit"] == pytest.approx(rho, rel=5e-12, abs=0.0)

    window = [1, 1, -2, -1, 2, 1, -2, -1]
    assert reports["limit"]["details"]["rays"][33]["letters"][3:11] == window
    sup = exact(window, 4)
    assert sup == pytest.approx(1.5805509316720638, rel=1e-15)
    assert reports["limit"]["constants"]["conical_sup"] == pytest.approx(sup, rel=1e-12, abs=0.0)


def nearer_tip_deficits(pres, face, letters, t):
    """Each word's deficit at prefix length t, read from the word's own tip as morse reads it."""
    _, prefixes, inverses, logdets = subgroup._prefix_products(pres, letters)
    tip, tip_inv = prefixes[:, -1], inverses[:, -1]
    a_plus = _two_sided_logs(tip, tip_inv, logdets[:, -1])
    rows = np.arange(len(t))
    points = [(prefixes[rows, t - 1], inverses[rows, t - 1])]
    return segment_deficits(_two_sided_frame(tip, tip_inv), a_plus, points, face)[:, 0]


@pytest.mark.parametrize("name, bound", [("sl3-symsq-schottky", 1e-6), ("sl2-schottky", 1e-11)])
def test_nearer_tip_deficits_match_oracle(name, bound):
    # morse reads word w of length L at t <= L/2 from its own tip, at t > L/2 from
    # w^-1's tip at L - t, and at t = L/2 takes the smaller read; the smaller of
    # the two tips' reads errs by up to 3.6e-3 on these sl3 words, this rule by 1.2e-10
    cfg = load_config(bundled_config_path(name))
    pres, face = cfg.presentation(), cfg.face_type()
    rng = np.random.default_rng(0)
    for length in (6, 7, 8):
        words = subgroup._random_words(rng, pres.rank, 30, length)
        t = rng.integers(1, length, size=len(words))
        near = nearer_tip_deficits(pres, face, words, t)
        far = nearer_tip_deficits(pres, face, -words[:, ::-1], length - t)
        read = np.where(2 * t < length, near, np.where(2 * t > length, far, np.minimum(near, far)))
        for k, word in enumerate(words.tolist()):
            letters = [pres.letter_matrix(lt) for lt in word]
            exact = segment_deficit_mp(letters, letters[:t[k]], face)
            assert abs(read[k] - exact) <= bound, (word, t[k], read[k], exact)


@pytest.mark.parametrize("name, bound", [("sl3-symsq-schottky", 1e-6), ("sl2-schottky", 1e-11)])
def test_nearer_tip_windows_match_oracle(name, bound, monkeypatch):
    # limit's conical test reads a window's point from the window's start where 2t < L,
    # from its far tip where 2t > L, and from both at 2t = L, keeping the larger read:
    # 16 reads for the 11 windows of a depth-12 ray, 5 of them centred
    cfg = load_config(bundled_config_path(name))
    pres, face = cfg.presentation(), cfg.face_type()
    reads = []
    kernel = subgroup.segment_deficits
    monkeypatch.setattr(subgroup, "segment_deficits",
                        lambda *args: reads.append(kernel(*args)) or reads[-1])
    rays = limit_report(pres, face, sample_rays(pres, 8, 12, 7, face)).details["rays"]
    (read,) = reads
    read = read[..., 0]
    assert read.shape == (len(rays), 16)
    for r, ray in enumerate(rays):
        letters = [pres.letter_matrix(lt) for lt in ray["letters"]]
        col, sup = 0, 0.0
        for n in range(1, 12):
            lo, hi = max(0, n - subgroup.CONICAL_LOOKAHEAD), min(12, n + subgroup.CONICAL_LOOKAHEAD)
            width = 2 if 2 * (n - lo) == hi - lo else 1
            got = read[r, col:col + width].max()
            col += width
            exact = segment_deficit_mp(letters[lo:hi], letters[lo:n], face)
            assert abs(got - exact) <= bound, (ray["letters"], n, got, exact)
            sup = max(sup, got)
        assert ray["conical_geometric_sup"] == sup


def test_resolved_outer_spread_matches_oracle(rng):
    # once s_1 passes 1/eps the direct SVD's bottom value is noise above 1;
    # the outer spread d_1 - d_n must still come from the resolving sides
    pres = FreeGroupPresentation(tuple(random_sl(rng, 4, scale=1.2) for _ in range(2)))
    sample = sample_rays(pres, 6, 24, seed=1, face=FACES[4][0])
    s = np.linalg.svd(sample.prefixes, compute_uv=False)
    assert s[:, -1, 0].max() > 1e18
    logs = _two_sided_logs(sample.prefixes, sample.inverses, sample.logdets)
    assert_ray_logs_match_oracle(pres, sample, logs, (4, 8, 12, 16, 24), lambda x: x[0] - x[-1])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_factored_coords_pair(rng, n):
    mats, invs = products(rng, n)
    # a second batch axis, as morse stacks interior points of many words
    w, wi = mats.reshape(2, -1, n, n), invs.reshape(2, -1, n, n)
    for face in FACES[n]:
        v, off = factored_coords_pair(w, wi, face)
        for idx in np.ndindex(w.shape[:2]):
            v1, off1 = factored_coords_pair(w[idx], wi[idx], face)
            assert np.array_equal(v[idx], v1) and off[idx] == off1, (face, idx)


@pytest.mark.parametrize("face", [FaceType.make(3, [1]), FaceType.make(3, [2]),
                                  FaceType.make(4, [1, 3]), FaceType.make(4, [2]),
                                  FaceType.full(4)], ids=lambda f: f"{f.n}-{sorted(f.kept)}")
def test_factored_coords_pair_mixed_blocks(rng, face, monkeypatch):
    # the width-1 blocks are read in one pass, beside the SVDs of the wider blocks
    mats, invs = products(rng, face.n)
    whitened = []
    kernel = symmspace._whitened_off
    monkeypatch.setattr(symmspace, "_whitened_off", lambda m: whitened.append(m) or kernel(m))
    v, off = factored_coords_pair(mats, invs, face)
    ((rows, cols),) = whitened
    for k in range(len(mats)):
        v1, off1 = factored_coords_pair(mats[k], invs[k], face)
        assert np.array_equal(v[k], v1) and off[k] == off1, k
    # the better-resolved side of the whitened factors, against their 50-digit spreads
    sig = [np.linalg.svd(side, compute_uv=False) for side in (rows, cols)]
    exact = np.minimum(*([off_mp(m) for m in side] for side in (rows, cols)))
    assert_off_matches_oracle(off, exact, np.maximum(*(s[:, 0] / s[:, -1] for s in sig)))


def assert_off_matches_oracle(off, exact, cond):
    """The off distance against 50-digit values, at condition numbers cond.

    Below off = 3 the bound is absolute.  Above it no float route does
    better than eps * s_1 / s_n, the rounding of one entry carried to the
    smallest singular value; LAPACK's values reach that bound on these
    products, so it is taken where it exceeds 1e-12.
    """
    for k, ex in enumerate(exact):
        bound = max(2e-14 if ex < 3 else 1e-12, np.finfo(float).eps * cond[k])
        assert abs(off[k] - ex) <= bound, (k, off[k], ex)


@pytest.mark.parametrize("n", [2, 3])
def test_whitened_off_matches_oracle(rng, n, monkeypatch):
    def cond(mats):
        sig = np.linalg.svd(mats, compute_uv=False)
        return sig[:, 0] / sig[:, -1]

    mats, invs = products(rng, n)
    whitened = []
    kernel = symmspace._whitened_off
    monkeypatch.setattr(symmspace, "_whitened_off", lambda m: whitened.append(m) or kernel(m))
    for face in FACES[n]:
        off = factored_coords_pair(mats, invs, face)[1]
        rows, cols = whitened[-1]  # both sides, stacked
        exact = [[off_mp(m) for m in side] for side in (rows, cols)]
        for side, ex in zip((rows, cols), exact):
            assert_off_matches_oracle(kernel(side), ex, cond(side))
        if face == FaceType.make(3, [1]):
            # the 2-block face end to end: the better-resolved side
            assert_off_matches_oracle(off, np.minimum(*exact), np.maximum(cond(rows), cond(cols)))
    # the identity, points on the parallel set, and doubled singular values,
    # where the trigonometric form meets r = -1 or r = +1
    q1, q2 = (qr_pos(rng.standard_normal((n, n)))[0] for _ in range(2))
    spectra = [np.ones(n)] + [np.exp(1e-9 * rng.standard_normal(n)) for _ in range(3)]
    if n == 3:
        spectra += [np.array([2.0, 2.0, 0.25]), np.array([4.0, 0.5, 0.5])]
    special = np.stack([np.diag(s) for s in spectra] + [q1 @ np.diag(s) @ q2 for s in spectra])
    off = kernel(special)
    assert off[0] == 0.0 and (off[1:4] < 1e-8).all()
    assert_off_matches_oracle(off, [off_mp(m) for m in special], cond(special))


def unit_rows(m):
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


def assert_off_bound_holds(mats):
    """``_off_bound`` at or above the kernel's read and the 50-digit spread of each factor."""
    bound = symmspace._off_bound(np.abs(symmspace._det(mats)), mats.shape[-1])
    assert (bound >= symmspace._whitened_off(mats)).all()
    for k, m in enumerate(mats):
        assert bound[k] >= off_mp(m), (k, bound[k], off_mp(m))
    return bound


def test_off_bound_holds(rng):
    # orthogonal factors perturbed at scales 1e-8 to 3
    scales = np.geomspace(1e-8, 3.0, 60)
    mats = [unit_rows(q + s * rng.standard_normal((3, 3)))
            for q, s in zip(frames(rng, 3, len(scales)), scales)]
    # near-singular: the third row off the plane of the first two by 1e-14 to 1e-2
    # and 100 draws at 1e-14, where the float determinant's rounding is most of D
    for eps in [*np.geomspace(1e-14, 1e-2, 13), *[1e-14] * 100]:
        a, b = rng.standard_normal((2, 3))
        mats.append(unit_rows(np.stack([a, b, a - 2.0 * b + eps * rng.standard_normal(3)])))
    # the extremal factors: s^2 = (x, x, 3 - 2x) has unit rows where U's third
    # column is (1, 1, 1) / sqrt(3); at x >= 1 the bound is tight up to its margin
    xs = np.concatenate([np.linspace(0.02, 1.48, 30), 1.0 - np.geomspace(1e-12, 1e-2, 6),
                         1.0 + np.geomspace(1e-12, 1e-2, 6), [1.0, 1.5]])
    for x in xs:
        u = np.linalg.qr(np.column_stack([np.ones(3), rng.standard_normal((3, 2))]))[0][:, [1, 2, 0]]
        mats.append((u * np.sqrt([x, x, 3.0 - 2.0 * x])) @ frames(rng, 3, 1)[0])
    mats = np.stack(mats)
    assert np.allclose(np.linalg.norm(mats, axis=-1), 1.0)
    bound = assert_off_bound_holds(mats)
    tight = (xs >= 1.0) & (xs < 1.5)  # x = 1.5 is singular
    gap = bound[-len(xs):][tight] - symmspace._whitened_off(mats[-len(xs):][tight])
    assert (gap <= 3e-6).all()


def test_off_bound_holds_at_n2(rng):
    # at n = 2 the bound is the spread itself, arccosh(1 / D) / sqrt(2), widened
    # orthogonal factors perturbed at scales 1e-8 to 3
    scales = np.geomspace(1e-8, 3.0, 60)
    mats = [unit_rows(q + s * rng.standard_normal((2, 2)))
            for q, s in zip(frames(rng, 2, len(scales)), scales)]
    # rows at angle pi/2 - eps (D -> 1) and at pi/2, and at angle eps (D -> 0,
    # near-singular) down to 1e-10, where the float determinant still has about
    # six digits
    eps = np.geomspace(1e-12, 1e-1, 23)
    for angle in np.concatenate([np.pi / 2 - eps, [np.pi / 2], eps[eps >= 1e-10]]):
        a = rng.uniform(0.0, 2.0 * np.pi)
        mats.append(np.array([[np.cos(a), np.sin(a)], [np.cos(a + angle), np.sin(a + angle)]]))
    mats = np.stack(mats)
    assert np.allclose(np.linalg.norm(mats, axis=-1), 1.0)
    bound = assert_off_bound_holds(mats)
    # unit rows 1e-14 and 1e-12 apart, 100 draws each: D is about the float
    # determinant's rounding, which the bound must cover
    for apart in (1e-14, 1e-12):
        a = rng.standard_normal((100, 1, 2))
        assert_off_bound_holds(unit_rows(np.concatenate(
            [a, a + apart * rng.standard_normal((100, 1, 2))], axis=1)))
    # D = 0 gives a finite bound, and no RuntimeWarning (the suite makes one an error)
    assert np.isfinite(symmspace._off_bound(np.zeros(1), 2)).all()
    # the bound is tight: only the widening separates it from the kernel's read
    off = symmspace._whitened_off(mats)
    assert (bound - off <= 1e-6 * (1.0 + off) + 1e-7).all()


@pytest.mark.parametrize("kept", [[1], [2]])
def test_off_bound_on_faces(rng, kept, monkeypatch):
    # both whitened sides of face [1] (a width-2 block, read by its SVD) and
    # face [2]; with a floor, the off distance is exact where the better
    # side's bound reaches it, and elsewhere that bound, below the floor
    face = FaceType.make(3, kept)
    mats, invs = products(rng, 3)
    whitened = []
    kernel = symmspace._whitened_off
    monkeypatch.setattr(symmspace, "_whitened_off", lambda m: whitened.append(m) or kernel(m))
    v, off = factored_coords_pair(mats, invs, face)
    ((rows, cols),) = whitened
    bound = np.minimum(*(assert_off_bound_holds(side) for side in (rows, cols)))
    floor = np.median(bound)
    whitened.clear()
    v1, off1 = factored_coords_pair(mats, invs, face, floor)
    read = bound >= floor
    assert np.array_equal(v1, v)
    assert np.array_equal(off1[~read], bound[~read]) and (off1[~read] < floor).all()
    # the read rows: one call on the side of the larger D, then one on the other side
    # where that first read reaches the floor, which then gives the both-sides read
    first, second = whitened
    larger = np.abs(symmspace._det(rows)) >= np.abs(symmspace._det(cols))
    assert np.array_equal(first, np.where(larger[:, None, None], rows, cols)[read])
    again = read.copy()
    again[read] = ~(kernel(first) < floor)
    assert np.array_equal(second, np.where(larger[:, None, None], cols, rows)[again])
    assert np.array_equal(off1[again], off[again])
    assert (off1[read] >= off[read]).all() and (off1[read & ~again] < floor).all()


@pytest.mark.parametrize("n", [2, 3])
def test_exact_off_reads_the_tighter_side_first(rng, n, monkeypatch):
    # at n = 3 the side of the larger D is read first and the other side only where that
    # read reaches the floor, or where either D is NaN; there the read is the both-sides
    # min bit for bit, and elsewhere at least that min and below the floor.  At n = 2 both
    # sides are read in one call
    mats, invs = products(rng, n, count=60)
    # both sides' whitened factors: unit rows of the products, unit columns of their inverses
    sides = np.stack([unit_rows(mats), np.swapaxes(unit_rows(np.swapaxes(invs, -1, -2)), -1, -2)])
    d = np.abs(symmspace._det(sides))
    both = np.minimum(*symmspace._whitened_off(sides))
    floor = np.median(both)
    d[0, :3], d[1, 3:6] = np.nan, np.nan
    calls = []
    kernel = symmspace._whitened_off
    monkeypatch.setattr(symmspace, "_whitened_off", lambda m: calls.append(m) or kernel(m))
    off = symmspace._exact_off(sides, d, floor)
    if n == 2:
        assert [m.shape for m in calls] == [sides.shape] and np.array_equal(off, both)
        return
    first, second = calls
    larger = (d[0] >= d[1])[:, None, None]
    assert np.array_equal(first, np.where(larger, sides[0], sides[1]))
    again = ~(kernel(first) < floor)
    again[:6] = True  # a NaN D on either side
    assert np.array_equal(second, np.where(larger, sides[1], sides[0])[again])
    assert np.array_equal(off[again], both[again])
    assert not again.all() and (off[~again] >= both[~again]).all() and (off[~again] < floor).all()


@pytest.mark.parametrize("n", [2, 3])
def test_pending_reads_are_the_immediate_reads(rng, n, monkeypatch):
    # morse leaves the exact reads of a block's stacks in one list and reads them at once:
    # each stack's off distances are those of its own floored call, bit for bit, and the
    # whole list takes one kernel call per side at n = 3 and one call at n = 2
    face = FaceType.full(n)
    stacks = [products(rng, n, count=count) for count in (30, 8, 45)]
    floor = np.median(factored_coords_pair(*stacks[0], face)[1])
    alone = [factored_coords_pair(w, winv, face, floor) for w, winv in stacks]
    calls, pending = [], []
    kernel = symmspace._whitened_off
    monkeypatch.setattr(symmspace, "_whitened_off", lambda m: calls.append(m) or kernel(m))
    gathered = [factored_coords_pair(w, winv, face, floor, pending) for w, winv in stacks]
    assert not calls and len(pending) == 3
    symmspace._read_pending(pending, floor)
    assert not pending and len(calls) == (2 if n == 3 else 1)
    for (v, off), (v1, off1) in zip(alone, gathered):
        assert np.array_equal(v, v1) and np.array_equal(off, off1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_segment_deficits(rng, n):
    tips, tip_invs = products(rng, n)
    pts, pt_invs = (x.reshape(len(tips), 3, n, n) for x in products(rng, n, count=3 * len(tips)))
    # any orthonormal frame, and the two-sided frame that morse and conical read
    for u in (frames(rng, n, len(tips)), _two_sided_frame(tips, tip_invs)):
        for face in FACES[n]:
            a_plus = factored_coords_pair(np.swapaxes(u, -1, -2) @ tips, tip_invs @ u, face)[0]
            single = [[segment_deficits(u[i], a_plus[i], [(pts[i, k], pt_invs[i, k])],
                                        face)[0] for k in range(3)] for i in range(len(tips))]
            # one stack per point column, as morse passes one per prefix length
            cols = segment_deficits(u, a_plus, [(pts[:, k], pt_invs[:, k]) for k in range(3)],
                                    face)
            assert_rows_equal(cols, single)
            # each tip broadcast over all of its points in one stack
            flat = segment_deficits(u[:, None], a_plus[:, None], [(pts, pt_invs)], face)
            assert_rows_equal(flat[..., 0], single)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flat_cone_deficit_and_pav(rng, n):
    vs = rng.standard_normal((300, n))
    vs[::3] = np.round(vs[::3], 1)  # ties make PAV merge equal blocks
    vs -= vs.mean(axis=1, keepdims=True)
    assert_rows_equal(pav_nonincreasing(vs), [pav_sequential(v) for v in vs])
    assert_rows_equal(row_norms(vs), [np.linalg.norm(v) for v in vs])
    # row_norms takes vecdot's dot product per row, np.linalg.norm's, also on rows scaled
    # from 1e-150 to 1e150 (no square overflows) and on rows of +0, -0, NaN and inf
    wide = rng.standard_normal((400, n)) * 10.0 ** rng.uniform(-150, 150, (400, 1))
    wide[:4], wide[4:8] = 0.0, -0.0
    wide[8, 0], wide[9, -1], wide[10, :] = np.nan, np.inf, -np.inf
    wide[11, 0], wide[11, -1] = np.inf, np.nan
    norms = row_norms(wide)
    assert all(same_bits(x, np.linalg.norm(v)) for x, v in zip(norms, wide))
    assert same_bits(norms[1:7], row_norms(wide[1:7]))  # no bit depends on the stack
    for face in FACES[n]:
        assert_rows_equal(block_sort(vs, face), [block_sort(v, face) for v in vs])
        assert_rows_equal(flat_cone_deficit(vs, face), [flat_cone_deficit(v, face) for v in vs])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_centre_is_the_mean_form(rng, n):
    # factored_coords_pair centres by the explicit column sum from +0: a row of -0.0
    # sums to +0 there, as in numpy's mean, and stays -0.0 (a sum from its first entry
    # would give -0.0 and centre the row to +0)
    vs = rng.standard_normal((400, n)) * 10.0 ** rng.uniform(-150, 150, (400, 1))
    vs[:4], vs[4:8, 0], vs[8] = -0.0, -0.0, 0.0
    vs[9, 0], vs[10, -1] = np.nan, np.inf
    with np.errstate(invalid="ignore"):  # inf - inf
        want = vs - vs.mean(axis=-1, keepdims=True)
        got = vs.copy()
        symmspace._centre(got)
    assert same_bits(got, want)
    assert same_bits(got[:4], np.full((4, n), -0.0))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pav_passes_rows_without_ascent(rng, n):
    # non-increasing rows (with ties), NaN rows, and rows with an ascent, in one stack
    sorted_rows = -np.sort(np.round(rng.standard_normal((60, n)), 1), axis=1)
    nan_rows = rng.standard_normal((20, n))
    nan_rows[np.arange(20), rng.integers(n, size=20)] = np.nan
    ascending = np.sort(rng.standard_normal((20, n)), axis=1)
    for vs in (sorted_rows, nan_rows, np.concatenate([sorted_rows, nan_rows, ascending])[
            rng.permutation(100)]):
        assert all(same_bits(a, b) for a, b in zip(pav_nonincreasing(vs),
                                                   [pav_sequential(v) for v in vs]))
        # the deficit projects only rows with an ascent or a NaN; the others read exactly 0
        for face in FACES[n]:
            w = block_sort(vs, face)
            assert same_bits(flat_cone_deficit(vs, face), row_norms(w - pav_nonincreasing(w)))
    assert same_bits(pav_nonincreasing(sorted_rows), sorted_rows)


def frames(rng, n, count=40):
    return qr_pos(rng.standard_normal((count, n, n)))[0]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flag_primitives(rng, n):
    mats, _ = products(rng, n)
    a, b = frames(rng, n), frames(rng, n)
    rows = range(len(a))
    for face in FACES[n]:
        f, g = Flag(face, a), Flag(face, b)
        fop = Flag(iota_face(face), b)
        assert_rows_equal(flag_distance(f, g), [flag_distance(f[k], g[k]) for k in rows])
        # one flag against a stack, as limit's pair scan takes them
        assert_rows_equal(flag_distance(f[0], g), [flag_distance(f[0], g[k]) for k in rows])
        assert_rows_equal(transversality_margin(f, fop),
                          [transversality_margin(f[k], fop[k]) for k in rows])
        if face.is_iota_invariant:
            assert_rows_equal(antipodality_margin(f[0], g),
                              [antipodality_margin(f[0], g[k]) for k in rows])
        # rows against columns, (R, 1) x (1, R), as limit's pair scan broadcasts them
        sub = range(12)
        pairs = [(flag_distance, g), (transversality_margin, fop)]
        if face.is_iota_invariant:
            pairs.append((antipodality_margin, g))
        for primitive, other in pairs:
            grid = primitive(f[:12, None], other[None, :12])
            assert grid.shape == (12, 12)
            assert_rows_equal(grid, [[primitive(f[i], other[j]) for j in sub] for i in sub])
        assert_rows_equal(act_on_flag(mats, f).frame,
                          [act_on_flag(mats[k], f[k]).frame for k in rows])
        assert_rows_equal(action_differential(mats, f),
                          [action_differential(mats[k], f[k]) for k in rows])
        assert_rows_equal(expansion_factor(mats, f),
                          [expansion_factor(mats[k], f[k]) for k in rows])
        # a stack of words against one flag, as anosov's stratum scan takes them
        assert_rows_equal(expansion_factor(mats, f[0]), [expansion_factor(m, f[0]) for m in mats])
        plus, minus, gaps = attractive_flag(mats, face)
        single = [attractive_flag(m, face) for m in mats]
        assert_rows_equal(plus.frame, [p.frame for p, _, _ in single])
        assert_rows_equal(minus.frame, [m.frame for _, m, _ in single])
        assert_rows_equal(gaps, [x for _, _, x in single])


def same_bits(a, b):
    # array_equal treats -0.0 and 0.0 as equal; bit patterns do not
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_suffix_flags(rng, n):
    # an (R, N) stack of letters sweeps each ray as one letter-at-a-time loop does
    letters = np.stack([random_sl(rng, n, scale=1.2) for _ in range(4)])
    mats = letters[rng.integers(len(letters), size=(5, 9))]
    stacked = suffix_flags(mats, FACES[n][0]).frame
    assert stacked.shape == (5, 10, n, n)
    start, _ = qr_pos(np.random.default_rng(321).standard_normal((n, n)))
    for r, ray in enumerate(mats):
        q, sweep = start, [start]
        for m in ray[::-1]:
            q, _ = qr_pos(m @ q)
            sweep.append(q)
        assert same_bits(stacked[r], np.stack(sweep[::-1])), r
        assert same_bits(stacked[r], suffix_flags(ray, FACES[n][0]).frame), r


@pytest.mark.parametrize("config", ["sl2-schottky", "sl3-symsq-schottky", "sanov-unipotent"])
def test_ray_letters_match_one_draw_per_letter(config):
    # the batched draw takes the stream that one draw per letter takes; at depths 2 and 3
    # random words repeat their first letters, and a ray is kept only for a new name
    cfg = load_config(bundled_config_path(config))
    pres, face = cfg.presentation(), cfg.face_type()
    for seed in (1, 2, 7):
        for count, depth in ((200, 12), (200, 20), (12, 2), (36, 3)):
            sample = sample_rays(pres, count, depth, seed, face)
            assert sample.letters.tolist() == ray_letters_loop(pres.rank, count, depth, seed)
            assert sample.letters.shape == (count, depth + subgroup.BETA_PAD)
            assert len({tuple(w) for w in sample.letters[:, :depth].tolist()}) == count


@pytest.mark.parametrize("depth", [2, 3])
def test_prefix_collisions_name_every_short_word(sl2_pres, depth):
    # as many rays as reduced words of length depth (12 and 36 in rank 2): the random
    # words repeat their names, and every name is kept once, as the ray first drawn
    # with it; limit lists the names and anosov (which fits slopes from depth 3) the
    # whole rays of depth + BETA_PAD letters, in the same order
    count = 4 * 3 ** (depth - 1)
    face = FaceType.full(2)
    sample = sample_rays(sl2_pres, count, depth, 7, face)
    names = sample.letters[:, :depth].tolist()
    words = [list(w) for w in itertools.product((1, -1, 2, -2), repeat=depth)
             if all(x != -y for x, y in zip(w, w[1:]))]
    assert sample.letters.shape == (count, depth + subgroup.BETA_PAD)
    assert sorted(names) == sorted(words)
    assert [r["letters"] for r in limit_report(sl2_pres, face, sample).details["rays"]] == names
    if depth >= 3:
        rays = anosov_check(sl2_pres, face, sample).details["rays"]
        assert [r["letters"] for r in rays] == sample.letters.tolist()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ray_sample_products(rng, n):
    pres = FreeGroupPresentation(tuple(random_sl(rng, n) for _ in range(2)))
    face = FACES[n][0]
    sample = sample_rays(pres, 10, 9, seed=1, face=face)
    assert sample.schemes.tolist() == ["power"] * 4 + ["random"] * 6
    assert sample.prefixes.shape[:2] == sample.logdets.shape == (10, 9)
    for r, word in enumerate(sample.letters.tolist()):
        inv = np.eye(n)
        for k, lt in enumerate(word[:9]):  # prefixes of the ray's name
            prefix = word[:k + 1]
            assert same_bits(sample.prefixes[r, k], word_product(pres, prefix)), (r, k)
            # word_product multiplies left to right; the exact inverse
            # accumulates right to left, so the bits match that order
            inv = pres.letter_matrix(-lt) @ inv
            assert same_bits(sample.inverses[r, k], inv), (r, k)
            assert np.allclose(inv, word_product(pres, [-x for x in reversed(prefix)]))
        # tails of the whole ray, BETA_PAD letters past its name
        steps = np.stack([pres.letter_matrix(lt) for lt in word])
        assert len(word) == 9 + subgroup.BETA_PAD
        assert same_bits(sample.tails.frame[r], suffix_flags(steps, face).frame), r


def test_attractive_flag_names_first_irregular_row(rng):
    face = FaceType.full(3)
    mats, _ = products(rng, 3)
    mats[7] = np.diag([4.0, 0.5 + 5e-11, 0.5])  # gap 1e-10 at wall 2
    mats[11] = np.diag([2.0, 2.0, 0.25])  # no gap at wall 1, a different message
    with pytest.raises(VanishingGap) as single:
        attractive_flag(mats[7], face)
    # rows are taken in C order over all batch axes
    for stack in (mats, mats.reshape(4, -1, 3, 3)):
        with pytest.raises(VanishingGap) as stacked:
            attractive_flag(stack, face)
        assert str(stacked.value) == str(single.value)


def test_flag_checks_every_frame_of_a_stack(rng):
    q = frames(rng, 3)
    Flag(FaceType.full(3), q)
    q[13] *= 1.001
    with pytest.raises(ValueError, match="not orthonormal"):
        Flag(FaceType.full(3), q)


def test_flag_slices_are_not_rechecked(rng, monkeypatch):
    q = frames(rng, 3)
    flag = Flag(FaceType.full(3), q)
    assert q.flags.writeable  # the flag keeps its own copy
    checks = []
    check = Flag.__post_init__
    monkeypatch.setattr(Flag, "__post_init__", lambda self: checks.append(1) or check(self))
    gather = np.array([3, -1, 0, 3])  # a 1-D integer index is gathered by np.take
    for part in (flag[5], flag[3:7], flag[[1, 2]], flag[:, None], flag[gather]):
        assert checks == []
        with pytest.raises(ValueError, match="read-only"):
            part.frame[..., 0, 0] = 1.0
    assert np.array_equal(flag[[1, 2]].frame, q[[1, 2]])
    assert same_bits(flag[gather].frame, q[gather])
    with pytest.raises(ValueError, match="read-only"):
        flag.frame[0, 0, 0] = 1.0
    Flag(FaceType.full(3), flag[5].frame)  # a new flag is checked
    assert checks == [1]


def triangular(rng, d, count=20000):
    """Upper-triangular stacks with diagonals of either sign, 0.5 to 2 in size."""
    r = np.triu(rng.standard_normal((count, d, d)))
    diag = rng.uniform(0.5, 2.0, (count, d)) * rng.choice([-1.0, 1.0], (count, d))
    r[..., np.arange(d), np.arange(d)] = diag
    return r


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_triu_inverse_matches_lapack(rng, d):
    r = triangular(rng, d)
    ours, lapack = triu_inverse(r), solve_triangular(r, np.eye(d))
    if d <= 2:
        # bit patterns, so the signs of the zeros below the diagonal count too
        assert np.array_equal(ours.view(np.uint64), lapack.view(np.uint64))
    else:
        # LAPACK fuses its updates into FMAs from width 3 on
        scale = np.abs(lapack).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(ours - lapack) <= 1e-14 * scale)


def test_triu_inverse_rejects_what_lapack_rejects(rng):
    singular = triangular(rng, 3, count=8)
    singular[5, 1, 1] = 0.0
    nan = triangular(rng, 3, count=8)
    nan[2, 0, 2] = np.nan
    for solve in (triu_inverse, lambda r: solve_triangular(r, np.eye(3))):
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 1"):
            solve(singular)
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(nan)


ROT = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])


def backward_limit_stack(case, sl3_pres):
    """A stack (R, N, n, n) of regular sequences for flag_limits, and its face type."""
    if case == "sl3":  # inverse prefixes of a ray sample, as limit's conical test takes them
        return sample_rays(sl3_pres, 50, 12, seed=7, face=FaceType.full(3)).inverses, \
            FaceType.full(3)
    # a convergent row beside the alternating row of test_alternating_is_inconclusive
    g, rot = np.diag([np.e**2, np.e, np.e**-3]), np.eye(3)
    rot[:2, :2] = ROT
    powers = [np.linalg.matrix_power(g, k) for k in range(1, 9)]
    alternating = [m if k % 2 == 0 else rot @ m @ rot.T for k, m in enumerate(powers, 1)]
    return np.stack([powers, alternating]), FaceType.make(3, [1])


@pytest.mark.parametrize("case, kinds", [
    ("sl3", {"no convergence, one cluster"}),
    ("mixed", {"converged", "no convergence, two clusters"}),
])
def test_flag_limits_rows_match_flag_limit(sl3_pres, case, kinds):
    stack, face = backward_limit_stack(case, sl3_pres)
    flags = attractive_flag(stack, face)[0]  # raises unless every element is regular
    has_limit = flag_limits(flags)
    seen = set()
    for r, row in enumerate(stack):
        # greedy clustering, one flag at a time, is the reference for the one-cluster criterion
        limit, converged, clusters = flag_limit_loop(row, face)
        assert has_limit[r] == (limit is not None), r
        if limit is not None:
            assert same_bits(flags.frame[r, -1], limit.frame), r
        if converged:
            seen.add("converged")
        else:
            seen.add(f"no convergence, {'one cluster' if clusters == 1 else 'two clusters'}")
    assert kinds <= seen


@pytest.mark.parametrize("block", [1, 200, 1 << 16])  # 60 rays: blocks of 1 and 3 rows, one block
@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("group", ["sl2", "sl3"])
def test_pair_scan_matches_loop(request, monkeypatch, group, seed, block):
    monkeypatch.setattr(subgroup, "PAIR_BLOCK", block)
    pres = request.getfixturevalue(f"{group}_pres")
    face = FaceType.full(pres.n)
    rep = limit_report(pres, face, sample_rays(pres, 60, 12, seed, face))
    rays = rep.details["rays"]
    limits = Flag(face, np.stack([r["limit_flag_frame"] for r in rays]))
    letters = np.array([r["letters"] for r in rays])
    margin, all_pairs, closest = pair_scan_loop(limits, letters)
    assert same_bits(rep.constants["antipodality_margin"], margin)
    assert same_bits(rep.constants["all_pairs_margin_min"], all_pairs)
    assert rep.witnesses["closest_pair"] == closest
    assert _pair_scan(limits, letters) == (margin, all_pairs, closest)


def test_pair_scan_ties_go_to_the_first_pair_in_order(monkeypatch):
    # lines e1, e2, e2, e1: pairs (2, 1) and (3, 0) both have margin 0.0 and
    # different first letters; pair order (i, then j) takes (2, 1), while
    # the last tie or a j-first order would take (3, 0)
    face = FaceType.full(2)
    e1, e2 = np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])
    limits = Flag(face, np.stack([e1, e2, e2, e1]))
    letters = np.array([[1, 2], [1, -2], [2, 1], [2, -1]])
    expected = (0.0, 0.0, ([2, 1], [1, -2]))
    assert pair_scan_loop(limits, letters) == expected
    assert _pair_scan(limits, letters) == expected
    monkeypatch.setattr(subgroup, "PAIR_BLOCK", 4)  # (2, 1) and (3, 0) in separate blocks
    assert _pair_scan(limits, letters) == expected


def scan_matches_loop(monkeypatch, limits, letters, block):
    """_pair_scan against the loop bit for bit at PAIR_BLOCK ``block``; the loop's result and
    the number of pairs read exactly."""
    monkeypatch.setattr(subgroup, "PAIR_BLOCK", block)
    read = []

    def counted(f1, f2):
        read.append(len(f1.frame))
        return antipodality_margin(f1, f2)

    monkeypatch.setattr(subgroup, "antipodality_margin", counted)
    expected = pair_scan_loop(limits, letters)
    margin, all_pairs, closest = _pair_scan(limits, letters)
    assert same_bits(margin, expected[0]) and same_bits(all_pairs, expected[1])
    assert closest == expected[2]
    return expected, sum(read)


def turned(frame, t):
    """frame with its columns 0 and 1 turned by the angle t."""
    rot = np.eye(len(frame))
    rot[:2, :2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
    return frame @ rot


def two_cluster_rays(n, count, seed):
    """(frames, letters) of ``count`` flags of R^n in two clusters, by first letters 1 and 2
    alternating, each word distinct: cross margins near 0.47, so that an ulp of an entry is
    about an ulp of a margin."""
    rng = np.random.default_rng(seed)
    q = qr_pos(rng.standard_normal((n, n)))[0]
    bases = np.stack([q, turned(q[:, ::-1], 0.9)])
    first = 1 + np.arange(count) % 2
    frames = qr_pos(bases[first - 1] @ (np.eye(n) + 0.05 * rng.standard_normal((count, n, n))))[0]
    return frames, np.stack([first, np.arange(1, count + 1)], axis=1)


def closest_cross_pair(frames, letters, face):
    """(i, j < i) of the loop's closest cross pair, and its margin."""
    margin, _, (wi, wj) = pair_scan_loop(Flag(face, frames), letters)
    words = letters.tolist()
    return words.index(wi), words.index(wj), margin


def with_rays(frames, letters, extra):
    """The sample with rays (frame, first letter) appended, each with a new distinct word."""
    count = len(frames)
    return (np.concatenate([frames, np.stack([f for f, _ in extra])]),
            np.concatenate([letters, [[a, count + k + 1] for k, (_, a) in enumerate(extra)]]))


@pytest.mark.parametrize("block", [1, 1 << 16])  # every row its own block; one block
@pytest.mark.parametrize("n", [2, 3])
def test_pair_scan_exact_ties(monkeypatch, n, block):
    # copies of the closest cross pair's flags, appended after it, tie with it exactly
    face = FaceType.full(n)
    frames, letters = two_cluster_rays(n, 24, seed=n)
    i0, j0, margin = closest_cross_pair(frames, letters, face)
    count = len(frames)
    frames, letters = with_rays(frames, letters, [(frames[j0], letters[j0, 0]),
                                                  (frames[i0], letters[i0, 0])])
    limits = Flag(face, frames)
    # the pairs (count + 1, j0) and (count + 1, count) read the same flags as (i0, j0)
    ties = antipodality_margin(limits[[i0, count + 1, count + 1]], limits[[j0, j0, count]])
    assert all(same_bits(t, margin) for t in ties)
    expected, read = scan_matches_loop(monkeypatch, limits, letters, block)
    assert expected[2] == (letters[i0].tolist(), letters[j0].tolist())
    assert read < len(frames) * (len(frames) - 1) // 4  # the screen leaves most pairs unread


def nudged(f_i, f_j, face, ulps):
    """f_i with one or two entries of its columns 0 and n - 1 moved by a few ulps, so that its
    margin against f_j is ``ulps`` ulps from f_i's."""
    n = face.n
    margin = float(antipodality_margin(Flag(face, f_i), Flag(face, f_j)))
    target = margin + ulps * np.spacing(margin)
    entries = [(r, c) for c in (0, n - 1) for r in range(n)]
    steps = range(-3, 4)
    for (e1, s1), (e2, s2) in itertools.product(itertools.product(entries, steps), repeat=2):
        f = f_i.copy()
        f[e1] += s1 * np.spacing(f[e1])
        f[e2] += s2 * np.spacing(f[e2])
        if float(antipodality_margin(Flag(face, f), Flag(face, f_j))) == target:
            return f
    raise AssertionError(f"no nudge of {ulps} ulps")


@pytest.mark.parametrize("block", [1, 1 << 16])
@pytest.mark.parametrize("ulps", [-2, -1, 1, 2])
@pytest.mark.parametrize("n", [2, 3])
def test_pair_scan_margins_ulps_apart(monkeypatch, n, ulps, block):
    # a later cross pair 1 or 2 ulps below or above the closest one, beyond any screen's reach
    face = FaceType.full(n)
    frames, letters = two_cluster_rays(n, 24, seed=n)
    i0, j0, margin = closest_cross_pair(frames, letters, face)
    near = nudged(frames[i0], frames[j0], face, ulps)
    frames, letters = with_rays(frames, letters, [(frames[j0], letters[j0, 0]),
                                                  (near, letters[i0, 0])])
    expected, _ = scan_matches_loop(monkeypatch, Flag(face, frames), letters, block)
    assert expected[0] == min(margin, margin + ulps * np.spacing(margin))
    assert (expected[2][0] == letters[-1].tolist()) == (ulps < 0)


@pytest.mark.parametrize("n", [2, 3])
def test_pair_scan_near_orthogonal_pairs(monkeypatch, n):
    # every cross pair has c -> 1: a line almost along the other flag's hyperplane normal,
    # margins within 1e-6 of 1; same-letter pairs are almost equal flags, margins near 0
    face = FaceType.full(n)
    q = qr_pos(np.random.default_rng(n).standard_normal((n, n)))[0]
    frames = np.stack([turned(q, t) for t in (0.0, 1e-17, 1e-12, 1e-8)]
                      + [turned(q[:, ::-1], t) for t in (0.0, 1e-16, 1e-10, 1e-6)])
    letters = np.array([[1 if k < 4 else 2, k + 1] for k in range(8)])
    limits = Flag(face, frames)
    for block in (1, 1 << 16):
        expected, _ = scan_matches_loop(monkeypatch, limits, letters, block)
        assert abs(expected[0] - 1.0) < 1e-6 and expected[1] < 1e-6
    for i, j in itertools.product(range(4), range(4, 8)):  # two-ray samples
        expected, _ = scan_matches_loop(monkeypatch, limits[[i, j]], letters[[i, j]], 1 << 16)
        assert abs(expected[0] - 1.0) < 1e-6


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pair_scan_of_one_ray(n):
    # one regular ray has no pair
    frames, letters = two_cluster_rays(n, 1, seed=n)
    limits = Flag(FaceType.full(n), frames)
    assert pair_scan_loop(limits, letters) == (np.inf, np.inf, None)
    assert _pair_scan(limits, letters) == (np.inf, np.inf, None)


@pytest.mark.parametrize("block", [1, 200, 1 << 16])  # 40 rays: blocks of 1 and 5 rows, one block
@pytest.mark.parametrize("walls", [(1, 2, 3), (2,), (1, 3)], ids=["123", "2", "13"])
def test_pair_scan_with_a_middle_dimension(monkeypatch, walls, block):
    # at n = 4 a middle dimension has no closed form, so every pair is read exactly; the
    # face (1, 3) has none, and its screen leaves most pairs unread
    face = FaceType.make(4, walls)
    frames, letters = two_cluster_rays(4, 40, seed=4)
    _, read = scan_matches_loop(monkeypatch, Flag(face, frames), letters, block)
    assert (read == 40 * 39 // 2) == (2 in walls)


def stacked_prefix_points(chain, rows):
    """(p, pinv) of the prefixes t = floor(L/2), ..., 1 of a chain's last block's words ``rows``,
    gathered into stacks."""
    for t in range(len(chain) - 1, 0, -1):
        rows = chain[t].parent[rows]
        if 2 * t <= len(chain):
            yield chain[t - 1].mats[rows], chain[t - 1].invs[rows]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_transposed_inverse_product_is_bit_identical(rng, n, monkeypatch):
    # morse forms u^T p and pinv u as (u^T pinv^T)^T with one GEMM per run of rows that share
    # a prefix: the stacked products bit for bit, on all rows, on a row subset with gaps (as
    # irregular words leave), and in blocks of 7 words, whose cuts split runs
    pres = FreeGroupPresentation(tuple(random_sl(rng, n, scale=1.2) for _ in range(2)))
    face = FaceType.full(n)
    deep = 8 if n < 4 else 6
    for block, length in ((subgroup.WORD_BLOCK, deep), (7, deep - 2)):
        monkeypatch.setattr(subgroup, "WORD_BLOCK", block)
        for chain in word_levels(pres, length):
            u = _two_sided_frame(chain[-1].mats, chain[-1].invs)
            keep = rng.random(len(u)) < 0.6
            keep[-1] = True
            for rows in (np.arange(len(u)), np.flatnonzero(keep)):
                ut = np.ascontiguousarray(np.swapaxes(u[rows], -1, -2))
                coords = list(subgroup._prefix_coords(chain, rows, ut))
                points = list(stacked_prefix_points(chain, rows))
                assert len(coords) == len(points) == len(chain) // 2
                for (w, winv), (p, pinv) in zip(coords, points):
                    pinv_t = np.ascontiguousarray(np.swapaxes(pinv, -1, -2))
                    assert same_bits(w, ut @ p)
                    assert same_bits(winv, np.swapaxes(ut @ pinv_t, -1, -2))
                    assert same_bits(winv, pinv @ u[rows])
                    # factored_coords_pair reads a transposed view as a contiguous copy
                    for got, want in zip(factored_coords_pair(w, winv, face),
                                         factored_coords_pair(w, np.ascontiguousarray(winv), face)):
                        assert same_bits(got, want)


def test_anosov_prefixes_lead_sample_rays(sl3_pres):
    # the sample's prefixes, which limit and anosov read, are those of the rays' names,
    # the first depth letters, bit for bit as the prefixes of the whole rays begin
    depth, face = 12, FaceType.full(3)
    sample = sample_rays(sl3_pres, 40, depth, 1, face)
    steps, *products = subgroup._prefix_products(sl3_pres, sample.letters)
    for got, want in zip(products, (sample.prefixes, sample.inverses, sample.logdets)):
        assert same_bits(got[:, :depth], want)
    # log|det| is taken once per letter of the table, with the bits of one LU per position
    assert same_bits(products[2], np.cumsum(np.linalg.slogdet(steps)[1], axis=-1))


@pytest.mark.parametrize("n", [2, 3])
def test_q_only_sweep_is_qr_pos(rng, n):
    # suffix_flags takes q_closed, not qr_pos: the same Q, bit for bit, on 200 rays x 20
    # letters, with rows of a zero first column and of a second column on its line
    letters = np.stack([random_sl(rng, n, scale=1.2) for _ in range(4)])
    mats = letters[rng.integers(len(letters), size=(200, 20))]
    a = mats @ qr_pos(rng.standard_normal((200, 20, n, n)))[0]
    a[0, :, :, 0] = 0.0
    a[1, :, :, 1] = 3.0 * a[1, :, :, 0]
    assert same_bits(q_closed(a)[0], qr_pos(a)[0])
    start, _ = qr_pos(np.random.default_rng(321).standard_normal((n, n)))
    sweep = [np.broadcast_to(start, (200, n, n))]
    for k in reversed(range(20)):
        sweep.append(qr_pos(mats[:, k] @ sweep[-1])[0])
    assert same_bits(suffix_flags(mats, FaceType.full(n)).frame, np.stack(sweep[::-1], axis=1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_flag_rejects_non_finite_frames(rng, bad):
    # a NaN or inf row inside a stack is no orthonormal frame
    frames = qr_pos(rng.standard_normal((4, 5, 3, 3)))[0]
    Flag(FaceType.full(3), frames)
    frames[2, 3, 1] = bad
    with pytest.raises(ValueError, match="not orthonormal"):
        Flag(FaceType.full(3), frames)
    # beside zeros an inf entry makes inf * 0 = NaN in q^T q, and a NaN fails no comparison
    frames = np.stack([np.eye(3)] * 4)
    frames[2, 0, 1] = bad
    with pytest.raises(ValueError, match="not orthonormal"):
        Flag(FaceType.full(3), frames)
