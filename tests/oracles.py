"""Independent oracles used by the test suite.

Each oracle recomputes a library quantity along a different route:
finite differences for expansion factors, tied-pair projections for wall
distances, permutation search for the opposition involution, KKT
certificates for sector projections, extended-precision mpmath
arithmetic for singular frames and centered log singular values of deep
products, for the spread of log singular values, for the deficits of
orbit points in diamonds, for flag distances and transversality
margins, for QR factors and least singular values of single matrices and
for the flags of suffix products, a per-ray loop for limit's antipodality
pair scan, one draw per letter for the ray sample's random words, a
recursive depth-first list of reduced words with their left-to-right
products, the symmetric square of SL(2) products' SVDs for the SL(3)
kernels' logs and frames, greedy clustering of one sequence's flags for flag limits,
and flags drawn out to the edge of a ping-pong ball, with the ping-pong
contraction bound in extended precision.
The flat-cone membership test and
the type-set boundary angle are tools of the acceptance checks, and so is
the scalar point geometry: the action on points, the Riemannian and
face-projected distances, the opposition involution, sector projections
and the delta-projection of a path, all read through
``symmspace.cartan_vector``, and random flags.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np
from scipy.linalg import expm

from anosovcheck.chamber import FaceType, ThetaSpec, block_sort, check_cartan_vector
from anosovcheck.dynamics import CLUSTER_RADIUS, LIMIT_TOL
from anosovcheck.errors import VanishingGap
from anosovcheck.flags import (
    Flag,
    _coord_entries,
    act_on_flag,
    antipodality_margin,
    attractive_flag,
    flag_distance,
    qr_pos,
)
from anosovcheck.subgroup import BETA_PAD
from anosovcheck.symmspace import cartan_vector


def iota_bruteforce(v: np.ndarray) -> np.ndarray:
    """Chamber representative of the negated vector by permutation search."""
    best = None
    for perm in itertools.permutations(range(len(v))):
        cand = np.array([-v[p] for p in perm])
        if np.all(np.diff(cand) <= 1e-12):
            if best is None or tuple(cand) > tuple(best):
                best = cand
    return best


def pav_sequential(values, weights=None) -> np.ndarray:
    """Pool-adjacent-violators on one vector, one block stack in Python."""
    y = np.asarray(values, dtype=float)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    blocks: list[list] = []  # [mean, weight, count]
    for yi, wi in zip(y, w):
        blocks.append([float(yi), float(wi), 1])
        while len(blocks) > 1 and blocks[-2][0] < blocks[-1][0]:
            m2, w2, c2 = blocks.pop()
            m1, w1, c1 = blocks.pop()
            blocks.append([(m1 * w1 + m2 * w2) / (w1 + w2), w1 + w2, c1 + c2])
    return np.concatenate([np.full(c, m) for m, _, c in blocks])


def wall_distance_bruteforce(delta: np.ndarray, face: FaceType) -> float:
    """Distance to the forbidden walls via tied-pair isotonic projections.

    Projecting onto one wall of the chamber is an equality-constrained
    least squares problem solved exactly by merging the tied pair and
    running pool-adjacent-violators with weights.
    """
    best = np.inf
    for i in face.dims:
        # merge coordinates i-1, i (0-based) into one block of weight 2
        vals = []
        wts = []
        for k in range(len(delta)):
            if k == i - 1:
                vals.append(0.5 * (delta[i - 1] + delta[i]))
                wts.append(2.0)
            elif k == i:
                continue
            else:
                vals.append(delta[k])
                wts.append(1.0)
        fit = pav_sequential(np.array(vals), np.array(wts))
        proj = []
        src = 0
        for k in range(len(delta)):
            proj.append(fit[src])
            if k != i - 1:
                src += 1
        best = min(best, float(np.linalg.norm(delta - np.array(proj))))
    return best


def sector_projection_kkt_gap(delta: np.ndarray, proj: np.ndarray, face: FaceType) -> float:
    """Worst KKT violation certifying proj as the sector projection.

    The sector cone is generated by the split vectors (constant on a
    leading group of blocks, constant on the rest, trace zero); proj is
    optimal iff it is feasible, the residual is orthogonal to proj, and
    the residual pairs nonpositively with every generator.
    """
    n = face.n
    resid = delta - proj
    viol = 0.0
    # feasibility: block constant and ordered
    means = []
    for lo, hi in face.blocks:
        viol = max(viol, float(np.ptp(proj[lo:hi])))
        means.append(proj[lo:hi].mean())
    viol = max(viol, float(max(0.0, np.max(np.diff(means)))) if len(means) > 1 else 0.0)
    viol = max(viol, abs(float(proj.sum())))
    # orthogonality
    viol = max(viol, abs(float(resid @ proj)))
    # generator pairings
    bounds = face.boundaries
    for k in range(1, len(bounds) - 1):
        split = bounds[k]
        w = np.empty(n)
        w[:split] = n - split
        w[split:] = -split
        viol = max(viol, float(resid @ w))
    return viol


def expansion_factor_fd(g: np.ndarray, f: Flag, h: float = 1e-5) -> float:
    """Expansion factor by central finite differences on projectors.

    Assembles the differential column by column from perturbed frames;
    the tangent readout uses projector derivatives, which are free of
    frame gauge.
    """
    face = f.face
    n = face.n
    base = act_on_flag(g, f)
    bounds = face.boundaries
    level_of_col = np.empty(n, dtype=int)
    for k in range(len(bounds) - 1):
        level_of_col[bounds[k]:bounds[k + 1]] = bounds[k + 1]
    entries = _coord_entries(face)
    cols = []
    for (r, c) in entries:
        e = np.zeros((n, n))
        e[r, c] = 1.0
        a = e - e.T
        projs = []
        for s in (h, -h):
            moved = act_on_flag(g, Flag(face, f.frame @ expm(s * a)))
            projs.append({d: moved.projector(d) for d in face.dims})
        lower = np.zeros((n, n))
        for d in face.dims:
            dp = (projs[0][d] - projs[1][d]) / (2.0 * h)
            x = base.frame[:, d:].T @ dp @ base.frame[:, :d]
            for c2 in range(d):
                if level_of_col[c2] == d:
                    lower[d:, c2] = x[:, c2]
        cols.append(np.array([lower[rc] for rc in entries]))
    mat = np.stack(cols, axis=1)
    return float(np.linalg.svd(mat, compute_uv=False)[-1])


def random_spd_unit_det(rng: np.random.Generator, n: int, scale: float = 0.5) -> np.ndarray:
    a = rng.standard_normal((n, n)) * scale
    m = expm(a + a.T)
    return m / np.linalg.det(m) ** (1.0 / n)


def random_sl(rng: np.random.Generator, n: int, scale: float = 0.6) -> np.ndarray:
    a = rng.standard_normal((n, n)) * scale
    m = expm(a)
    d = np.linalg.det(m)
    return m / abs(d) ** (1.0 / n)


def random_flag(face: FaceType, rng: np.random.Generator) -> Flag:
    """Haar-ish random flag via QR of a Gaussian matrix."""
    q, _ = qr_pos(rng.standard_normal((face.n, face.n)))
    return Flag(face, q)


def act_point(g, x) -> np.ndarray:
    """Isometric action of a group element on a point of the symmetric space: g x g^T."""
    g = np.asarray(g, dtype=float)
    return g @ np.asarray(x, dtype=float) @ g.T


def riemannian_distance(x, y) -> float:
    """Distance of two points: the norm of ``cartan_vector``."""
    return float(np.linalg.norm(cartan_vector(x, y)))


def iota_vector(v) -> np.ndarray:
    """Opposition involution on the model flat: a -> (-a_n, ..., -a_1)."""
    v = np.asarray(v, dtype=float)
    return -v[::-1]


def project_to_face_sector(delta, face: FaceType) -> np.ndarray:
    """Nearest point of a chamber vector in the face sector.

    The sector consists of chamber vectors constant on the blocks of the
    face type.  Block averaging projects onto the linear span; if the
    averages violate the chamber order, weighted pool-adjacent-violators
    (``pav_sequential``) finishes the job.  1-Lipschitz and idempotent;
    fixes sector points.
    """
    delta = check_cartan_vector(delta)
    sizes = np.array([hi - lo for lo, hi in face.blocks], dtype=float)
    means = np.array([delta[lo:hi].mean() for lo, hi in face.blocks])
    if np.any(np.diff(means) > 0.0):
        means = pav_sequential(means, sizes)
    out = np.empty_like(delta)
    for (lo, hi), m in zip(face.blocks, means):
        out[lo:hi] = m
    return out


def taumod_distance(x, y, face: FaceType) -> np.ndarray:
    """Face-projected vector-valued distance (1-Lipschitz coarsification)."""
    return project_to_face_sector(cartan_vector(x, y), face)


def delta_projection(path, face: FaceType) -> tuple[np.ndarray, np.ndarray]:
    """Chamber-valued and face-projected paths seen from the first point."""
    pts = [np.asarray(p, dtype=float) for p in path]
    if not pts:
        raise ValueError("need a path of length >= 1")
    deltas = np.stack([cartan_vector(pts[0], p) for p in pts])
    taus = np.stack([project_to_face_sector(d, face) for d in deltas])
    return deltas, taus


def random_chamber_vector(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    v = np.sort(rng.standard_normal(n) * scale)[::-1]
    return v - v.mean()


def random_regular_cone_vector(rng: np.random.Generator, face: FaceType,
                               min_gap: float = 0.0, scale: float = 1.0) -> np.ndarray:
    """Random vector in the symmetrized chamber cone around the face sector."""
    while True:
        v = random_chamber_vector(rng, face.n, scale)
        u = v / np.linalg.norm(v)
        gaps = [u[i - 1] - u[i] for i in face.dims]
        if min(gaps) >= min_gap:
            break
    out = v.copy()
    for lo, hi in face.blocks:
        idx = rng.permutation(hi - lo)
        out[lo:hi] = v[lo:hi][idx]
    return out


def exact_left_singular_frame(letters, digits: int = 90) -> np.ndarray:
    """Left singular frame of a product, columns by descending singular value.

    The float letter matrices are converted exactly and multiplied and
    decomposed in ``digits``-digit mpmath arithmetic, so every singular
    vector is resolved however far the singular values spread.
    """
    n = letters[0].shape[0]
    with mpmath.workdps(digits):
        m = mpmath.eye(n)
        for g in letters:
            m = m * mpmath.matrix(g.tolist())
        u, s, _ = mpmath.svd_r(m)
        order = sorted(range(n), key=lambda i: s[i], reverse=True)
        return np.array([[float(u[r, c]) for c in order] for r in range(n)])


def exact_centered_logs(letters, digits: int = 200) -> np.ndarray:
    """Centered log singular values of a product, descending.

    The float letter matrices are converted exactly and multiplied and
    decomposed in ``digits``-digit mpmath arithmetic, so every value is
    resolved however far the singular values spread.
    """
    n = letters[0].shape[0]
    with mpmath.workdps(digits):
        m = mpmath.eye(n)
        for g in letters:
            m = m * mpmath.matrix(g.tolist())
        logs = sorted((mpmath.log(x) for x in mpmath.svd_r(m, compute_uv=False)), reverse=True)
        mean = mpmath.fsum(logs) / n
        return np.array([float(x - mean) for x in logs])


def off_mp(mat, digits: int = 50) -> float:
    """Spread of the centered log singular values of one matrix.

    The float entries are converted exactly and decomposed in
    ``digits``-digit mpmath arithmetic, so the spread is that of the given
    matrix however small its singular values are.
    """
    with mpmath.workdps(digits):
        s = mpmath.svd_r(mpmath.matrix(np.asarray(mat).tolist()), compute_uv=False)
        logs = [mpmath.log(x) for x in s]
        mean = mpmath.fsum(logs) / len(logs)
        return float(mpmath.sqrt(mpmath.fsum((x - mean) ** 2 for x in logs)))


def _spread_mp(mat) -> mpmath.mpf:
    """Spread of the centered log singular values of an mpmath matrix."""
    logs = [mpmath.log(x) for x in mpmath.svd_r(mat, compute_uv=False)]
    mean = mpmath.fsum(logs) / len(logs)
    return mpmath.sqrt(mpmath.fsum((x - mean) ** 2 for x in logs))


def _flat_cone_deficit_mp(v: list, face: FaceType) -> mpmath.mpf:
    """``flat_cone_deficit`` of one vector of mpf: block sort, then unweighted PAV."""
    w = [x for lo, hi in face.blocks for x in sorted(v[lo:hi], reverse=True)]
    blocks: list[list] = []  # [mean, count]
    for x in w:
        blocks.append([x, 1])
        while len(blocks) > 1 and blocks[-2][0] < blocks[-1][0]:
            m2, c2 = blocks.pop()
            m1, c1 = blocks.pop()
            blocks.append([(m1 * c1 + m2 * c2) / (c1 + c2), c1 + c2])
    fit = [m for m, c in blocks for _ in range(c)]
    return mpmath.sqrt(mpmath.fsum((x - y) ** 2 for x, y in zip(w, fit)))


def _coords_pair_mp(w, winv, face: FaceType) -> tuple[list, mpmath.mpf]:
    """``factored_coords_pair`` of one pair of mpmath matrices, formula by formula."""
    n = face.n
    norm_w = max(abs(x) for x in w)
    norm_wi = max(abs(x) for x in winv)
    v, rows, cols = [], [], []
    for lo, hi in face.blocks:
        ud, sd, vd = mpmath.svd_r(w[lo:hi, 0:n], full_matrices=False)
        ui, si, vi = mpmath.svd_r(winv[0:n, lo:hi], full_matrices=False)
        sd, si = sorted(sd, reverse=True), sorted(si, reverse=True)
        if sd[-1] / norm_w >= si[-1] / norm_wi:
            v += [mpmath.log(x) for x in sd]
        else:
            v += [-mpmath.log(x) for x in reversed(si)]
        rows += (ud * vd).tolist()  # the polar factors: orthonormal rows, and columns
        cols.append((ui * vi).T.tolist())
    mean = mpmath.fsum(v) / n
    cols = mpmath.matrix([c for block in cols for c in block]).T
    return [x - mean for x in v], min(_spread_mp(mpmath.matrix(rows)), _spread_mp(cols))


def segment_deficit_mp(tip_letters, point_letters, face: FaceType, digits: int = 80) -> float:
    """``segment_deficits`` of one point in one diamond, in ``digits``-digit arithmetic.

    The tip and the point are products of float letter matrices, converted
    exactly and multiplied and inverted in mpmath.  Formula by formula as
    ``segment_deficits``: coordinates in the tip's exact left singular frame
    u, read from u^T p and p^-1 u as ``factored_coords_pair`` reads them, and
    the largest of the off distance and the flat deficits toward both tips.
    """
    n = face.n
    with mpmath.workdps(digits):
        tip, point = mpmath.eye(n), mpmath.eye(n)
        for g in tip_letters:
            tip = tip * mpmath.matrix(g.tolist())
        for g in point_letters:
            point = point * mpmath.matrix(g.tolist())
        uu, s, _ = mpmath.svd_r(tip)
        order = sorted(range(n), key=lambda i: s[i], reverse=True)
        u = mpmath.matrix([[uu[r, c] for c in order] for r in range(n)])
        a_plus, _ = _coords_pair_mp(u.T * tip, tip ** -1 * u, face)
        v, off = _coords_pair_mp(u.T * point, point ** -1 * u, face)
        return float(max(off, _flat_cone_deficit_mp(v, face),
                         _flat_cone_deficit_mp([a - b for a, b in zip(a_plus, v)], face)))


def _span_mp(frame: np.ndarray, d: int):
    # Orthonormal basis of the span of the leading d columns, in mpmath.
    return mpmath.qr(mpmath.matrix(frame[:, :d].tolist()), mode="skinny")[0]


def flag_distance_mp(f1: Flag, f2: Flag, digits: int = 50) -> float:
    """``flag_distance`` of two single flags, in ``digits``-digit arithmetic.

    Each subspace is the span of the float frame's leading columns, with
    the entries converted exactly; the distance is the largest singular
    value of the difference of the projectors, maximized over the type.
    """
    with mpmath.workdps(digits):
        best = mpmath.mpf(0)
        for d in f1.dims:
            b1, b2 = _span_mp(f1.frame, d), _span_mp(f2.frame, d)
            diff = b1 * b1.T - b2 * b2.T
            best = max(best, max(mpmath.svd_r(diff, compute_uv=False)))
        return float(best)


def transversality_margin_mp(f: Flag, fop: Flag, digits: int = 50) -> float:
    """``transversality_margin`` of two single flags, in ``digits``-digit arithmetic.

    The least singular value of [basis of f's d-span | basis of fop's
    (n-d)-span], spans read as in ``flag_distance_mp``, minimized over the
    dimensions d of f's type.
    """
    n = f.face.n
    with mpmath.workdps(digits):
        best = mpmath.inf
        for d in f.dims:
            b1, b2 = _span_mp(f.frame, d), _span_mp(fop.frame, n - d)
            m = mpmath.matrix([r1 + r2 for r1, r2 in zip(b1.tolist(), b2.tolist())])
            best = min(best, min(mpmath.svd_r(m, compute_uv=False)))
        return float(best)


def qr_mp(a, digits: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """QR of one square float matrix with a nonnegative diagonal of R, in ``digits``-digit arithmetic.

    The entries are converted exactly; mpmath's Householder QR is signed
    column by column so that R's diagonal is nonnegative.
    """
    n = len(a)
    with mpmath.workdps(digits):
        q, r = mpmath.qr(mpmath.matrix(np.asarray(a).tolist()))
        signs = [-1 if r[k, k] < 0 else 1 for k in range(n)]
        return (np.array([[float(q[i, k] * signs[k]) for k in range(n)] for i in range(n)]),
                np.array([[float(r[i, k] * signs[i]) for k in range(n)] for i in range(n)]))


def least_singular_mp(mat, digits: int = 50) -> float:
    """Least singular value of one float matrix, in ``digits``-digit arithmetic."""
    with mpmath.workdps(digits):
        return float(min(mpmath.svd_r(mpmath.matrix(np.asarray(mat).tolist()), compute_uv=False)))


def suffix_flag_errors_mp(matrices, start: np.ndarray, frames: np.ndarray, dims,
                          digits: int = 50) -> np.ndarray:
    """Projector distances from float flags to the flags of suffix products applied to a frame.

    ``frames[k]`` is taken as the flag of matrices[k:] applied to ``start``, for k = 0, ...,
    len(matrices).  The float letters and start frame are converted exactly and the products
    accumulated from the right in ``digits``-digit arithmetic; each exact d-span is read by
    QR of the leading d columns of its product.  Products whose singular values spread by
    10^s need about s digits more than the float flags resolve.
    """
    errors = []
    with mpmath.workdps(digits):
        product = mpmath.matrix(np.asarray(start).tolist())
        for k in range(len(matrices), -1, -1):
            if k < len(matrices):
                product = mpmath.matrix(matrices[k].tolist()) * product
            worst = mpmath.mpf(0)
            for d in dims:
                exact = mpmath.qr(product[:, :d], mode="skinny")[0]
                read = _span_mp(frames[k], d)
                diff = exact * exact.T - read * read.T
                worst = max(worst, max(mpmath.svd_r(diff, compute_uv=False)))
            errors.append(float(worst))
    return np.array(errors[::-1])


def _span_distances(frames: np.ndarray, other: np.ndarray, dims) -> np.ndarray:
    # Largest sine of a principal angle between the leading d-spans of two stacks of
    # (not necessarily orthonormal) frames, maximized over dims: projector differences
    # from numpy's QR of each span, with no shortcut for lines or hyperplanes.
    best = 0.0
    for d in dims:
        q1, q2 = np.linalg.qr(frames[..., :d])[0], np.linalg.qr(other[..., :d])[0]
        diff = q1 @ np.swapaxes(q1, -1, -2) - q2 @ np.swapaxes(q2, -1, -2)
        best = np.maximum(best, np.linalg.norm(diff, 2, axis=(-2, -1)))
    return best


def ball_flags(center: Flag, rad: float, count: int, rng: np.random.Generator):
    """Frames of ``count`` flags in the ball of radius ``rad`` around ``center``, out to its edge.

    Each draw walks from the centre along exp(tX), X a random unit skew
    matrix, to a distance drawn uniformly from the k-th of ``count`` equal
    slices of (0, rad], so that the draws reach the edge: the step t is
    bisected on the projector distance of ``_span_distances``, keeping the
    end that is inside the ball.  Returns (frames, distances to the centre).
    """
    n = center.face.n
    x = rng.standard_normal((count, n, n))
    x -= np.swapaxes(x, -1, -2)
    x /= np.linalg.norm(x, axis=(-2, -1), keepdims=True)
    target = rad * (np.arange(1, count + 1) - rng.uniform(size=count)) / count
    walk = lambda t: center.frame @ expm(t[:, None, None] * x)  # noqa: E731
    dist = lambda t: _span_distances(walk(t), center.frame, center.dims)  # noqa: E731
    lo, hi = np.zeros(count), np.full(count, rad)
    while (short := dist(hi) < target).any():
        hi[short] *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = dist(mid) <= target
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return walk(lo), dist(lo)


def mapped_distances(h: np.ndarray, frames: np.ndarray, att: Flag) -> np.ndarray:
    """Distances from h applied to each flag of a stack of frames to the flag ``att``."""
    return _span_distances(h @ frames, att.frame, att.dims)


def pingpong_bound_mp(h: np.ndarray, center: Flag, rad: float, digits: int = 50) -> tuple:
    """(kappa, s_raw, kappa / s_lb) of one ping-pong pair in ``digits``-digit arithmetic.

    kappa is the largest ratio sigma_{d+1} / sigma_d of h over the type's
    dimensions d, s_raw the least singular value of V_d^T Y_d (V_d the top
    d right singular vectors of h, Y the centre's frame) over them, and
    s_lb = s_raw sqrt(1 - rad^2) - rad, with every float input converted exactly.
    """
    with mpmath.workdps(digits):
        _, s, vt = mpmath.svd_r(mpmath.matrix(np.asarray(h).tolist()))
        y = mpmath.matrix(center.frame.tolist())
        kappa = max(s[d] / s[d - 1] for d in center.dims)
        s_raw = min(min(mpmath.svd_r(vt[:d, :] * y[:, :d], compute_uv=False)) for d in center.dims)
        rad = mpmath.mpf(rad)
        bound = kappa / (s_raw * mpmath.sqrt(1 - rad * rad) - rad)
        return float(kappa), float(s_raw), float(bound)


def random_word(rng: np.random.Generator, rank: int, length: int) -> list[int]:
    """A random reduced word, one draw per letter.

    Each letter is drawn from the letters 1, -1, 2, -2, ... that do not
    cancel its predecessor, in that order.
    """
    order = [x for i in range(1, rank + 1) for x in (i, -i)]
    letters = []
    while len(letters) < length:
        choices = [lt for lt in order if not letters or lt != -letters[-1]]
        letters.append(int(choices[rng.integers(len(choices))]))
    return letters


def ray_letters_loop(rank: int, count: int, depth: int, seed: int) -> list[list[int]]:
    """``sample_rays``' letters, drawing one random word at a time by ``random_word``.

    The generator-power rays come first, then random words of
    depth + BETA_PAD letters, each kept if its first ``depth`` letters
    name no ray yet, with at most 100 * count draws.
    """
    order = [x for i in range(1, rank + 1) for x in (i, -i)]
    rays = {(lt,) * depth: [lt] * (depth + BETA_PAD) for lt in order[:count]}
    rng = np.random.default_rng(seed)
    tries = 0
    while len(rays) < count and tries < 100 * count:
        tries += 1
        word = random_word(rng, rank, depth + BETA_PAD)
        rays.setdefault(tuple(word[:depth]), word)
    return list(rays.values())


def reduced_words(rank: int, length: int) -> list[tuple[int, ...]]:
    """Every reduced word of length 1..length, depth first.

    Recursively: a word, then the subtrees of its extensions by the letters
    1, -1, 2, -2, ... that do not cancel its last letter, in that order.
    """
    order = [x for i in range(1, rank + 1) for x in (i, -i)]

    def subtree(prefix):
        if prefix:
            yield prefix
        if len(prefix) < length:
            for lt in order:
                if not prefix or lt != -prefix[-1]:
                    yield from subtree(prefix + (lt,))

    return list(subtree(()))


def word_product(pres, letters) -> np.ndarray:
    """The product of a word's letter matrices, multiplied left to right from the identity."""
    m = np.eye(pres.n)
    for lt in letters:
        m = m @ pres.letter_matrix(lt)
    return m


def sym2_lift(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centered log singular values and left singular frame of Sym^2 of stacked SL(2) products.

    LAPACK's SVD of a 2 x 2 product resolves its top value e^s and its orthogonal U at any
    depth.  Sym^2 takes diag(e^s, e^-s) to diag(e^2s, 1, e^-2s), so the logs are
    (2s, 0, -2s), and U = (u1 u2) to the frame with columns Sym^2(u1), sqrt(2) times the
    symmetric product of u1 and u2, and Sym^2(u2), in ``symmetric_square``'s basis
    (x^2, sqrt(2) x y, y^2).
    """
    u, sv, _ = np.linalg.svd(mats)
    s = np.log(sv[..., 0])
    logs = np.stack([2.0 * s, np.zeros_like(s), -2.0 * s], axis=-1)
    a, b, c, d = u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1]
    r2 = math.sqrt(2.0)
    frame = np.stack([a * a, r2 * a * b, b * b,
                      r2 * a * c, a * d + b * c, r2 * b * d,
                      c * c, r2 * c * d, d * d], axis=-1).reshape(u.shape[:-2] + (3, 3))
    return logs, frame


def flag_limit_loop(gs, face: FaceType) -> tuple:
    """(limit flag or None, converged, cluster count) of one sequence, one flag at a time.

    Over the sequence's regular elements: it converged when the last quarter
    of its Cauchy residuals sits below LIMIT_TOL.  Its tail flags (the second
    half) are clustered greedily in order, a flag starting a new cluster when
    it lies beyond CLUSTER_RADIUS from every cluster so far.  The last flag is
    the limit when the sequence converged or the tail makes one cluster.
    """
    flags = []
    for g in gs:
        try:
            flags.append(attractive_flag(g, face)[0])
        except VanishingGap:
            continue
    residuals = [flag_distance(a, b) for a, b in zip(flags, flags[1:])]
    converged = all(r < LIMIT_TOL for r in residuals[-max(1, len(residuals) // 4):])
    clusters: list[Flag] = []
    for f in flags[len(flags) // 2:]:
        if all(flag_distance(f, c) > CLUSTER_RADIUS for c in clusters):
            clusters.append(f)
    return (flags[-1] if converged or len(clusters) == 1 else None), converged, len(clusters)


def pair_scan_loop(limits: Flag, letters: np.ndarray) -> tuple:
    """limit's pair scan as a loop comparing each ray with all earlier ones.

    Returns (cross margin, all-pairs margin, closest cross pair).  The
    closest pair is the first strict minimum in the order i ascending,
    then j < i.
    """
    words = letters.tolist()
    min_margin = math.inf
    all_pairs_min = math.inf
    closest_pair = None
    firsts = letters[:, 0]
    for i in range(1, len(words)):
        margins = antipodality_margin(limits[i], limits[:i])
        all_pairs_min = min(all_pairs_min, float(margins.min()))
        cross = np.where(firsts[:i] != firsts[i], margins, math.inf)
        j = int(np.argmin(cross))  # the first of equal minima, as in pair order
        if cross[j] < min_margin:
            min_margin = float(cross[j])
            closest_pair = (words[i], words[j])
    return min_margin, all_pairs_min, closest_pair


def flat_cone_margin(v, face: FaceType) -> float:
    """Signed membership margin for the block-symmetrized chamber cone.

    A vector belongs to the union of chambers around the face sector iff
    its block-sorted form is globally non-increasing; the margin is the
    worst consecutive difference (nonnegative iff member).
    """
    w = block_sort(v, face)
    return float(-np.max(np.diff(w))) if w.size > 1 else 0.0


def flat_cone_member(v, face: FaceType, slack: float = 0.0) -> bool:
    return flat_cone_margin(v, face) >= -slack


def _chamber_circle_basis(n: int = 3) -> tuple[np.ndarray, np.ndarray]:
    # Orthonormal basis of the trace-zero plane for n = 3.
    b1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    b2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
    return b1, b2


def theta_boundary_angle(theta: ThetaSpec, samples: int = 200_000, seed: int = 0) -> float:
    """Angular distance from the type set to the forbidden chamber boundary.

    For n = 3 the boundary rays are isolated unit vectors and the type
    set is an arc, so a dense 1-d scan with local refinement is exact to
    grid resolution; for larger n the minimum is sampled.  The sine of
    this angle lower-bounds the per-unit-length drift of the projected
    distance for segments of the given type.
    """
    face = theta.face
    n = face.n
    if n == 3:
        b1, b2 = _chamber_circle_basis()
        phis = np.linspace(0.0, 2.0 * math.pi, 1 << 20, endpoint=False)
        pts = np.outer(np.cos(phis), b1) + np.outer(np.sin(phis), b2)
        sorted_ok = np.all(np.diff(pts, axis=1) <= 1e-15, axis=1)
        gaps = np.stack([pts[:, i - 1] - pts[:, i] for i in face.dims], axis=1)
        in_theta = sorted_ok & np.all(gaps >= theta.gap, axis=1)
        if not in_theta.any():
            raise ValueError("type set is empty at this gap")
        # Boundary rays of the chamber: wall 1 collapses a_1 = a_2,
        # wall 2 collapses a_2 = a_3.
        wall_rays = {1: np.array([1.0, 1.0, -2.0]), 2: np.array([2.0, -1.0, -1.0])}
        best = math.pi
        for i in face.dims:
            w = wall_rays[i] / np.linalg.norm(wall_rays[i])
            cosangles = pts[in_theta] @ w
            best = min(best, float(np.arccos(np.clip(cosangles.max(), -1.0, 1.0))))
        return best
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((samples, n))
    raw -= raw.mean(axis=1, keepdims=True)
    raw = np.sort(raw, axis=1)[:, ::-1]
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    gaps = np.stack([raw[:, i - 1] - raw[:, i] for i in face.dims], axis=1)
    theta_pts = raw[np.all(gaps >= theta.gap, axis=1)]
    best = math.pi
    for i in face.dims:
        wall_pts = raw.copy()
        mid = wall_pts[:, i - 1:i + 1].mean(axis=1)
        wall_pts[:, i - 1] = mid
        wall_pts[:, i] = mid
        wall_pts /= np.maximum(np.linalg.norm(wall_pts, axis=1, keepdims=True), 1e-300)
        cos = theta_pts @ wall_pts.T
        best = min(best, float(np.arccos(np.clip(cos.max(), -1.0, 1.0))))
    return best
