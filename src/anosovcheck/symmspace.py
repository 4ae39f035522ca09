"""Metric geometry of the symmetric space of SL(n,R).

Points are unit-determinant symmetric positive-definite matrices, with
base point the identity; the canonical group representative of a point
is its symmetric square root, which removes the rotation ambiguity from
all flag computations.  The vector-valued distance takes values in the
model chamber; a group element g acts on points by g x g^T.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chamber import (
    FaceType,
    ThetaSpec,
    face_boundary_distance,
    flat_cone_deficit,
    iota_face,
    row_norms,
    theta_membership,
)
from .errors import IllConditioned, VanishingGap
from .flags import (
    Flag,
    GAP_TOL,
    _abs_max,
    _adjugate_column,
    _axis_normal,
    _cross3,
    _dot3,
    _gram_top,
    exterior_tops,
    flag_distance,
    qr_pos,
    transversality_margin,
)

DET_TOL = 1e-8


def normalize_det(m: np.ndarray) -> np.ndarray:
    """Rescale to unit determinant (for drifting products of unit-det factors)."""
    n = m.shape[0]
    d = np.linalg.det(m)
    if not np.isfinite(d) or d == 0.0:
        raise IllConditioned("determinant is not resolvable in double precision")
    return m / abs(d) ** (1.0 / n)


def spd_eigh(x) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of an SPD matrix, eigenvalues ascending.

    Rejects loss of positivity; gap degeneracy is policed separately by
    the vanishing-gap gates of the flag computations.
    """
    x = np.asarray(x, dtype=float)
    evals, evecs = np.linalg.eigh(0.5 * (x + x.T))
    if evals[0] <= 0.0:
        raise IllConditioned(f"eigenvalue {evals[0]:.3e} is not positive")
    return evals, evecs


def spd_power(x, p: float) -> np.ndarray:
    evals, evecs = spd_eigh(x)
    return (evecs * evals**p) @ evecs.T


def spd_sqrt(x) -> np.ndarray:
    return spd_power(x, 0.5)


def spd_inv_sqrt(x) -> np.ndarray:
    return spd_power(x, -0.5)


def cartan_vector(x, y) -> np.ndarray:
    """Vector-valued distance: sorted half-log spectrum of x^{-1} y.

    Computed through the symmetric congruence x^{-1/2} y x^{-1/2} for
    stability.  Swapping the arguments applies the opposition
    involution, and the euclidean norm is the Riemannian distance.
    """
    xi = spd_inv_sqrt(x)
    z = xi @ np.asarray(y, dtype=float) @ xi
    evals, _ = spd_eigh(z)
    delta = 0.5 * np.log(evals[::-1])
    delta -= delta.mean()  # remove unit-determinant drift
    return delta


def relative_flag(x, y, face: FaceType, tol: float = GAP_TOL) -> tuple[Flag, np.ndarray]:
    """The flag spanned by a regular segment from x to y.

    With g the canonical square root of x, the flag consists of the
    leading left-singular subspaces of g^{-1} y^{1/2} at the kept
    dimensions, translated back by g.  Raises VanishingGap when a kept
    wall gap of the segment is below tolerance.
    """
    gx = spd_sqrt(x)
    gxi = spd_inv_sqrt(x)
    m = gxi @ spd_sqrt(y)
    u, s, _ = np.linalg.svd(m)
    logs = np.log(s)
    logs -= logs.mean()
    idx = np.array(face.dims, dtype=int)
    gaps = logs[idx - 1] - logs[idx]
    if gaps.min() < tol:
        raise VanishingGap(f"segment gap {gaps.min():.3e} below {tol:.1e} at walls {face.dims}")
    frame, _ = qr_pos(gx @ u)
    return Flag(face, frame), gaps


@dataclass(frozen=True)
class WeylConeRef:
    """A Weyl cone: a tip point and the flag of directions it opens toward."""

    tip: np.ndarray
    flag: Flag

    def __post_init__(self):
        object.__setattr__(self, "tip", np.asarray(self.tip, dtype=float))


@dataclass(frozen=True)
class ConeVerdict:
    kind: str  # "interior" | "boundary" | "outside"
    margin: float | None
    diagnostics: dict

    @property
    def inside(self) -> bool:
        return self.kind in ("interior", "boundary")


def _closed_cone_test(z: np.ndarray, subspaces: list[np.ndarray], tol: float) -> bool:
    # z SPD in the frame where the flag subspaces are given column spans.
    # Membership in the closed cone needs every subspace z-invariant with
    # spectrum dominating its complement.
    for w in subspaces:
        d = w.shape[1]
        u, _, _ = np.linalg.svd(w, full_matrices=True)
        comp = u[:, d:]
        off = comp.T @ z @ w
        if np.linalg.norm(off) > tol * max(1.0, np.linalg.norm(z)):
            return False
        lo = np.linalg.eigvalsh(w.T @ z @ w)[0]
        hi = np.linalg.eigvalsh(comp.T @ z @ comp)[-1]
        if lo < hi - tol * max(1.0, abs(hi)):
            return False
    return True


def cone_query(y, cone: WeylConeRef, tol: float = 1e-6) -> ConeVerdict:
    """Locate a point relative to a Weyl cone.

    Interior iff the segment from the tip is regular of the cone's type
    and its flag matches the cone flag within tolerance; the margin then
    equals the distance from the point to the cone boundary.  The tip and
    closed-boundary cases are decided by an invariant-subspace test.
    Outside verdicts carry the flag mismatch or the vanishing-gap reason.
    """
    face = cone.flag.face
    x = cone.tip
    delta = cartan_vector(x, y)
    norm = float(np.linalg.norm(delta))
    if norm <= 1e-10:
        return ConeVerdict("boundary", 0.0, {"reason": "tip"})
    try:
        seg_flag, gaps = relative_flag(x, y, face)
    except VanishingGap as exc:
        # Possibly on the cone boundary: decide by invariance of the
        # flag subspaces under the transported point.
        gxi = spd_inv_sqrt(x)
        z = gxi @ np.asarray(y, dtype=float) @ gxi
        subspaces = []
        for d in face.dims:
            w, _ = qr_pos(gxi @ cone.flag.basis(d))
            subspaces.append(w[:, :d])
        if _closed_cone_test(z, subspaces, max(tol, 1e-8)):
            return ConeVerdict("boundary", 0.0, {"reason": "vanishing-gap"})
        return ConeVerdict("outside", None, {"reason": "vanishing-gap", "detail": str(exc)})
    mismatch = flag_distance(seg_flag, cone.flag)
    if mismatch < tol:
        margin = face_boundary_distance(delta, face)
        return ConeVerdict("interior", margin, {"flag_mismatch": mismatch})
    return ConeVerdict("outside", None, {"flag_mismatch": mismatch, "gaps": gaps})


@dataclass(frozen=True)
class DiamondRef:
    """A diamond: the intersection of two opposite Weyl cones.

    ``flag_plus`` has the reference face type and sits at infinity beyond
    ``tip_plus``; ``flag_minus`` has the opposite type.  An optional type
    set restricts both cones.
    """

    tip_minus: np.ndarray
    tip_plus: np.ndarray
    flag_minus: Flag
    flag_plus: Flag
    theta: ThetaSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "tip_minus", np.asarray(self.tip_minus, dtype=float))
        object.__setattr__(self, "tip_plus", np.asarray(self.tip_plus, dtype=float))
        if transversality_margin(self.flag_plus, self.flag_minus) <= 0.0:
            raise IllConditioned("diamond flags are not antipodal")


def make_diamond(x, y, face: FaceType, theta: ThetaSpec | None = None, tol: float = GAP_TOL) -> DiamondRef:
    """Diamond spanned by a regular segment, flags from the endpoints."""
    plus, _ = relative_flag(x, y, face, tol=tol)
    minus, _ = relative_flag(y, x, iota_face(face), tol=tol)
    return DiamondRef(x, y, minus, plus, theta)


def diamond_query(p, diamond: DiamondRef, tol: float = 1e-6) -> tuple[bool, dict]:
    """Conjunction of the two cone memberships (and type membership if set)."""
    fwd = cone_query(p, WeylConeRef(diamond.tip_minus, diamond.flag_plus), tol)
    bwd = cone_query(p, WeylConeRef(diamond.tip_plus, diamond.flag_minus), tol)
    margins = {
        "forward": fwd.margin,
        "backward": bwd.margin,
        "forward_kind": fwd.kind,
        "backward_kind": bwd.kind,
        "forward_diag": fwd.diagnostics,
        "backward_diag": bwd.diagnostics,
    }
    member = fwd.inside and bwd.inside
    if member and diamond.theta is not None:
        face = diamond.flag_plus.face
        for (a, b, key) in (
            (diamond.tip_minus, p, "theta_forward"),
            (p, diamond.tip_plus, "theta_backward"),
        ):
            delta = cartan_vector(a, b)
            if float(np.linalg.norm(delta)) <= 1e-10:
                margins[key] = 0.0
                continue
            ok, tmargin = theta_membership(delta, ThetaSpec(face, diamond.theta.gap))
            margins[key] = tmargin
            member = member and ok
    return member, margins


def subspace_intersection(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the intersection of two column spans."""
    pa = a @ a.T
    pb = b @ b.T
    evals, evecs = np.linalg.eigh(pa @ pb + pb @ pa)
    # intersection vectors are eigenvectors of value 2 of (PaPb + PbPa)
    return evecs[:, -dim:][:, ::-1]


def make_parallel_set(flag_minus: Flag, flag_plus: Flag, margin_floor: float = 1e-6) -> np.ndarray:
    """Unit-determinant basis adapting the parallel set of an antipodal flag pair.

    Its columns send the standard coordinate flags to the pair, so
    conjugating a point by the inverse basis turns membership of the
    parallel set into block-diagonality.
    """
    if transversality_margin(flag_plus, flag_minus) < margin_floor:
        raise IllConditioned("transversality margin below floor")
    face = flag_plus.face
    n = face.n
    bounds = face.boundaries
    cols = []
    for k in range(len(bounds) - 1):
        lo, hi = bounds[k], bounds[k + 1]
        v = flag_plus.basis(hi)
        w = flag_minus.basis(n - lo) if lo > 0 else np.eye(n)
        inter = subspace_intersection(v, w, hi - lo)
        cols.append(inter)
    basis = np.hstack(cols)
    det = np.linalg.det(basis)
    if abs(det) < 1e-12:
        raise IllConditioned("adapted basis is singular")
    if det < 0:
        basis = basis.copy()
        basis[:, 0] = -basis[:, 0]
        det = -det
    return basis / det ** (1.0 / n)


def _scaled_gram(mat: np.ndarray):
    """(scale, entries g00, g11, g22, g01, g02, g12 of R R^T) for R = mat / scale, stacked 3 x 3.

    The scale is the largest entry, so no cube in ``_gram_top`` overflows.
    """
    scale = np.maximum(_abs_max(mat), 1e-300)
    r0, r1, r2 = ([mat[..., i, k] / scale for k in range(3)] for i in range(3))
    return scale, (_dot3(r0, r0), _dot3(r1, r1), _dot3(r2, r2), _dot3(r0, r1), _dot3(r0, r2), _dot3(r1, r2))


def _top_read(mat: np.ndarray) -> tuple:
    """(scale, g00, g11, g22, g01, g02, g12, root) of stacked 3 x 3 matrices; () for other n.

    ``_scaled_gram``'s scale and entries, and the square root of the Gram matrix's top
    eigenvalue, so that s_1 = scale * root.  ``log_top_singular`` reads s_1 from it and
    ``_two_sided_frame`` m's top vector: a caller that needs both of one stack reads it once
    and passes it to each, sliced along the batch axes as the stack is.
    """
    if mat.shape[-1] != 3:
        return ()
    scale, gram = _scaled_gram(mat)
    return (scale, *gram, _gram_top(*gram))


def log_top_singular(mat: np.ndarray, top: tuple = ()) -> np.ndarray:
    """Log of the top singular value of stacked 2 x 2 or 3 x 3 matrices, in closed form.

    ``top`` is mat's ``_top_read`` where the caller holds it.
    """
    if mat.shape[-1] == 2:
        a, b, c, d = mat[..., 0, 0], mat[..., 0, 1], mat[..., 1, 0], mat[..., 1, 1]
        return np.log(np.maximum(0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c)), 1e-300))
    scale, *_, root = top or _top_read(mat)
    return np.log(scale) + np.log(root)


def _top_left_vector(mat: np.ndarray, top: tuple = ()) -> tuple[list, np.ndarray]:
    """Unit top left singular vectors of stacked 3 x 3 matrices, and how well each is resolved.

    The vector, as three coordinate arrays, is the top eigenvector of the scaled Gram
    matrix G of the rows: the null vector of G - lambda I, read from its adjugate, or the
    first axis where none is (G a multiple of I).  The second value, the adjugate's trace
    over lambda^2, is (1 - s_2^2 / s_1^2)(1 - s_3^2 / s_1^2); it falls to rounding level as
    s_2 nears s_1, where the vector is noise.  ``top`` is mat's ``_top_read`` where the
    caller holds it.
    """
    _, g00, g11, g22, g01, g02, g12, root = top or _top_read(mat)
    lam = root ** 2
    v, trace = _adjugate_column([[g00 - lam, g01, g02], [g01, g11 - lam, g12], [g02, g12, g22 - lam]])
    v[0] = np.where(_dot3(v, v) > 0.0, v[0], 1.0)
    norm = np.sqrt(_dot3(v, v))
    return [e / norm for e in v], trace / (lam * lam)


def _two_sided_svd(svd: tuple, svd_inv: tuple) -> np.ndarray:
    """Left singular frame of m, from the SVDs (u, s, vt) of m and of minv.

    A direct SVD resolves left singular vector j only while sigma_j is
    not lost below eps * sigma_1; past that its trailing columns are
    noise.  Since minv = V diag(1/s) U^T, right singular vector n-1-j of
    the exactly accumulated inverse is left singular vector j of m, and
    it is resolved while 1/sigma_j is not lost below eps / sigma_n.
    Each column is taken from the side whose ratio is larger, and the
    frame is orthonormalized by QR (Gram-Schmidt) in order of decreasing
    ratio, so the noise a column carries along better-resolved columns
    is projected out and never spread into them.  Swapping the arguments
    gives the left singular frame of minv.  Leading axes are batch axes.
    """
    (u, s, _), (_, si, vti) = svd, svd_inv
    direct = s / s[..., :1]
    inverse = si[..., ::-1] / si[..., :1]
    order = np.argsort(-np.maximum(direct, inverse), axis=-1, kind="stable")
    picked = np.where((direct < inverse)[..., None, :],
                      np.swapaxes(vti[..., ::-1, :], -1, -2), u)
    cols = np.broadcast_to(order[..., None, :], u.shape)
    frame = np.empty_like(u)
    np.put_along_axis(frame, cols, np.linalg.qr(np.take_along_axis(picked, cols, axis=-1))[0],
                      axis=-1)
    return frame


def _two_sided_frame(m: np.ndarray, minv: np.ndarray, top: tuple = ()) -> np.ndarray:
    """Left singular frame of stacked m, from m and its exactly accumulated inverse minv.

    After Bochi-Potrie-Sambarino, a top singular vector stays resolved however far the
    singular values spread, so at n <= 3 the frame comes in closed form from top vectors.
    At n = 2, m's top vector fixes it: u1 = (cos t, sin t) with
    2t = atan2(b + c, a - d) + atan2(c - b, a + d), and u2 is u1 turned by 90 degrees.  At
    n = 3, u1 is m's top vector and u3 that of minv^T (the left singular vector of m's least
    value); u2 = u3 x u1, normalized, and u3 = u1 x u2.  Where s_1 / s_2 is the narrower wall
    gap, as at a doubled top value, where u1 is noise, u3 is kept instead and u1 = u2 x u3.
    Where the other vector is not near normal to the kept one (|u3 x u1|^2 < 1/2, which only
    noise gives), any unit normal of the kept vector is u2.  Larger n take
    ``_two_sided_svd`` of LAPACK's SVDs.  ``top`` is m's ``_top_read`` where the caller
    holds it, as from ``_two_sided_logs`` of the same stack.  Leading axes are batch axes.
    """
    n = m.shape[-1]
    if n > 3:
        return _two_sided_svd(np.linalg.svd(m), np.linalg.svd(minv))
    if n == 2:
        a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
        t = 0.5 * (np.arctan2(b + c, a - d) + np.arctan2(c - b, a + d))
        cos, sin = np.cos(t), np.sin(t)
        return np.stack([cos, -sin, sin, cos], axis=-1).reshape(m.shape)
    (u1, res1), (u3, res3) = _top_left_vector(m, top), _top_left_vector(np.swapaxes(minv, -1, -2))
    first = res1 >= res3  # u1 is kept, else u3
    kept = [np.where(first, x, y) for x, y in zip(u1, u3)]
    u2 = _cross3(u3, u1)
    short = _dot3(u2, u2) < 0.5
    if short.any():
        u2 = [np.where(short, x, y) for x, y in zip(_axis_normal(kept), u2)]
    norm = np.sqrt(_dot3(u2, u2))
    u2 = [e / norm for e in u2]
    rest = _cross3(kept, u2)  # u1 x u2 = u3, or u3 x u2 = -u1
    u1 = [np.where(first, x, -y) for x, y in zip(u1, rest)]
    u3 = [np.where(first, y, x) for x, y in zip(u3, rest)]
    return np.stack([np.stack(u, axis=-1) for u in (u1, u2, u3)], axis=-1)


def _whitened_off(mat: np.ndarray) -> np.ndarray:
    """Spread of the centered log singular values of whitened n x n factors.

    For n <= 3 the partial sums log s_1...s_k are read as log|^k mat|_2 in
    closed form, by ``exterior_tops``.  Larger n take LAPACK's values.
    Leading axes are batch axes.
    """
    n = mat.shape[-1]
    if n > 3:
        logs = np.log(np.maximum(np.linalg.svd(mat, compute_uv=False), 1e-300))
        logs -= logs.mean(axis=-1, keepdims=True)
        return row_norms(logs)
    tops = exterior_tops(mat)
    # partial sums log s_1...s_k, then the log singular values about their mean
    sums = [np.log(np.maximum(np.abs(t), 1e-300)) for t in tops]
    mean = sums[-1] / n
    devs = [b - a - mean for a, b in zip([0.0, *sums], sums)]
    return np.sqrt(sum(x * x for x in devs))  # x * x: a scalar's x ** 2 calls pow


def _det(mat: np.ndarray) -> np.ndarray:
    """Determinants of stacked 2 x 2 or 3 x 3 matrices, in closed form."""
    a = [[mat[..., i, k] for k in range(mat.shape[-1])] for i in range(mat.shape[-1])]
    if len(a) == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return _dot3(a[0], _cross3(a[1], a[2]))


def _off_bound(d: np.ndarray, n: int) -> np.ndarray:
    """Upper bound on ``_whitened_off`` of stacked n x n factors, n = 2 or 3, with unit rows.

    In closed form from D = |det| <= 1 alone.  At n = 2 unit rows make s_1^2 + s_2^2 = 2,
    and s_1 s_2 = D, so s_1 / s_2 = (1 + sqrt(1 - D^2)) / D and the spread is exactly
    log(s_1 / s_2) / sqrt(2) = arccosh(1 / D) / sqrt(2).  At n = 3 unit rows make
    s_1^2 + s_2^2 + s_3^2 = 3, and s_1 s_2 s_3 = D.  On that curve the spread of the log
    singular values is a sum of squares of logs, so by Lagrange it is largest where two
    singular values are equal: s^2 = (x, x, 3 - 2x) with 2x^3 - 3x^2 + D^2 = 0.  With
    phi = arccos(1 - 2 D^2) the roots are A = 1/2 + cos(phi / 3) in [1, 3/2], B =
    1/2 + cos((phi - 2 pi) / 3) in [0, 1] and C = 1/2 + cos((phi + 2 pi) / 3) in [-1/2, 0],
    and the spreads at A and B are sqrt(2/3) (3/2 log A - log D) and
    sqrt(2/3) (log D - 3/2 log B).  The first is never the smaller: D^2 = -2ABC and
    AB = |C| (3/2 + |C|), so their difference is log(AB) / 2 - log(2|C|) >= 0 while
    |C| <= 1/2.  D is first lowered by 8 eps, which bounds the rounding of a determinant of
    unit rows, eps / D relative where D is small.  The read is widened by 1e-6 for the rest
    of the rounding: near D = 1 the arccosh and arccos turn an error of eps in D into one
    of sqrt(eps).  Transposing changes no spread, so unit columns serve as well.  The bound
    falls as D grows, so of two factors' bounds the one of the larger D is the smaller.
    """
    d = np.clip(d - 8.0 * np.finfo(float).eps, 1e-300, 1.0)
    if n == 2:
        off = np.arccosh(1.0 / d) / np.sqrt(2.0)
    else:
        root = 0.5 + np.cos(np.arccos(1.0 - 2.0 * d * d) / 3.0)
        off = np.sqrt(2.0 / 3.0) * (1.5 * np.log(root) - np.log(d))
    return off + 1e-6


def _centre(v: np.ndarray) -> None:
    """Subtract each row's mean in place, bit for bit as ``v -= v.mean(axis=-1, keepdims=True)``.

    numpy sums a short axis in order from +0 (so a row of -0.0 sums to +0) and divides by its
    length; the explicit column sum takes the same steps without a short-axis reduction.
    """
    v -= (sum(v[..., k] for k in range(v.shape[-1])) / v.shape[-1])[..., None]


def _exact_off(sides: np.ndarray, d: np.ndarray, floor: float) -> np.ndarray:
    """Off distances of whitened factors, both sides stacked (2, k, n, n), each side's D (2, k).

    The off distance is the smaller of the two sides' ``_whitened_off``.  At n = 3 the side
    with the larger D, whose ``_off_bound`` is the smaller, is read first, and the other
    side only where that read reaches ``floor`` or either D is NaN; elsewhere the first
    read, an upper bound below ``floor``, stands in.  At n = 2 D's bound is the exact spread
    up to its slack, so every row that reached the floor by it needs both sides, and both
    are read in one call.
    """
    if sides.shape[-1] == 2:
        return np.minimum(*_whitened_off(sides))
    larger = (d[0] >= d[1])[:, None, None]
    off = _whitened_off(np.where(larger, sides[0], sides[1]))
    again = ~(off < floor) | np.isnan(d).any(axis=0)
    if again.any():
        off[again] = np.minimum(off[again], _whitened_off(
            np.where(larger[again], sides[1, again], sides[0, again])))
    return off


def _read_pending(pending: list, floor: float) -> None:
    """Make the exact off reads that ``factored_coords_pair`` calls left in ``pending``.

    Each entry is (off, rows, sides, d) of one stack: ``_exact_off`` reads the rows of all
    entries at once, one kernel call per side, and writes each stack's reads into its off.
    """
    if not pending:
        return
    offs, rows, sides, d = zip(*pending)
    sides, d = np.concatenate(sides, axis=1), np.concatenate(d, axis=1)
    pending.clear()  # frees each stack's own factors before the kernel calls
    off = _exact_off(sides, d, floor)
    for o, r, part in zip(offs, rows, np.split(off, np.cumsum([len(r) for r in rows])[:-1])):
        o[r] = part


def factored_coords_pair(w: np.ndarray, winv: np.ndarray, face: FaceType,
                         floor: float = -np.inf, pending: list | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided flat coordinates and off-set distance.

    Per block the log singular values are taken from whichever factor
    resolves them (the direct factor loses values below its noise floor,
    the inverse factor the reciprocal ones); the off distance is the
    smaller of the two complete estimates.  Every row of w and column of
    winv is read in one pass, from its norm: that is the whole read of a
    width-1 block, and only wider blocks are read again, by an SVD each.
    At n <= 3 the off distance is read exactly only where ``_off_bound``
    of the larger D of the two sides, the smaller bound, reaches ``floor``
    (``_exact_off``); elsewhere the bound, which lies below ``floor``,
    stands for it.  Where every block has width 1 the bound takes D from
    the unscaled factors, as |det| over the product of the row norms of w
    or the column norms of winv, and only the rows read exactly are
    whitened.  The default floor reads every row, both sides in one call.
    Where ``pending`` is a list the exact reads are left in it for
    ``_read_pending``, which reads those of many stacks at once, and the
    returned off holds the bounds until then.  Leading axes are batch axes.
    """
    n = face.n
    norm_w = np.maximum(_abs_max(w), 1e-300)[..., None]
    norm_wi = np.maximum(_abs_max(winv), 1e-300)[..., None]
    s1 = np.maximum(row_norms(w), 1e-300)
    # the columns as contiguous rows, as np.linalg.norm takes a column
    s1i = np.maximum(row_norms(np.ascontiguousarray(np.swapaxes(winv, -1, -2))), 1e-300)
    v = np.where(s1 / norm_w >= s1i / norm_wi, np.log(s1), -np.log(s1i))
    wide = [b for b in face.blocks if b[1] - b[0] > 1]
    if n <= 3 and floor > -np.inf and not wide:
        _centre(v)
        # each side's D from its unscaled factor: |det| over the product of its row or column norms
        d = np.stack([np.abs(_det(m)) / functools.reduce(np.multiply,
                                                         (s[..., k] for k in range(n)))
                      for m, s in ((w, s1), (winv, s1i))])
        whitened = None  # only the rows read exactly are whitened, below
    else:
        whitened = np.empty((2, *w.shape))  # both sides, for one kernel call
        rows, cols = whitened
        np.divide(w, s1[..., :, None], out=rows)
        np.divide(winv, s1i[..., None, :], out=cols)
        for lo, hi in wide:
            ud, sd, vtd = np.linalg.svd(w[..., lo:hi, :], full_matrices=False)
            ui, si, vti = np.linalg.svd(winv[..., :, lo:hi], full_matrices=False)
            sd, si = np.maximum(sd, 1e-300), np.maximum(si, 1e-300)
            direct = sd[..., -1:] / norm_w >= si[..., -1:] / norm_wi
            v[..., lo:hi] = np.where(direct, np.log(sd), -np.log(si)[..., ::-1])
            rows[..., lo:hi, :] = ud @ vtd
            cols[..., :, lo:hi] = ui @ vti
        _centre(v)
        if n > 3 or floor == -np.inf:  # one kernel call for both sides
            return v, np.minimum(*_whitened_off(whitened))
        d = np.abs(_det(whitened))
    off = _off_bound(np.maximum(*d), n)  # the bound falls as D grows; a NaN D gives a NaN bound
    exact = np.flatnonzero(~(off < floor))  # a NaN bound is read too
    if exact.size:
        if whitened is None:
            s1, s1i = s1[exact], s1i[exact]
            sides = np.stack([w[exact] / s1[..., :, None], winv[exact] / s1i[..., None, :]])
        else:
            sides = whitened[:, exact]
        entry = (off, exact, sides, d[:, exact])
        if pending is None:
            _read_pending([entry], floor)
        else:
            pending.append(entry)
    return v, off


def segment_deficits(u: np.ndarray, a_plus: np.ndarray, points, face: FaceType,
                     floor: float = -np.inf) -> np.ndarray:
    """Deficits of orbit points p.o inside the diamond spanned by (o, tip.o).

    The diamond is read in the orthonormal frame u of the tip's left
    singular vectors, where o is the origin of the block-diagonal model
    and tip.o sits at ``a_plus``, the tip's centered log singular values
    (descending), which the caller already holds.  A point's deficit is
    the largest of its off-parallel-set distance and its flat chamber
    deficits toward both tips (``_deficits``); all three vanish for
    members.  Points and their inverses must be exactly accumulated
    products.  ``points`` yields (p, pinv) stacks whose batch axes
    broadcast against those of u and ``a_plus``; each stack takes one
    ``factored_coords_pair`` call on its coordinates u^T p and pinv u.  A
    deficit below ``floor`` may be read as an upper bound below ``floor``;
    every deficit at or above it is exact.  Returns one trailing column
    per stack.
    """
    # numpy's stacked matmul is slow on a transposed view: pinv u is formed as (u^T pinv^T)^T,
    # the same sums bit for bit, from contiguous u^T and the pinv^T that the callers carry
    ut = np.ascontiguousarray(np.swapaxes(u, -1, -2))
    cols = []
    for p, pinv in points:
        winv = np.swapaxes(ut @ np.ascontiguousarray(np.swapaxes(pinv, -1, -2)), -1, -2)
        cols.append(_deficits(*factored_coords_pair(ut @ p, winv, face, floor), a_plus, face))
    return np.stack(cols, axis=-1)


def _deficits(v: np.ndarray, off: np.ndarray, a_plus: np.ndarray, face: FaceType) -> np.ndarray:
    """Deficits of points with flat coordinates v and off distances off in a tip's frame.

    The kernel of ``segment_deficits``; morse calls it on the reads of
    ``factored_coords_pair`` once its block's exact off reads are made.
    """
    return np.maximum(np.maximum(off, flat_cone_deficit(v, face)),
                      flat_cone_deficit(a_plus - v, face))


def adapted_coordinates(x, flag_plus: Flag):
    """Orthogonal adapted frame at a point for the parallel set through it.

    Returns (basis Q, opposite flag): Q maps the standard flags to the
    pair (opposite flag, flag) and takes x to the identity, so the
    parallel set through x toward the flag becomes the block-diagonal
    model with tip coordinates zero.
    """
    gxi = spd_inv_sqrt(x)
    gx = spd_sqrt(x)
    q0, _ = qr_pos(gxi @ flag_plus.frame)
    basis = gx @ q0
    opp = Flag(iota_face(flag_plus.face), np.asarray(qr_pos(gx @ q0[:, ::-1])[0]))
    return basis, opp
