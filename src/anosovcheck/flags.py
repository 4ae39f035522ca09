"""Partial flag manifolds for SL(n,R).

A flag of a given face type is stored as an adapted orthonormal frame:
the subspace of dimension d is the span of the leading d frame columns,
for each d kept by the face type.  The metric is the maximum operator
norm difference of the orthogonal projectors over the nested subspaces;
it is O(n)-invariant and bilipschitz to any background Riemannian
metric.  Expansion factors are computed from the exact differential of
the group action in adapted block coordinates.

A subspace of dimension 1 or n-1 is determined by one unit vector: frame
column 0 spans the line, and column n-1 is the normal of the hyperplane.
``flag_distance`` and ``transversality_margin`` read those dimensions in
closed form from that vector, which covers every dimension at n <= 3;
only the middle dimensions at n >= 4 take an SVD.  The hyperplane normal
to column n-1 and the span of the leading n-1 columns agree to the
frame's orthonormality, about 1e-15 for frames from QR or SVD.

``qr_pos`` and ``least_singular`` read 2 x 2 and 3 x 3 matrices in
closed form, with no LAPACK call.  Their 3 x 3 helpers take a vector as a
list of coordinate arrays, so they are elementwise numpy over the batch
axes; ``symmspace`` shares them.

A frame of shape (..., n, n) holds a stack of flags of one type.  Every
primitive here takes stacks: leading axes are batch axes, stacks
broadcast against each other, and each row comes out bit for bit as the
primitive gives it for a single flag, where it returns a float.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chamber import FaceType, iota_face
from .errors import VanishingGap

GAP_TOL = 1e-9
FRAME_TOL = 1e-9


def _scalar(x):
    # A single flag's value as a float; a stack's values as an array.
    return float(x) if np.ndim(x) == 0 else x


def qr_pos(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR with positive diagonal of R, so nested column spans are preserved.

    Square 2 x 2 and 3 x 3 matrices take ``qr_closed``; others LAPACK's QR.
    Leading axes are batch axes.
    """
    a = np.asarray(a, dtype=float)
    if 2 <= a.shape[-1] == a.shape[-2] <= 3:
        return qr_closed(a)
    q, r = np.linalg.qr(a)
    s = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    s[s == 0.0] = 1.0
    return q * s[..., None, :], r * s[..., :, None]


def _abs_max(mat: np.ndarray) -> np.ndarray:
    """Largest |entry| of stacked square matrices, one np.maximum per entry."""
    a, n = np.abs(mat), mat.shape[-1]
    return functools.reduce(np.maximum, (a[..., i, k] for i in range(n) for k in range(n)))


def _dot3(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _cross3(x, y):
    return [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]]


def _norm3(x):
    """Euclidean norm of 2- or 3-vectors by hypot, which forms no square of an entry."""
    out = np.hypot(x[0], x[1])
    return np.hypot(out, x[2]) if len(x) == 3 else out


def _axis_normal(v):
    """A normal of unit 3-vectors v, of norm at least 0.43: e1 x v, or e2 x v where |v0| >= 0.9."""
    far = np.abs(v[0]) < 0.9
    return [np.where(far, 0.0, v[2]), np.where(far, -v[2], 0.0), np.where(far, v[1], -v[0])]


def _adjugate_column(a):
    """(column with the largest diagonal entry, trace) of the adjugate of symmetric 3 x 3 matrices.

    ``a`` is given by rows.  Where A has a simple zero eigenvalue, adj A = p v v^T with v its
    null vector and p = trace adj A the product of the other two eigenvalues, so that column
    is a multiple of v; it is resolved while p stays well above the rounding of A's entries.
    """
    cols = [_cross3(a[1], a[2]), _cross3(a[2], a[0]), _cross3(a[0], a[1])]
    v, big = cols[0], cols[0][0]
    for k in (1, 2):
        take = cols[k][k] > big
        v, big = [np.where(take, c, e) for c, e in zip(cols[k], v)], np.where(take, cols[k][k], big)
    return v, cols[0][0] + cols[1][1] + cols[2][2]


def _gram_top(g00, g11, g22, g01, g02, g12):
    """Square root of the top eigenvalue of symmetric 3 x 3 matrices, by entries.

    Trigonometric, except near a doubled top eigenvalue (r < -0.99), where the error of
    that form grows as 1/sqrt(1 + r), up to half the digits.  There the bottom eigenvalue
    mu stays isolated, and so does its eigenvector v, the largest column of the adjugate
    of A - mu I.  With t the mean of the top two, the compression Y of A - t I to the
    complement of v has eigenvalues +-h, so the top one is t + h = t + |Y|_F / sqrt(2),
    every term of which is small where h is.
    """
    q = (g00 + g11 + g22) / 3.0
    d0, d1, d2 = g00 - q, g11 - q, g22 - q
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6.0)
    # s**3 stays normal; a p below the floor is negligible against q
    s = np.maximum(p, 1e-90 * q + 1e-100)
    r = (d0 * d1 * d2 + 2.0 * g01 * g02 * g12
         - d0 * g12 * g12 - d1 * g02 * g02 - d2 * g01 * g01) / (2.0 * s * s * s)
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    top = np.asarray(q + 2.0 * p * np.cos(phi))
    near = r < -0.99
    if not near.any():
        return np.sqrt(top)
    g00, g11, g22, g01, g02, g12, q, p, phi = (
        np.asarray(e)[near] for e in (g00, g11, g22, g01, g02, g12, q, p, phi))
    mu = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    v, _ = _adjugate_column([[g00 - mu, g01, g02], [g01, g11 - mu, g12], [g02, g12, g22 - mu]])
    norm = np.maximum(np.sqrt(_dot3(v, v)), 1e-300)
    v = [e / norm for e in v]
    t = 1.5 * q - 0.5 * mu
    x = [[g00 - t, g01, g02], [g01, g11 - t, g12], [g02, g12, g22 - t]]
    w = [_dot3(row, v) for row in x]
    vxv = _dot3(v, w)
    y = [[x[i][j] - v[i] * w[j] - w[i] * v[j] + vxv * v[i] * v[j] for j in range(3)]
         for i in range(3)]
    top[near] = t + np.sqrt(0.5 * sum(y[i][j] * y[i][j] for i in range(3) for j in range(3)))
    return np.sqrt(top)


def _lower_factor(mat: np.ndarray) -> tuple:
    """Entries l00, l10, l11, l20, l21, l22 of L in mat = L Q, for stacked 3 x 3 matrices.

    By modified Gram-Schmidt on the rows, which is backward stable for L
    row by row.  Each diagonal entry is floored at 1e-300.
    """
    l, basis = {}, []
    for i in range(3):
        x = [mat[..., i, k] for k in range(3)]
        for j, e in enumerate(basis):
            l[i, j] = _dot3(e, x)
            x = [xk - l[i, j] * ek for xk, ek in zip(x, e)]
        l[i, i] = np.maximum(np.sqrt(_dot3(x, x)), 1e-300)
        if i < 2:  # the last vector is not read
            basis.append([xk / l[i, i] for xk in x])
    return l[0, 0], l[1, 0], l[1, 1], l[2, 0], l[2, 1], l[2, 2]


def _cofactor_top(l00, l10, l11, l20, l21, l22, scaled=False):
    """(Top singular value, c22) of the cofactor matrix C of lower triangular 3 x 3 L.

    C is the second exterior power of L up to signs and order, and c22 =
    l00 l11.  ``scaled`` divides C by the power of two of its largest entry
    first, exactly, so that its Gram matrix has entries of order 1.
    """
    c = [l11 * l22, -l10 * l22, l10 * l21 - l11 * l20, l00 * l22, -l00 * l21, l00 * l11]
    if scaled:
        _, e = np.frexp(np.max(np.abs(c), axis=0))
        c = [np.ldexp(x, -e) for x in c]
    c00, c01, c02, c11, c12, c22 = c
    return _gram_top(c00 * c00 + c01 * c01 + c02 * c02, c11 * c11 + c12 * c12, c22 * c22,
                     c01 * c11 + c02 * c12, c02 * c22, c12 * c22), c22


def exterior_tops(mat: np.ndarray) -> list:
    """Top singular values of the exterior powers of stacked 2 x 2 or 3 x 3 matrices.

    Entry k - 1 is s_1...s_k = |^k mat|_2, the last up to sign (at n = 2 it is det mat).
    After Bochi-Potrie-Sambarino, a top singular value keeps its relative accuracy however
    small the later ones are, so no eigenvalue below the top of a Gram matrix is taken.
    At n = 2 the top value is the hypot form.  At n = 3 the top values are those of
    ``_lower_factor``'s L and of its cofactor matrix, read by ``_gram_top``, and l00 l11 l22.
    The Gram floors are set for entries of order 1, as in whitened factors.
    """
    if mat.shape[-1] == 2:
        a, b, c, d = mat[..., 0, 0], mat[..., 0, 1], mat[..., 1, 0], mat[..., 1, 1]
        return [0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c)), a * d - b * c]
    l00, l10, l11, l20, l21, l22 = l = _lower_factor(mat)
    top, c22 = _cofactor_top(*l)
    return [_gram_top(l00 * l00, l10 * l10 + l11 * l11, l20 * l20 + l21 * l21 + l22 * l22,
                      l00 * l10, l00 * l20, l10 * l20 + l11 * l21),
            top, c22 * l22]


# least_singular reads a matrix scaled to its largest entry in closed form where its
# determinant (m = 2) or every diagonal entry of its L (m = 3) is at least this: then
# every square formed is a normal float, and so is the determinant
LOWER_FLOOR = 2.0 ** -300


def least_singular(mat: np.ndarray) -> np.ndarray:
    """Least singular value of stacked m x m matrices.

    At m <= 3 in closed form, on mat scaled by the power of two of its largest
    entry, which is exact: |mat| at m = 1, and s_1...s_m / s_1...s_{m-1} =
    |det| / s_1(cofactor matrix) at m = 2 and 3.  At m = 2 that is
    ``exterior_tops``'s pair.  At m = 3 the cofactor matrix of
    ``_lower_factor``'s L is scaled by the power of two of its own largest
    entry before its Gram matrix is formed, so that ``_gram_top``'s floors,
    set for entries of order 1, hold however widely the singular values
    spread.  Rows below ``LOWER_FLOOR``, the zero matrix and m >= 4 take
    LAPACK's value.  A matrix that is not finite raises ``LinAlgError``,
    as LAPACK does.
    """
    m = mat.shape[-1]
    if not np.isfinite(mat).all():
        raise np.linalg.LinAlgError("least singular value of a matrix that is not finite")
    if m > 3:
        return np.linalg.svd(mat, compute_uv=False)[..., -1]
    if m == 1:
        return np.abs(mat[..., 0, 0])
    _, e = np.frexp(_abs_max(mat))
    scaled = np.ldexp(mat, -e[..., None, None])
    with np.errstate(all="ignore"):  # only rows below the floor can overflow or divide 0 by 0
        if m == 2:
            top, det = exterior_tops(scaled)
            out = np.ldexp(np.abs(det) / top, e)
            low = np.abs(det) < LOWER_FLOOR
        else:
            l = _lower_factor(scaled)
            top, c22 = _cofactor_top(*l, scaled=True)
            out = np.ldexp(np.abs(c22 * l[5]) / top, e)
            low = ~(np.minimum(np.minimum(l[0], l[2]), l[5]) >= LOWER_FLOOR)
    out = np.asarray(out)
    if low.any():
        out[low] = np.linalg.svd(mat[low], compute_uv=False)[..., -1]
    return out


def q_closed(a: np.ndarray):
    """(Q of ``qr_closed``, and R's r11, r12 and later diagonal entries), without the rest of R."""
    n = a.shape[-1]
    a1, a2 = ([a[..., i, k] for i in range(n)] for k in range(2))
    r11 = _norm3(a1)
    zero = r11 == 0.0
    den = np.where(zero, 1.0, r11)
    q1 = [e / den for e in a1]
    q1[0] = np.where(zero, 1.0, q1[0])
    if n == 2:
        r12 = q1[0] * a2[0] + q1[1] * a2[1]
        r22 = q1[0] * a2[1] - q1[1] * a2[0]  # a2 against the quarter turn (-q1[1], q1[0])
        sign = np.where(r22 < 0.0, -1.0, 1.0)
        q = [q1[0], -sign * q1[1], q1[1], sign * q1[0]]
        return np.stack(q, axis=-1).reshape(a.shape), [r11, r12, sign * r22]
    r12 = _dot3(q1, a2)
    v = [x - r12 * e for x, e in zip(a2, q1)]
    c = _dot3(q1, v)
    once = _norm3(v)
    v = [x - c * e for x, e in zip(v, q1)]
    r12 = r12 + c
    r22 = _norm3(v)
    short = r22 <= 0.5 * once  # the rest of the first pass was rounding: a2 is on q1's line
    den = np.where(short, 1.0, r22)
    q2 = [e / den for e in v]
    if short.any():
        normal = _axis_normal(q1)
        norm = _norm3(normal)
        q2 = [np.where(short, e / norm, x) for e, x in zip(normal, q2)]
    q3 = _cross3(q1, q2)
    r33 = _dot3(q3, [a[..., i, 2] for i in range(3)])
    sign = np.where(r33 < 0.0, -1.0, 1.0)
    q = [x for i in range(3) for x in (q1[i], q2[i], sign * q3[i])]
    return np.stack(q, axis=-1).reshape(a.shape), [r11, r12, r22, np.abs(r33)]


def qr_closed(a: np.ndarray):
    """QR of stacked 2 x 2 or 3 x 3 matrices with a nonnegative diagonal of R.

    q1 = a1 / |a1|; at n = 2, q2 is q1 turned by a quarter, signed so that r22 >= 0.  At
    n = 3, q2 comes by Gram-Schmidt with one reorthogonalization, and q3 = +-q1 x q2,
    signed so that r33 >= 0.  Norms are hypot forms and every other entry of R is a
    product with a unit vector, so no square of an entry of ``a`` is formed.  A zero
    a1 gives q1 the first axis, as LAPACK does.  Where the second pass more than
    halves what the first left, that rest is rounding and a2 lies in the span of q1
    (Kahan-Parlett); q2 is then a unit normal of q1, and r22 the rest's norm.
    """
    q, (r11, r12, *diag) = q_closed(a)
    zeros = np.zeros_like(r11)
    if a.shape[-1] == 2:
        return q, np.stack([r11, r12, zeros, diag[0]], axis=-1).reshape(a.shape)
    q1, q2, a3 = ([x[..., i, k] for i in range(3)] for x, k in ((q, 0), (q, 1), (a, 2)))
    r = [r11, r12, _dot3(q1, a3), zeros, diag[0], _dot3(q2, a3), zeros, zeros, diag[1]]
    return q, np.stack(r, axis=-1).reshape(a.shape)


@dataclass(frozen=True)
class Flag:
    """A partial flag, as a face type plus an adapted orthonormal frame.

    A frame of shape (..., n, n) is a stack of flags; indexing a flag
    selects along the leading axes.  The frame is a read-only copy of the
    one checked at construction, so a selection of it needs no new check.
    """

    face: FaceType
    frame: np.ndarray

    def __post_init__(self):
        q = np.array(self.frame, dtype=float)
        n = self.face.n
        if q.shape[-2:] != (n, n):
            raise ValueError(f"frame must be {n}x{n}, got {q.shape}")
        with np.errstate(invalid="ignore"):  # an inf entry gives NaN, which fails too
            gram = np.ascontiguousarray(np.swapaxes(q, -1, -2)) @ q  # fast: contiguous
            gram -= np.eye(n)
        if not (np.einsum("...ij,...ij->...", gram, gram) <= (FRAME_TOL * n) ** 2).all():
            raise ValueError("frame is not orthonormal")
        q.flags.writeable = False
        object.__setattr__(self, "frame", q)

    def __getitem__(self, index) -> "Flag":
        if isinstance(index, np.ndarray) and index.ndim == 1 and index.dtype.kind in "iu":
            frame = np.take(self.frame, index, axis=0)  # a gather, faster than a fancy index
        else:
            frame = self.frame[index]
        flag = object.__new__(Flag)
        frame.flags.writeable = False  # a gather or fancy index copies
        flag.__dict__.update(face=self.face, frame=frame)
        return flag

    @property
    def dims(self) -> tuple[int, ...]:
        return self.face.dims

    def basis(self, d: int) -> np.ndarray:
        return self.frame[..., :d]

    def projector(self, d: int) -> np.ndarray:
        b = self.frame[..., :d]
        return b @ np.swapaxes(b, -1, -2)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Sum over the last axis in a fixed order, so that a pair's value does
    # not depend on the batch shape it is broadcast in.
    acc = x[..., 0] * y[..., 0]
    for k in range(1, x.shape[-1]):
        acc = acc + x[..., k] * y[..., k]
    return acc


def _sine(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sine of the angle between the lines of unit vectors x and y (last axis).

    |x - y| |x + y| / 2 = 2 sin(a/2) cos(a/2).  The product is even in y,
    so the sign of y needs no alignment; unlike sqrt(1 - (x.y)^2) it keeps
    full relative precision at small angles.
    """
    minus, plus = x - y, x + y
    return 0.5 * np.sqrt(_dot(minus, minus) * _dot(plus, plus))


def flag_distance(f1: Flag, f2: Flag):
    """Max operator-norm difference of subspace projectors over the type.

    For a line, and for a hyperplane through its normal, the projector
    difference has norm the sine of the angle between the two unit vectors.
    """
    if f1.face != f2.face:
        raise ValueError("flags have different face types")
    n = f1.face.n
    best = 0.0
    for d in f1.dims:
        if d in (1, n - 1):
            c = 0 if d == 1 else n - 1  # the line, or the hyperplane's normal
            dist = _sine(f1.frame[..., :, c], f2.frame[..., :, c])
        else:
            dist = np.linalg.norm(f1.projector(d) - f2.projector(d), 2, axis=(-2, -1))
        best = np.maximum(best, dist)
    return _scalar(best)


def act_on_flag(g: np.ndarray, f: Flag) -> Flag:
    """Apply a group element: orthonormalize the image of the nested spans."""
    g = np.asarray(g, dtype=float)
    q, _ = qr_pos(g @ f.frame)
    return Flag(f.face, q)


def transversality_margin(f: Flag, fop: Flag):
    """Smallest singular value over complementary subspace pairs.

    ``f`` has face type I and ``fop`` the opposite type; the margin is
    positive iff the flags are antipodal, and vanishes exactly on the
    complement of the open relative-position stratum.
    """
    if fop.face != iota_face(f.face):
        raise ValueError("second flag must have the opposite face type")
    n = f.face.n
    best = np.inf
    for d in f.dims:
        if d == 1:  # f's line against fop's hyperplane; at n = 2 that is fop's line, by its normal
            margin = _line_hyperplane_margin(f.frame[..., :, 0], fop.frame[..., :, n - 1])
        elif d == n - 1:  # f's hyperplane, by its normal, against fop's line
            margin = _line_hyperplane_margin(fop.frame[..., :, 0], f.frame[..., :, n - 1])
        else:
            batch = np.broadcast_shapes(f.frame.shape[:-2], fop.frame.shape[:-2])
            m = np.concatenate([np.broadcast_to(f.basis(d), batch + (n, d)),
                                np.broadcast_to(fop.basis(n - d), batch + (n, n - d))], axis=-1)
            margin = np.linalg.svd(m, compute_uv=False)[..., -1]
        best = np.minimum(best, margin)
    return _scalar(best)


def _line_hyperplane_margin(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Least singular value of [u | basis of the hyperplane normal to v].

    With c = |u.v| and s = sqrt(1 - c^2), the Gram matrix has eigenvalues
    1 - s, 1 + s and 1, so the value is sqrt(1 - s) = c / sqrt(1 + s).  s
    is read by ``_sine``, which stays exact where c rounds to 1.
    """
    return np.abs(_dot(u, v)) / np.sqrt(1.0 + _sine(u, v))


def antipodality_margin(f1: Flag, f2: Flag):
    """Transversality of two flags of the same iota-invariant type."""
    if not f1.face.is_iota_invariant:
        raise ValueError("antipodality needs an iota-invariant face type")
    if f1.face != f2.face:
        raise ValueError("flags have different face types")
    return transversality_margin(f1, f2)


def attractive_flag(g: np.ndarray, face: FaceType, tol: float = GAP_TOL):
    """Attracting/repelling flag pair of a group element from its SVD.

    Returns (flag_plus, flag_minus, gaps): flag_plus of the given type is
    spanned by leading left singular vectors, flag_minus of the opposite
    type by trailing right singular vectors; gaps are the log
    singular-value gaps at the kept walls.  On a stack, the message of
    VanishingGap names the first row (in C order) with a gap below tol;
    ``tol=-inf`` takes every row and leaves the filtering to the caller.
    """
    g = np.asarray(g, dtype=float)
    u, s, vt = np.linalg.svd(g)
    logs = np.log(np.maximum(s, 1e-300))
    idx = np.array(face.dims, dtype=int)
    gaps = logs[..., idx - 1] - logs[..., idx]
    least = np.ravel(gaps.min(axis=-1))
    low = least < tol
    if low.any():
        raise VanishingGap(f"log singular-value gap {least[np.argmax(low)]:.3e} below {tol:.1e}")
    plus = Flag(face, u)
    minus = Flag(iota_face(face), np.swapaxes(vt, -1, -2)[..., ::-1])
    return plus, minus, gaps


def suffix_flags(matrices, face: FaceType) -> Flag:
    """Flags of every suffix product matrices[..., k:, :, :], from one backward sweep.

    Pushes a fixed generic frame through the factors from the right; the
    nested spans equal those of each suffix product applied to the frame,
    without ever forming the ill-conditioned product.  For contracting
    products this converges to the attracting flag at the intrinsic rate.
    ``matrices`` has shape (..., N, n, n), leading axes being batch axes,
    and each letter position takes the Q of one ``qr_pos`` call, from
    ``q_closed`` at n <= 3.  Row k along the returned stack's last batch
    axis is the flag of matrices[..., k:, :, :], for k = 0, ..., N.
    """
    matrices = np.asarray(matrices, dtype=float)
    rng = np.random.default_rng(321)
    q, _ = qr_pos(rng.standard_normal((face.n, face.n)))
    count = matrices.shape[-3]
    out = np.empty(matrices.shape[:-3] + (count + 1, *q.shape))
    out[..., count, :, :] = q
    for k in reversed(range(count)):
        a = matrices[..., k, :, :] @ out[..., k + 1, :, :]
        out[..., k, :, :] = (q_closed(a) if face.n <= 3 else qr_pos(a))[0]
    return Flag(face, out)


def stable_product_flag(matrices, face: FaceType) -> Flag:
    """Image of a generic flag under an ordered product, accumulated stably."""
    return suffix_flags(matrices, face)[0]


def _coord_blocks(face: FaceType) -> list[tuple[int, int]]:
    # Ordered strictly-lower block index pairs (row block, column block).
    nblocks = len(face.blocks)
    return [(bj, bi) for bj in range(nblocks) for bi in range(bj)]


def tangent_dim(face: FaceType) -> int:
    blocks = face.blocks
    return sum(
        (blocks[bj][1] - blocks[bj][0]) * (blocks[bi][1] - blocks[bi][0])
        for bj, bi in _coord_blocks(face)
    )


def _coord_entries(face: FaceType) -> list[tuple[int, int]]:
    # Global (row, col) positions of the tangent coordinates, in a fixed order.
    entries = []
    blocks = face.blocks
    for bj, bi in _coord_blocks(face):
        rlo, rhi = blocks[bj]
        clo, chi = blocks[bi]
        for c in range(clo, chi):
            for r in range(rlo, rhi):
                entries.append((r, c))
    return entries


def triu_inverse(r: np.ndarray) -> np.ndarray:
    """Inverses of a stack of upper-triangular matrices.

    Back-substitution on the identity with a reciprocal multiply, in
    OpenBLAS ``dtrsm``'s order: for k = d-1, ..., 0, row k is scaled by
    1/r[k, k] and then subtracted, times r[:k, k], from the rows above.
    At width d <= 2 this is LAPACK's inverse bit for bit, against which
    the tests compare through ``scipy.linalg.solve_triangular``; wider,
    LAPACK fuses the updates into FMAs and the two differ by rounding.
    Like LAPACK, raises ValueError on a non-finite entry and LinAlgError
    on a zero diagonal.
    """
    r = np.asarray(r, dtype=float)
    if not np.isfinite(r).all():
        raise ValueError("array must not contain infs or NaNs")
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    zero = diag == 0.0
    if zero.any():
        at = np.nonzero(zero)[-1][0]
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {at}")
    recip = 1.0 / diag
    d = r.shape[-1]
    b = np.broadcast_to(np.eye(d), r.shape).copy()
    for k in reversed(range(d)):
        b[..., k, :] *= recip[..., k, None]
        b[..., :k, :] -= b[..., k, None, :] * r[..., :k, k, None]
    return b


@functools.cache
def _differential_gather(face: FaceType) -> tuple[np.ndarray, ...]:
    """Gather tables of ``action_differential`` for one face type.

    Entry (i, j) of the differential is r[R, rr] * inv(r[:L, :L])[cc, c2]
    for the tangent coordinates (R, c2) = entries[i] and (rr, cc) =
    entries[j], where L is the boundary closing the block of column c2;
    it is zero unless cc < L <= rr.  The leading block of an
    upper-triangular inverse is the inverse of the leading block, so
    every level reads the inverse of r's leading max(dims) block.
    Returns the row and column indices into r and into that inverse, and
    the mask of nonzero entries, each of shape (m, m).
    """
    bounds = face.boundaries
    closing = np.empty(face.n, dtype=int)  # L for each column
    for k in range(len(bounds) - 1):
        closing[bounds[k]:bounds[k + 1]] = bounds[k + 1]
    entries = np.array(_coord_entries(face))
    big_r, c2 = entries[:, :1], entries[:, 1:]  # vary along the output rows
    rr, cc = entries[:, 0], entries[:, 1]  # vary along the output columns
    level = closing[c2]
    tables = np.broadcast_arrays(big_r, rr, cc, c2, (cc < level) & (level <= rr))
    for t in tables:
        t.flags.writeable = False
    return tuple(tables)


def action_differential(g: np.ndarray, f: Flag) -> np.ndarray:
    """Matrix of the differential of the g-action at a flag.

    Coordinates are the strictly-lower block entries of the adapted
    frames at the flag and at its image, orthonormal for the
    O(n)-invariant metric.  Per subspace level d the Grassmannian
    differential is X -> R22 X R11^{-1} with R the triangular factor of
    the image frame; block entries are extracted at the finest level
    containing them, so every entry is one product of an entry of R and
    one of the inverse of its leading block, gathered by
    ``_differential_gather``.
    """
    g = np.asarray(g, dtype=float)
    face = f.face
    _, r = qr_pos(g @ f.frame)
    r_rows, r_cols, inv_rows, inv_cols, mask = _differential_gather(face)
    top = face.dims[-1]
    r11_inv = triu_inverse(r[..., :top, :top])
    return np.where(mask, r[..., r_rows, r_cols] * r11_inv[..., inv_rows, inv_cols], 0.0)


def expansion_factor(g: np.ndarray, f: Flag):
    """Reciprocal operator norm of the inverse differential at the flag.

    That is the differential's least singular value, in closed form where
    the tangent dimension is at most 3 (``least_singular``).
    """
    return _scalar(least_singular(action_differential(g, f)))

