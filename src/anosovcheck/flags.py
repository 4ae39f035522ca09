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

    Leading axes are batch axes.
    """
    q, r = np.linalg.qr(a)
    s = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    s[s == 0.0] = 1.0
    return q * s[..., None, :], r * s[..., :, None]


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
        gram = np.swapaxes(q, -1, -2) @ q - np.eye(n)
        if np.any(np.linalg.norm(gram, axis=(-2, -1)) > FRAME_TOL * n):
            raise ValueError("frame is not orthonormal")
        q.flags.writeable = False
        object.__setattr__(self, "frame", q)

    def __getitem__(self, index) -> "Flag":
        flag, frame = object.__new__(Flag), self.frame[index]
        frame.flags.writeable = False  # a fancy index copies
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


def random_flag(face: FaceType, rng: np.random.Generator) -> Flag:
    """Haar-ish random flag via QR of a Gaussian matrix."""
    q, _ = qr_pos(rng.standard_normal((face.n, face.n)))
    return Flag(face, q)


def suffix_flags(matrices, face: FaceType) -> Flag:
    """Flags of every suffix product matrices[..., k:, :, :], from one backward sweep.

    Pushes a fixed generic frame through the factors from the right; the
    nested spans equal those of each suffix product applied to the frame,
    without ever forming the ill-conditioned product.  For contracting
    products this converges to the attracting flag at the intrinsic rate.
    ``matrices`` has shape (..., N, n, n), leading axes being batch axes,
    and each letter position takes one stacked QR.  Row k along the
    returned stack's last batch axis is the flag of matrices[..., k:, :, :],
    for k = 0, ..., N.
    """
    matrices = np.asarray(matrices, dtype=float)
    rng = np.random.default_rng(321)
    q, _ = qr_pos(rng.standard_normal((face.n, face.n)))
    out = [np.broadcast_to(q, matrices.shape[:-3] + q.shape)]
    for k in reversed(range(matrices.shape[-3])):
        out.append(qr_pos(matrices[..., k, :, :] @ out[-1])[0])
    return Flag(face, np.stack(out[::-1], axis=-3))


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
    At width d <= 2 this is LAPACK's (``scipy.linalg.solve_triangular``)
    inverse bit for bit; wider, LAPACK fuses the updates into FMAs and
    the two differ by rounding.  Like LAPACK, raises ValueError on a
    non-finite entry and LinAlgError on a zero diagonal.
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
    """Reciprocal operator norm of the inverse differential at the flag."""
    d = action_differential(g, f)
    return _scalar(np.linalg.svd(d, compute_uv=False)[..., -1])

