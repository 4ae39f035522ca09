"""Euclidean model chamber algebra for SL(n,R).

Vectors live in the trace-zero subspace of R^n (log-singular-value
coordinates).  The model chamber consists of non-increasingly sorted
vectors.  Walls are indexed by i in {1, ..., n-1} and separate
coordinates i and i+1; a face type records the set of walls where a
strict gap is required.  Everything downstream phrases chamber
combinatorics through this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUM_TOL = 1e-10
CHAMBER_TOL = 1e-9
SQRT2 = math.sqrt(2.0)


def check_model_vector(v, tol: float = SUM_TOL) -> np.ndarray:
    """Validate a trace-zero coordinate vector and return it as ndarray."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError(f"expected a vector of dimension >= 2, got shape {v.shape}")
    if abs(float(v.sum())) > tol * max(1.0, float(np.abs(v).max())):
        raise ValueError(f"coordinates must sum to 0, got sum {v.sum():.3e}")
    return v


def check_cartan_vector(v, tol: float = CHAMBER_TOL) -> np.ndarray:
    """Validate a chamber vector: trace zero and non-increasing."""
    v = check_model_vector(v, tol=max(tol, SUM_TOL))
    if np.any(np.diff(v) > tol):
        raise ValueError(f"coordinates must be non-increasing, got {v}")
    return v


@dataclass(frozen=True)
class FaceType:
    """A face of the model chamber, encoded by its set of strict walls.

    ``kept`` is the set of wall indices i (1-based, 1 <= i <= n-1) where a
    strict gap a_i > a_{i+1} is required.  The full set encodes the top
    face; the empty set is not a valid proper face type.
    """

    n: int
    kept: frozenset[int]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if not self.kept:
            raise ValueError("a proper face type keeps at least one wall")
        if not all(1 <= i <= self.n - 1 for i in self.kept):
            raise ValueError(f"wall indices must lie in 1..{self.n - 1}")

    @classmethod
    def make(cls, n: int, walls) -> "FaceType":
        return cls(n, frozenset(int(i) for i in walls))

    @classmethod
    def full(cls, n: int) -> "FaceType":
        return cls(n, frozenset(range(1, n)))

    @property
    def dims(self) -> tuple[int, ...]:
        """Subspace dimensions of flags of this type, ascending."""
        return tuple(sorted(self.kept))

    @property
    def boundaries(self) -> tuple[int, ...]:
        return (0,) + self.dims + (self.n,)

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        b = self.boundaries
        return tuple((b[k], b[k + 1]) for k in range(len(b) - 1))

    @property
    def is_iota_invariant(self) -> bool:
        return self.kept == frozenset(self.n - i for i in self.kept)


def iota_face(face: FaceType) -> FaceType:
    """Opposition involution on face types: I -> {n - i : i in I}."""
    return FaceType(face.n, frozenset(face.n - i for i in face.kept))


def face_boundary_distance(delta, face: FaceType) -> float:
    """Euclidean distance from a chamber vector to the forbidden walls.

    Equals min over kept walls i of (a_i - a_{i+1}) / sqrt(2); the
    hyperplane projection of a chamber vector stays in the chamber, so
    the wall distance is exact.
    """
    delta = check_cartan_vector(delta)
    gaps = wall_gaps(delta, face)
    return float(gaps.min()) / SQRT2


def wall_gaps(delta, face: FaceType) -> np.ndarray:
    """Gaps a_i - a_{i+1} at the kept walls, in ascending wall order."""
    delta = np.asarray(delta, dtype=float)
    idx = np.array(face.dims, dtype=int)
    return delta[idx - 1] - delta[idx]


def row_norms(x) -> np.ndarray:
    """Euclidean norms along the last axis, equal bit for bit to np.linalg.norm.

    ``norm(axis=-1)`` sums the squares in another order; ``vecdot`` takes
    the same BLAS dot product per row as the norm of a single vector.
    """
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.vecdot(x, x))


def pav_nonincreasing(values) -> np.ndarray:
    """Least-squares projection onto non-increasing vectors.

    Pool-adjacent-violators along the last axis, for every row of a
    stack at once; each row makes the same merges in the same order as a
    sequential pass over it, so results do not depend on the batch.  A
    row with no ascent passes through as it is, and a stack without one
    returns at once; only the others enter the merge loop.
    """
    y = np.asarray(values, dtype=float)
    n = y.shape[-1]
    out = y.reshape(-1, n).copy()
    ascent = out[:, 1:] > out[:, :-1]
    if not ascent.any():
        return out.reshape(y.shape)
    ascent = ascent.any(axis=1)
    ys = out[ascent]
    rows = np.arange(ys.shape[0])
    # Per row a stack of blocks (mean, count); top is its height.
    means = np.zeros_like(ys)
    counts = np.zeros(ys.shape, dtype=int)
    top = np.zeros(ys.shape[0], dtype=int)
    for i in range(n):
        means[rows, top] = ys[:, i]
        counts[rows, top] = 1
        top += 1
        while True:
            r = rows[(top > 1) & (means[rows, top - 2] < means[rows, top - 1])]
            if not r.size:
                break
            lo, hi = top[r] - 2, top[r] - 1
            c_lo, c_hi = counts[r, lo], counts[r, hi]
            means[r, lo] = (means[r, lo] * c_lo + means[r, hi] * c_hi) / (c_lo + c_hi)
            counts[r, lo] = c_lo + c_hi
            top[r] -= 1
    ends = np.cumsum(counts, axis=1)
    block_of = (ends[:, :, None] <= np.arange(n)).sum(axis=1)
    out[ascent] = np.take_along_axis(means, block_of, axis=1)
    return out.reshape(y.shape)


@dataclass(frozen=True)
class ThetaSpec:
    """A uniform-gap compact type set inside the open face interior.

    Membership for a unit chamber vector requires every kept-wall gap to
    be at least ``gap``.  The set is compact and invariant under the
    opposition involution whenever the face is.
    """

    face: FaceType
    gap: float

    def __post_init__(self):
        if not self.gap > 0.0:
            raise ValueError("gap must be positive")


def theta_membership(delta, theta: ThetaSpec, zero_tol: float = 1e-12) -> tuple[bool, float]:
    """Test scale-invariant membership of a nonzero chamber vector.

    Returns (member, margin) where margin = min kept gap of the
    normalized vector minus the required gap.  Rejects delta = 0.
    """
    delta = check_cartan_vector(delta)
    norm = float(np.linalg.norm(delta))
    if norm <= zero_tol:
        raise ValueError("type of the zero vector is undefined")
    margin = float(wall_gaps(delta / norm, theta.face).min()) - theta.gap
    return margin >= 0.0, margin


def block_sort(v, face: FaceType) -> np.ndarray:
    """Sort descending within each block of the face type (last axis)."""
    v = np.asarray(v, dtype=float)
    out = v.copy()
    for lo, hi in face.blocks:
        if hi - lo > 1:
            out[..., lo:hi] = np.sort(v[..., lo:hi], axis=-1)[..., ::-1]
    return out


def flat_cone_deficit(v, face: FaceType):
    """Distance-like deficit from the block-symmetrized chamber cone.

    Zero iff member; otherwise the distance from the block-sorted vector
    to the monotone cone (an upper bound for the distance to the union
    of chambers, exact within the flat spanned by the sorted form).
    Only rows with an ascent (or a NaN) are projected; every other row is
    its own projection, with deficit exactly 0.  Leading axes are batch axes.
    """
    w = block_sort(v, face)
    out = np.zeros(w.shape[:-1])
    descent = w[..., 1:] <= w[..., :-1]  # False at an ascent or a NaN
    if not descent.all():
        read = ~descent.all(axis=-1)
        out[read] = row_norms(w[read] - pav_nonincreasing(w[read]))
    return out[()]  # a scalar for one vector, as row_norms gives
