"""Stacked primitives: leading axes are batch axes, and every row of a
stack comes out bit for bit as the same primitive gives it alone."""

import numpy as np
import pytest

from anosovcheck.chamber import (
    FaceType,
    block_sort,
    flat_cone_deficit,
    pav_nonincreasing,
    row_norms,
)
from anosovcheck.subgroup import _resolved_logs, _two_sided_svd
from anosovcheck.symmspace import factored_coords_pair
from oracles import pav_sequential, random_sl

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
    frame, s, logs = _two_sided_svd(mats, invs)
    single = [_two_sided_svd(m, mi) for m, mi in zip(mats, invs)]
    for k, out in enumerate((frame, s, logs)):
        assert_rows_equal(out, [x[k] for x in single])
    sv = np.linalg.svd(mats, compute_uv=False)
    svi = np.linalg.svd(invs, compute_uv=False)
    assert_rows_equal(_resolved_logs(sv, svi), [_resolved_logs(a, b) for a, b in zip(sv, svi)])


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flat_cone_deficit_and_pav(rng, n):
    vs = rng.standard_normal((300, n))
    vs[::3] = np.round(vs[::3], 1)  # ties make PAV merge equal blocks
    vs -= vs.mean(axis=1, keepdims=True)
    weights = rng.uniform(0.5, 3.0, (300, n))
    assert_rows_equal(pav_nonincreasing(vs), [pav_sequential(v) for v in vs])
    assert_rows_equal(pav_nonincreasing(vs, weights),
                      [pav_sequential(v, w) for v, w in zip(vs, weights)])
    assert_rows_equal(row_norms(vs), [np.linalg.norm(v) for v in vs])
    for face in FACES[n]:
        assert_rows_equal(block_sort(vs, face), [block_sort(v, face) for v in vs])
        assert_rows_equal(flat_cone_deficit(vs, face), [flat_cone_deficit(v, face) for v in vs])
