"""Timings of morse's deficit kernels on one block of the word walk, and of the ray primitives.

    PYTHONPATH=src python -m pytest tests/test_kernel_timings.py --benchmark-only

prints one table row per kernel and n.  Each block holds WORD_BLOCK
(2,916) words of 8 random letters, read at prefix length 4 in the words'
two-sided frames, as morse reads them; the n = 4 face mixes block widths,
so its blocks of width 2 take the SVD route.  The floored rows, at n = 2
and 3, read the off distance exactly only where its bound reaches the
block's upper quartile deficit, as morse does below its running worst
deficit.  The two-sided logs and frame of the words themselves are timed
too, and so is morse's coordinate read of one full block of a rank-2 walk
to length 8, u^T p and pinv u at prefix lengths 4, ..., 1, formed by
``_prefix_coords`` with one GEMM per run of words that share a prefix, and
the whole deficit read of that block, ``_batch_deficits`` over its four
prefix lengths with morse's floor there: the largest final deficit at
lengths 3 to 7, each one block of that walk, lowered by 1e-9 relative.
That is one bound pass per prefix length, then the block's exact off reads
at once, on few of its 11,664 configurations, as in morse (on
sl3-symsq-schottky, past the first batch, 9,720 of the 43,740 at L = 7
and 8 on their first side and 72 on their second): 2 read on both sides
in one call at n = 2, and at n = 3 50 on their first side and 14 on
their second.  The first batch of that walk, lengths 1-6 (1,456 words),
is timed as morse reads it before any floor is set, on its stacked words
and one length at a time, as it was read when each length was a block
of its own.
The ray primitives are timed on stacks of RAY_ROWS: ``qr_pos`` as the tails'
sweep takes it (one row per ray, 200 as in the rays benchmark) and on
2,400 rows, ``action_differential`` and ``expansion_factor`` of letters
at random flags of the full face, and ``attractive_flag`` of the letters.
The word walk is timed on the step from one full block to its children:
a rank-2 walk to length 8 yields its first full block at length 7, then
that block's three child blocks, with the inverses and letters that
``word_checks`` forms for morse at length 8: at n = 2 no inverse, at n = 3
all; and at n = 2 a walk to length 10, as uru's depth beside morse's 8,
from length 9 to 10, where neither inverses nor letters are formed.  Its
[3] row lands in one of two modes, 0.51-0.53 or 0.84-0.86 ms least on
either side of unchanged n = 3 code, so one run of it cannot show a
change below about 60%.  The
rays benchmark's other steps are timed on its shapes: limit's pair scan
``_pair_scan`` over the limit flags of 200 and of 1,000 rays of depth 12
of sl2-schottky and sl3-symsq-schottky at seed 1, the orthonormality
check of a ``Flag`` of 200 x 21 frames, ``suffix_flags`` over 200 rays of
20 letters, and the writing of a 200-ray limit report of
sl3-symsq-schottky.  Each test also checks that
the timed call returns what an untimed call does.

Each kernel is timed over ROUNDS rounds, and a BENCH file cites each row's
``min`` column, the least round: background load on a shared host only
lengthens a round, and with 5 rounds the medians of unchanged kernels moved
by up to 1.9x between runs on a 2-core host.
"""

import itertools

import numpy as np
import pytest

from anosovcheck.chamber import FaceType, flat_cone_deficit
from anosovcheck.cli import bundled_config_path, load_config
from anosovcheck.flags import (Flag, action_differential, attractive_flag, expansion_factor, qr_pos,
                               suffix_flags)
from anosovcheck.reports import dumps
from anosovcheck.subgroup import (WORD_BLOCK, FreeGroupPresentation, _batch_deficits, _batches,
                                  _level_rows, _pair_scan, _prefix_coords, _two_sided_logs,
                                  limit_report, sample_rays, word_levels)
from anosovcheck.symmspace import (_top_read, _two_sided_frame, factored_coords_pair,
                                   segment_deficits)
from oracles import random_sl

FACES = {2: FaceType.full(2), 3: FaceType.full(3), 4: FaceType.make(4, [1, 3])}
ROUNDS = 15
RAY_ROWS = (200, 2400)


def words(n):
    """(products, inverses) of one block of words of 8 random letters, then of their prefixes of 4."""
    rng = np.random.default_rng(n)
    letters = np.stack([random_sl(rng, n, scale=1.2) for _ in range(4)])
    inverses = np.linalg.inv(letters)
    draws = rng.integers(len(letters), size=(WORD_BLOCK, 8))
    m, mi = np.eye(n), np.eye(n)
    for k in range(draws.shape[1]):
        m, mi = m @ letters[draws[:, k]], inverses[draws[:, k]] @ mi
        if k == 3:
            p, pinv = m, mi
    return m, mi, p, pinv


def block(n):
    """(frame, centered logs, points, inverses) of one block, read at prefix length 4.

    The inverses are a transposed view of C-ordered transposes, the layout in
    which morse and limit hold them, so ``segment_deficits`` copies none of them.
    """
    m, mi, p, pinv = words(n)
    pinv = np.swapaxes(np.ascontiguousarray(np.swapaxes(pinv, 1, 2)), 1, 2)
    return _two_sided_frame(m, mi), _two_sided_logs(m, mi, np.zeros(WORD_BLOCK)), p, pinv


@pytest.mark.parametrize("n", sorted(FACES))
def test_two_sided_logs_timing(benchmark, n):
    args = (*words(n)[:2], np.zeros(WORD_BLOCK))
    assert np.array_equal(benchmark.pedantic(_two_sided_logs, args, rounds=ROUNDS),
                          _two_sided_logs(*args))


@pytest.mark.parametrize("n", sorted(FACES))
def test_two_sided_frame_timing(benchmark, n):
    m, mi, _, _ = words(n)
    assert np.array_equal(benchmark.pedantic(_two_sided_frame, (m, mi), rounds=ROUNDS),
                          _two_sided_frame(m, mi))


@pytest.mark.parametrize("n", sorted(FACES))
def test_segment_deficits_timing(benchmark, n):
    u, logs, p, pinv = block(n)
    call = lambda: segment_deficits(u, logs, [(p, pinv)], FACES[n])  # noqa: E731
    assert np.array_equal(benchmark.pedantic(call, rounds=ROUNDS), call())


@pytest.mark.parametrize("n", [2, 3])
def test_prefix_coords_timing(benchmark, n):
    rng = np.random.default_rng(n)
    pres = FreeGroupPresentation(tuple(random_sl(rng, n, scale=1.2) for _ in range(2)))
    chain = next(chain for chain in word_levels(pres, 8) if len(chain) == 8)
    level = chain[-1]
    rows = np.arange(WORD_BLOCK)
    ut = np.ascontiguousarray(np.swapaxes(_two_sided_frame(level.mats, level.invs), 1, 2))
    call = lambda: list(_prefix_coords(chain, rows, ut))  # noqa: E731
    timed = benchmark.pedantic(call, rounds=ROUNDS)
    assert len(timed) == 4 and len(level.letters) == WORD_BLOCK
    assert all(np.array_equal(x, y) for a, b in zip(timed, call()) for x, y in zip(a, b))


def morse_floor(pres, face):
    """morse's floor at the first block of length 8 of a rank-2 walk: the largest final
    deficit at lengths 3 to 7, lowered by 1e-9 relative.  A final read at length L leaves out
    the midpoint t = L/2, which waits for its mirror's."""
    best = -np.inf
    for chain in word_levels(pres, 7):
        level, el = chain[-1], len(chain)
        if el > 2:
            ut = np.ascontiguousarray(np.swapaxes(_two_sided_frame(level.mats, level.invs), 1, 2))
            a_plus = _two_sided_logs(level.mats, level.invs, level.logdets)
            reads = _batch_deficits([(chain, np.arange(len(ut)))], ut, a_plus, face, -np.inf)
            best = max(best, reads[:, :(el - 1) // 2].max())
    return best * (1.0 - 1e-9)


@pytest.mark.parametrize("n", [2, 3])
def test_block_deficits_timing(benchmark, n):
    rng = np.random.default_rng(n)
    pres = FreeGroupPresentation(tuple(random_sl(rng, n, scale=1.2) for _ in range(2)))
    chain = next(chain for chain in word_levels(pres, 8) if len(chain) == 8)
    level = chain[-1]
    rows = np.arange(WORD_BLOCK)
    top = _top_read(level.mats)
    ut = np.ascontiguousarray(np.swapaxes(_two_sided_frame(level.mats, level.invs, top), 1, 2))
    a_plus = _two_sided_logs(level.mats, level.invs, level.logdets, top)
    full = _batch_deficits([(chain, rows)], ut, a_plus, FACES[n], -np.inf)
    floor = morse_floor(pres, FACES[n])
    call = lambda: _batch_deficits([(chain, rows)], ut, a_plus, FACES[n], floor)  # noqa: E731
    floored = benchmark.pedantic(call, rounds=ROUNDS)
    assert floored.shape == (WORD_BLOCK, 4) and np.array_equal(floored, call())
    # every deficit at or above the floor is exact, and every other one stays below it
    above = full >= floor
    assert np.array_equal(floored[above], full[above]) and (floored[~above] < floor).all()


def first_batch_read(batch, face, batched=True):
    """morse's read of the first batch of a walk, before any floor is set: the top read,
    two-sided logs and frame of its words, then the deficits of their interior points.
    Where not ``batched`` each length is read alone, one block per length."""
    if not batched:
        return [first_batch_read([chain], face) for chain in batch if len(chain) >= 2]
    levels = [chain[-1] for chain in batch]
    mats = np.concatenate([lv.mats for lv in levels])
    invs = None if levels[-1].invs is None else np.concatenate([lv.invs for lv in levels])
    top = _top_read(mats)
    logs = _two_sided_logs(mats, invs, np.concatenate([lv.logdets for lv in levels]), top)
    ut = np.ascontiguousarray(np.swapaxes(_two_sided_frame(mats, invs, top), 1, 2))
    deep = len(batch[0]) < 2  # the words of length 1 have no interior points
    parts = [(chain, np.arange(rows.stop - rows.start))
             for chain, rows in zip(batch[deep:], _level_rows(batch)[deep:])]
    start = len(batch[0][-1].mats) if deep else 0
    return _batch_deficits(parts, ut[start:], logs[start:], face, -np.inf)


@pytest.mark.parametrize("batched", [True, False], ids=["batch", "lengths"])
@pytest.mark.parametrize("n", [2, 3])
def test_first_batch_timing(benchmark, n, batched):
    """The first batch of a rank-2 walk to 8, lengths 1-6 (1,456 words), read as morse reads it.

    The walk forms what ``word_checks`` forms with morse at 8 (inverses to 4 at n = 2).  The
    [batch] rows take one top read, logs and frame on the stacked words, one bound pass per
    prefix length and one exact-read call over all 3,828 configurations; the [lengths] rows
    read the same words one length at a time, as the walk read them in blocks of one length
    each, at the same floor of -inf.  Both give the same deficits bit for bit.
    """
    rng = np.random.default_rng(n)
    pres = FreeGroupPresentation(tuple(random_sl(rng, n, scale=1.2) for _ in range(2)))
    batch = next(_batches(word_levels(pres, 8, 4 if n == 2 else 8, 8), pres.rank, (8,)))
    assert [len(chain) for chain in batch] == [1, 2, 3, 4, 5, 6]
    timed = benchmark.pedantic(first_batch_read, (batch, FACES[n], batched), rounds=ROUNDS)
    reads = first_batch_read(batch, FACES[n])
    assert reads.shape == (1452, 3)
    if not batched:  # each length's rows, its columns t <= L/2
        timed = np.concatenate([np.pad(r, ((0, 0), (0, 3 - r.shape[1])), constant_values=np.nan)
                                for r in timed])
    assert np.array_equal(timed, reads, equal_nan=True)


@pytest.mark.parametrize("n", [2, 3])
def test_segment_deficits_floored_timing(benchmark, n):
    u, logs, p, pinv = block(n)
    full = segment_deficits(u, logs, [(p, pinv)], FACES[n])[:, 0]
    call = lambda: segment_deficits(u, logs, [(p, pinv)], FACES[n], np.quantile(full, 0.75))[:, 0]  # noqa: E731
    floored = benchmark.pedantic(call, rounds=ROUNDS)
    assert np.array_equal(floored, call())
    assert floored.max() == full.max() and floored.argmax() == full.argmax()


@pytest.mark.parametrize("n", sorted(FACES))
def test_factored_coords_pair_timing(benchmark, n):
    u, _, p, pinv = block(n)
    w, winv = np.swapaxes(u, -1, -2) @ p, pinv @ u
    v, off = benchmark.pedantic(factored_coords_pair, (w, winv, FACES[n]), rounds=ROUNDS)
    v1, off1 = factored_coords_pair(w, winv, FACES[n])
    assert np.array_equal(v, v1) and np.array_equal(off, off1)


@pytest.mark.parametrize("n", sorted(FACES))
def test_flat_cone_deficit_timing(benchmark, n):
    u, _, p, pinv = block(n)
    v = factored_coords_pair(np.swapaxes(u, -1, -2) @ p, pinv @ u, FACES[n])[0]
    deficit = benchmark.pedantic(flat_cone_deficit, (v, FACES[n]), rounds=ROUNDS)
    assert np.array_equal(deficit, flat_cone_deficit(v, FACES[n]))


def ray_stack(n, rows):
    """(letters, flags of the full face) of one stack of ray rows."""
    rng = np.random.default_rng(n)
    letters = np.stack([random_sl(rng, n, scale=1.2) for _ in range(rows)])
    return letters, Flag(FaceType.full(n), qr_pos(rng.standard_normal((rows, n, n)))[0])


@pytest.mark.parametrize("rows", RAY_ROWS)
@pytest.mark.parametrize("n", sorted(FACES))
def test_qr_pos_timing(benchmark, n, rows):
    mats = ray_stack(n, rows)[0]
    q, r = benchmark.pedantic(qr_pos, (mats,), rounds=ROUNDS)
    q1, r1 = qr_pos(mats)
    assert np.array_equal(q, q1) and np.array_equal(r, r1)


@pytest.mark.parametrize("primitive", [action_differential, expansion_factor],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("n", sorted(FACES))
def test_ray_differential_timing(benchmark, n, primitive):
    letters, flags = ray_stack(n, RAY_ROWS[0])
    assert np.array_equal(benchmark.pedantic(primitive, (letters, flags), rounds=ROUNDS),
                          primitive(letters, flags))


@pytest.mark.parametrize("n", sorted(FACES))
def test_attractive_flag_timing(benchmark, n):
    letters = ray_stack(n, RAY_ROWS[0])[0]
    timed = benchmark.pedantic(attractive_flag, (letters, FACES[n]), rounds=ROUNDS)
    plus, minus, gaps = attractive_flag(letters, FACES[n])
    assert all(np.array_equal(x, y) for x, y in zip(
        (timed[0].frame, timed[1].frame, timed[2]), (plus.frame, minus.frame, gaps)))


@pytest.mark.parametrize("n, length", [(2, 8), (3, 8), (2, 10)], ids=["2", "3", "2-10"])
def test_word_levels_timing(benchmark, n, length):
    """The step from the first full block at length - 1 to its three children.

    The walk forms what ``word_checks`` forms with morse at 8: inverses to 4
    at n = 2 and to the walk's length at n = 3, letters to 8, so the [2-10]
    row, uru's length 10 beside morse's 8, forms none.  The [3] row is
    bimodal: its ``min`` read 0.51-0.53 or 0.84-0.86 ms on either side of
    unchanged n = 3 code, so one run of it cannot show a change below about
    60%, and no BENCH file cites one run of it.
    """
    rng = np.random.default_rng(n)
    pres = FreeGroupPresentation(tuple(random_sl(rng, n, scale=1.2) for _ in range(2)))

    def full_block():
        walk = word_levels(pres, length, 4 if n == 2 else length, 8)
        next(chain for chain in walk if len(chain) == length - 1)
        return (walk,), {}

    def children(walk):
        return [chain[-1] for chain in itertools.islice(walk, 2 * pres.rank - 1)]

    timed = benchmark.pedantic(children, setup=full_block, rounds=ROUNDS)
    untimed = children(*full_block()[0])
    assert [lv.mats.shape[0] for lv in timed] == [WORD_BLOCK] * 3
    assert all(lv.letters is None if length > 8 else lv.letters.shape == (WORD_BLOCK, 8)
               for lv in timed)
    assert all(np.array_equal(x, y) for lv, lv1 in zip(timed, untimed) for x, y in zip(lv, lv1))


def test_flag_timing(benchmark):
    # a stack of 200 x 21 frames, as limit's backward flags of 200 rays at depth 20
    frames = qr_pos(np.random.default_rng(3).standard_normal((RAY_ROWS[0], 21, 3, 3)))[0]
    timed = benchmark.pedantic(Flag, (FACES[3], frames), rounds=ROUNDS)
    assert np.array_equal(timed.frame, frames)


@pytest.mark.parametrize("n", sorted(FACES))
def test_suffix_flags_timing(benchmark, n):
    rng = np.random.default_rng(n)
    letters = np.stack([random_sl(rng, n, scale=1.2) for _ in range(4)])
    mats = letters[rng.integers(len(letters), size=(RAY_ROWS[0], 20))]
    timed = benchmark.pedantic(suffix_flags, (mats, FACES[n]), rounds=ROUNDS)
    assert np.array_equal(timed.frame, suffix_flags(mats, FACES[n]).frame)


RAY_CONFIGS = {2: "sl2-schottky", 3: "sl3-symsq-schottky"}
# _pair_scan's (cross margin, all-pairs margin, closest pair) as the all-pairs scan gave them
PAIR_SCANS = {
    (2, 200): (0.4458340910606303, 2.454263889045327e-09,
               ([1, 2, -1, -2, 1, -2, 1, 1, -2, -2, 1, -2],
                [2, 1, -2, -1, -1, -2, -2, -2, 1, -2, -2, -2])),
    (2, 1000): (0.44566511595480474, 5.538085073505465e-11,
                ([2, 1, -2, -1, 2, 1, -2, -2, 1, -2, -2, -2],
                 [1, 2, -1, -2, 1, 2, 1, -2, -1, 2, -1, 2])),
    (3, 200): (0.2574663035009857, 8.51457000451986e-18,
               ([1, 2, -1, -2, 1, -2, 1, 1, -2, -2, 1, -2],
                [2, 1, -2, -1, -1, -2, -2, -2, 1, -2, -2, -2])),
    (3, 1000): (0.2572865366027036, 0.0,
                ([2, 1, -2, -1, 2, 1, -2, -2, 1, -2, -2, -2],
                 [1, 2, -1, -2, 1, 2, 1, -2, -1, 2, -1, 2])),
}


@pytest.mark.parametrize("rays", [RAY_ROWS[0], 1000])
@pytest.mark.parametrize("n", [2, 3])
def test_pair_scan_timing(benchmark, n, rays):
    cfg = load_config(bundled_config_path(RAY_CONFIGS[n]))
    face = cfg.face_type()
    sample = sample_rays(cfg.presentation(), rays, 12, 1, face)
    limits = Flag(face, _two_sided_frame(sample.prefixes[:, -1], sample.inverses[:, -1]))
    # the rays' names, as limit_report passes them
    timed = benchmark.pedantic(_pair_scan, (limits, sample.letters[:, :12]), rounds=ROUNDS)
    assert timed == PAIR_SCANS[n, rays]


def test_dumps_timing(benchmark):
    cfg = load_config(bundled_config_path("sl3-symsq-schottky"))
    pres, face = cfg.presentation(), cfg.face_type()
    sample = sample_rays(pres, RAY_ROWS[0], cfg.ray_depth, cfg.seed, face)
    payload = limit_report(pres, face, sample).as_dict()
    assert benchmark.pedantic(dumps, (payload,), rounds=ROUNDS) == dumps(payload)
