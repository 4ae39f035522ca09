import sys
import tracemalloc

import numpy as np
import pytest

from anosovcheck import dynamics, subgroup, symmspace
from anosovcheck.chamber import FaceType, flat_cone_deficit, row_norms
from anosovcheck.cli import bundled_config_path, load_config
from anosovcheck.errors import (
    BudgetExceeded,
    IllConditioned,
    TransversalityTooSmall,
    VanishingGap,
)
from anosovcheck.flags import Flag, attractive_flag, expansion_factor, flag_distance
from anosovcheck.reports import dumps
from anosovcheck.subgroup import (
    GAP_TOL,
    TIE_RTOL,
    FreeGroupPresentation,
    anosov_check,
    limit_report,
    morse_check,
    sample_rays,
    schottky_build,
    symmetric_square,
    uru_check,
    word_count,
    word_levels,
    _two_sided_logs,
)
from anosovcheck.symmspace import _two_sided_frame, diamond_query, make_diamond, segment_deficits
from conftest import SL2_G, SL2_H, same_group, sl4_pair, torus_pres
from oracles import (
    ball_flags,
    exact_centered_logs,
    mapped_distances,
    pingpong_bound_mp,
    random_sl,
    random_word,
    reduced_words,
    sym2_lift,
    word_product,
)

FACE2 = FaceType.make(2, [1])
FACE3 = FaceType.full(3)


class TestWords:
    def test_counts(self, sl2_pres):
        for length, total in ((1, 4), (2, 4 + 12)):
            assert sum(len(chain[-1].letters) for chain in word_levels(sl2_pres, length)) == total
            assert word_count(2, length) == total

    def test_all_reduced(self, sl2_pres):
        for chain in word_levels(sl2_pres, 4):
            letters = chain[-1].letters
            assert (letters != 0).all() and (letters[:, 1:] != -letters[:, :-1]).all()

    def test_budget_guard(self, sl2_pres):
        # rank 2 has 9,565,936 reduced words of length 1..14; the walk refuses
        # them before it builds its first block
        assert word_count(2, 14) > subgroup.MAX_WORDS
        with pytest.raises(BudgetExceeded):
            next(word_levels(sl2_pres, 14))

    @pytest.mark.parametrize("length", [0, -1])
    def test_length_below_one_rejected(self, sl2_pres, length):
        with pytest.raises(ValueError, match="length >= 1"):
            next(word_levels(sl2_pres, length))

    def test_word_matrix(self, sl2_pres):
        # word (1, -2): its product and its exactly accumulated inverse
        (level,) = [chain[-1] for chain in word_levels(sl2_pres, 2) if len(chain) == 2]
        row = level.letters.tolist().index([1, -2])
        assert np.allclose(level.mats[row], SL2_G @ np.linalg.inv(SL2_H))
        assert np.allclose(level.invs[row], SL2_H @ np.linalg.inv(SL2_G))

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_word_levels(self, rank, rng):
        self._check_word_levels(rank, rank + 1, 4, subgroup.WORD_BLOCK, rng)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_word_levels_small_block(self, rank, rng, monkeypatch):
        # a block far below a level's size splits every level into many blocks
        monkeypatch.setattr(subgroup, "WORD_BLOCK", 7)
        self._check_word_levels(rank, rank + 1, 4, 7, rng)

    def test_word_levels_children_straddle_a_cut(self, rng):
        # rank 3 has 3,750 words of length 5, five children per word of length 4,
        # and 2,916 = 5 * 583 + 1: word 583's children fall into two blocks
        levels = self._check_word_levels(3, 3, 5, subgroup.WORD_BLOCK, rng)
        cuts = [lv.parent for lv in levels if lv.letters.shape[1] == 5]
        assert len(cuts) == 2 and cuts[0][-1] == cuts[1][0] == 583

    @pytest.mark.parametrize("rank, n, short, deep", [(2, 2, 8, 10), (2, 3, 8, 10), (3, 3, 5, 7)])
    def test_deeper_walk_holds_the_shorter_walk(self, rank, n, short, deep, rng):
        # word_checks walks once to the longest length its scans ask for: the
        # blocks of lengths <= short in the deeper walk are the shorter walk's,
        # in order and bit for bit; their depth-first ranks also count the
        # deeper words, so they differ in value but keep their order
        pres = FreeGroupPresentation(tuple(random_sl(rng, n) for _ in range(rank)))
        walked = [chain[-1] for chain in word_levels(pres, short)]
        held = [chain[-1] for chain in word_levels(pres, deep) if len(chain) <= short]
        assert len(held) == len(walked) > short  # some length comes in several blocks
        for a, b in zip(walked, held):
            for name in ("letters", "mats", "invs", "logdets", "parent"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.shape == y.shape, name
                assert np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes(), name
        order = [np.argsort(np.concatenate([lv.dfs for lv in levels])) for levels in (walked, held)]
        assert np.array_equal(*order)

    def test_top_read_goes_only_to_frame_readers(self, sl2_pres):
        # a batch's list ends with its products, inverses and top read only where a scan
        # it is sent to takes the frame: a frame reader to length 3 beside a scan to
        # length 4 that takes none.  Lengths 1-4 of a rank-2 walk, 160 words, are one
        # batch, sent to each scan up to its own length, with those lengths' rows
        seen = []

        def scan(length, frames):
            while isinstance(batch := (yield length, frames), list):
                seen.append((frames, [len(chain) for chain in batch[0]], len(batch[1]),
                             len(batch)))
            yield frames

        subgroup.word_checks(sl2_pres, FACE2, [scan(4, False), scan(3, True)])
        assert sorted(seen) == [(False, [1, 2, 3, 4], 160, 4), (True, [1, 2, 3], 52, 5)]
        seen.clear()
        subgroup.word_checks(sl2_pres, FACE2, [scan(4, False)])
        assert seen == [(False, [1, 2, 3, 4], 160, 4)]

    @pytest.mark.parametrize("name, inverse_lengths", [
        ("sl2-schottky", {1, 2, 3, 4}), ("sanov-unipotent", {1, 2, 3, 4}),
        ("sl3-symsq-schottky", set(range(1, 9)))])
    def test_inverses_formed_only_where_read(self, name, inverse_lengths, monkeypatch):
        # at n = 2 only morse's prefixes, of length <= morse_depth // 2 = 4, read an inverse;
        # at n = 3 the logs read every block's.  Only morse reads letters, to morse_depth = 8;
        # uru, to depth 10 on sl2-schottky and sanov-unipotent, names its witnesses by rank.
        # The products, log|det|s, parents and ranks are the full walk's bit for bit, and so
        # is every inverse and letter row formed
        cfg = load_config(bundled_config_path(name))
        pres, face = cfg.presentation(), cfg.face_type()
        walked, walk = [], word_levels

        def recorded(*args):
            for chain in walk(*args):
                walked.append((len(chain), chain[-1]))
                yield chain

        monkeypatch.setattr(subgroup, "word_levels", recorded)
        subgroup.word_checks(pres, face, [subgroup._uru_scan(pres, face, cfg.depth),
                                          subgroup._morse_scan(pres, face, cfg.morse_depth)])
        full = [chain[-1] for chain in walk(pres, max(cfg.depth, cfg.morse_depth))]
        assert len(walked) == len(full)
        assert {el for el, a in walked if a.letters is None} == set(
            range(cfg.morse_depth + 1, cfg.depth + 1))
        for (el, a), b in zip(walked, full):
            assert (a.invs is None) == (el not in inverse_lengths)
            assert (a.letters is None) == (el > cfg.morse_depth)
            self._assert_same_block(a, b)

    @pytest.mark.parametrize("inverse_length, letter_length", [
        (None, 0), (None, 3), (2, 5), (0, 7), (6, None)])
    @pytest.mark.parametrize("block", [7, subgroup.WORD_BLOCK])
    def test_letters_formed_only_to_the_bound(self, inverse_length, letter_length, block, rng,
                                              monkeypatch):
        # a rank-2 walk to 6 and a rank-3 walk to 5: the blocks past letter_length carry no
        # letters, and every other array is the full walk's bit for bit, in blocks that
        # split every length and in blocks that hold whole short lengths
        monkeypatch.setattr(subgroup, "WORD_BLOCK", block)
        for rank, length in ((2, 6), (3, 5)):
            pres = FreeGroupPresentation(tuple(random_sl(rng, 3) for _ in range(rank)))
            bounded = list(word_levels(pres, length, inverse_length, letter_length))
            full = list(word_levels(pres, length))
            assert len(bounded) == len(full)
            bound = length if letter_length is None else letter_length
            for chain, other in zip(bounded, full):
                a, b = chain[-1], other[-1]
                assert (a.letters is None) == (len(chain) > bound)
                if inverse_length is not None:
                    assert (a.invs is None) == (len(chain) > inverse_length)
                self._assert_same_block(a, b)

    @staticmethod
    def _assert_same_block(a, b):
        """Every array ``a`` carries is ``b``'s, bit for bit."""
        for field in subgroup.WordLevel._fields:
            x, y = getattr(a, field), getattr(b, field)
            if x is None:
                continue
            assert x.dtype == y.dtype and x.shape == y.shape, field
            assert np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes(), field

    @pytest.mark.parametrize("rank, deepest, walks", [(1, 7, (7, 9)), (2, 7, (7, 10)),
                                                       (3, 5, (5, 8))])
    def test_word_at_inverts_the_walk_ranks(self, rank, deepest, walks, rng):
        # every word to length ``deepest`` decodes from its depth-first rank in walks to two
        # lengths, whose ranks differ; a walk at its default bounds lists the letters
        pres = FreeGroupPresentation(tuple(random_sl(rng, 2) for _ in range(rank)))
        for length in walks:
            seen = 0
            for chain in word_levels(pres, length, 0):
                level = chain[-1]
                if len(chain) > deepest:
                    continue
                for letters, dfs in zip(level.letters.tolist(), level.dfs.tolist()):
                    assert subgroup._word_at(dfs, rank, length) == letters, (length, dfs)
                seen += len(level.dfs)
            assert seen == word_count(rank, deepest)

    def test_walk_without_inverses(self, sl2_pres):
        # inverse_length 0, as anosov's stratum scan walks: no block carries one
        assert all(chain[-1].invs is None for chain in word_levels(sl2_pres, 3, 0))

    @staticmethod
    def _check_word_levels(rank, n, length, block, rng):
        pres = FreeGroupPresentation(tuple(random_sl(rng, n) for _ in range(rank)))
        reference = reduced_words(rank, length)
        chains = list(word_levels(pres, length))
        levels = [chain[-1] for chain in chains]
        for chain in chains:
            assert len(chain[-1].letters) <= block
            for el, (prev, lv) in enumerate(zip(chain, chain[1:]), start=2):
                assert lv.letters.shape[1] == el
                assert np.array_equal(prev.letters[lv.parent], lv.letters[:, :-1])
            # one block per length is held: no array views a buffer larger than its block's;
            # every block carries its inverses transposed in C order, as morse's GEMMs read them
            for lv in chain:
                assert lv.invs.swapaxes(1, 2).flags.c_contiguous
                for a in lv:
                    base = a
                    while base.base is not None:
                        base = base.base
                    assert base.nbytes <= a.nbytes
        for el in range(1, length + 1):
            same = [lv for lv in levels if lv.letters.shape[1] == el]
            assert sum(len(lv.letters) for lv in same) == (word_count(rank, el)
                                                          - word_count(rank, el - 1))
            # the blocks of one length come depth first
            assert (np.diff(np.concatenate([lv.dfs for lv in same])) > 0).all()
        words = [tuple(w) for lv in levels for w in lv.letters.tolist()]
        dfs = np.concatenate([lv.dfs for lv in levels])
        assert sorted(dfs.tolist()) == list(range(len(reference)))
        assert [words[k] for k in np.argsort(dfs)] == reference
        for lv in levels:
            for letters, m, mi in zip(lv.letters.tolist(), lv.mats, lv.invs):
                assert np.array_equal(m, word_product(pres, letters))
                inv = np.eye(n)
                for lt in letters:
                    inv = pres.letter_matrix(-lt) @ inv
                assert np.array_equal(mi, inv)
        return levels


class TestUru:
    def test_sl2_schottky_passes(self, sl2_pres):
        rep = uru_check(sl2_pres, FACE2, 10)
        assert rep.verdict
        assert rep.constants["c_certificate"] > 1.0
        # rank one: the wall margin ratio is identically one
        assert rep.constants["uniform_ratio_min"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("pres_name, length", [("sl2_pres", 5), ("sl3_pres", 4)])
    def test_witnesses_tie_to_the_first_word(self, request, pres_name, length):
        # the generators are conjugate, so words tie in pairs: each witness is
        # the first word depth first within TIE_RTOL of the least value, and
        # per_length_min publishes that word's own distance
        pres = request.getfixturevalue(pres_name)
        rep = uru_check(pres, FaceType.full(pres.n), length)
        words = reduced_words(pres.rank, length)
        dist = {w: np.linalg.norm(exact_centered_logs([pres.letter_matrix(lt) for lt in w], 40))
                for w in words}
        for el, witness in rep.witnesses["slowest_words"].items():
            same = [w for w in words if len(w) == int(el)]
            lo = min(dist[w] for w in same)
            assert witness == list(next(w for w in same if dist[w] <= lo * (1 + 1e-12))), el
            published = rep.constants["per_length_min"][int(el) - 1]
            assert published == pytest.approx(dist[tuple(witness)], rel=1e-13)
        if pres.n == 2:  # rank one: every ratio is one, so the first tail word is the witness
            assert rep.witnesses["ratio_word"] == [1] * rep.thresholds["tail_start"]

    def test_sanov_fails_undistortion(self, sanov_pres):
        rep = uru_check(sanov_pres, FACE2, 10)
        assert not rep.verdict
        assert not rep.details["undistorted"]
        assert rep.constants["c_certificate"] < 0.05
        # sublinear growth witnessed along the generator-power probe
        probe = np.array(rep.details["probe_points"], dtype=float)
        deep = probe[probe[:, 1] >= 250]
        assert len(deep) and np.all(deep[:, 2] / deep[:, 1] < 0.05)

    def test_symmetric_square_passes(self, sl3_pres):
        rep = uru_check(sl3_pres, FACE3, 8)
        assert rep.verdict
        assert rep.constants["uniform_ratio_min"] >= 0.05


def all_record_lows(candidates, values, level):
    """uru's record rule before its tie window: every record low of a block."""
    if candidates and values.min() > (lo := min(c[0] for c in candidates)) + TIE_RTOL * abs(lo):
        return
    record = np.concatenate(([True], values[1:] < np.minimum.accumulate(values)[:-1]))
    candidates.extend((values[i], level.dfs[i]) for i in np.flatnonzero(record))


class TestUruRecords:
    # _records keeps only the record lows within a block's own tie window; the
    # witness _first_tied takes from them is the one all record lows give

    @staticmethod
    def first_tied(rule, blocks):
        candidates, start = [], 0
        for values in blocks:
            values = np.asarray(values, dtype=float)
            rows = np.arange(start, start + len(values))
            level = subgroup.WordLevel(rows[:, None], None, None, None, None, rows)
            rule(candidates, values, level)
            start += len(values)
        try:
            return repr(subgroup._first_tied(candidates))
        except ValueError as exc:  # no candidate in the window
            return type(exc)

    @pytest.mark.parametrize("blocks", [
        [[3.0, 1.0, 2.0, 1.0], [1.0, 0.5, 0.5], [0.5, 0.7]],  # exact ties, within and across
        [[2.0, 1.0 + TIE_RTOL, 1.0, 1.0 + TIE_RTOL]],  # a tie at the window's edge
        [[1.0, 1.0 + TIE_RTOL], [np.nextafter(1.0 + TIE_RTOL, 2.0), 1.0]],  # and just past it
        [[0.0, 0.0], [0.0]],
        [[np.inf, np.inf], [5.0, np.inf]],
        [[2.0, np.nan, 1.0], [3.0, 1.5]],  # a NaN ends a block's running minimum
        [[np.nan, 2.0], [1.0]],
        [[3.0, 2.0], [np.nan, 1.0]],
        [[np.nan], [np.nan, 1.0]],
        [[-2.0, -2.0 + 2 * TIE_RTOL, -2.0 * (1 - TIE_RTOL)], [-1.0]],  # negative values
        # near ties: a later block's least within the window of an earlier block's record
        [[1.0 + 0.5 * TIE_RTOL, 3.0], [2.0, 1.0], [1.0 + TIE_RTOL, 1.0 - TIE_RTOL]],
        [[np.nextafter(1.0 + TIE_RTOL, 0.0)], [1.0]],  # just inside the window's edge
        [[1.0 + 2 * TIE_RTOL, 1.0 + TIE_RTOL], [1.0, 1.0 + 0.5 * TIE_RTOL]],
        [[1.0, 1.0 - 0.5 * TIE_RTOL], [1.0 - TIE_RTOL], [1.0 - 1.5 * TIE_RTOL]],  # a falling chain
    ])
    def test_window_keeps_the_witness(self, blocks):
        assert self.first_tied(subgroup._records, blocks) == self.first_tied(all_record_lows, blocks)

    def test_window_keeps_the_witness_on_random_blocks(self, rng):
        for _ in range(200):
            # values on a coarse grid, scaled near 1, so that ties and near-ties are common
            sizes = rng.integers(1, 8, size=rng.integers(1, 5))
            blocks = [1.0 + TIE_RTOL * rng.integers(0, 4, size=k) * rng.choice([0.5, 1.0])
                      for k in sizes]
            got = self.first_tied(subgroup._records, blocks)
            assert got == self.first_tied(all_record_lows, blocks), blocks

    def test_only_the_tie_window_is_kept(self):
        candidates = []
        self.first_tied(lambda c, v, lv: subgroup._records(candidates, v, lv),
                        [[5.0, 4.0, 3.0, 1.0 + TIE_RTOL, 1.0]])
        assert [c[1] for c in candidates] == [3, 4]

    def test_empty_block(self):
        candidates = []
        level = subgroup.WordLevel(np.zeros((0, 1), dtype=np.int8), None, None, None, None,
                                   np.zeros(0, dtype=np.intp))
        subgroup._records(candidates, np.zeros(0), level)
        assert candidates == []

    @pytest.mark.parametrize("block", [7, 40, subgroup.WORD_BLOCK])
    def test_tail_ties_across_lengths(self, block, rng, monkeypatch):
        # uru's tail records come from the blocks of several lengths in walk order, where a
        # deeper block's ranks fall between those of two blocks of the length above it: the
        # witness is the first word depth first within TIE_RTOL of the least over all the
        # words, and its letters decode from its rank in the walk
        monkeypatch.setattr(subgroup, "WORD_BLOCK", block)
        pres = FreeGroupPresentation((SL2_G, SL2_H))
        levels = [chain[-1] for chain in word_levels(pres, 6, 0) if len(chain) >= 4]
        for _ in range(50):
            # values near 1 on a coarse grid of TIE_RTOL / 2, so that near-ties are common
            values = [1.0 + 0.5 * TIE_RTOL * rng.integers(0, 6, size=len(lv.dfs))
                      for lv in levels]
            candidates = []
            for lv, v in zip(levels, values):
                subgroup._records(candidates, v, lv)
            value, rank = subgroup._first_tied(candidates)
            v, dfs = np.concatenate(values), np.concatenate([lv.dfs for lv in levels])
            tied = v <= v.min() + TIE_RTOL * abs(v.min())
            first = np.flatnonzero(tied)[np.argmin(dfs[tied])]
            assert (value, rank) == (v[first], dfs[first])
            words = [w for lv in levels for w in lv.letters.tolist()]
            assert subgroup._word_at(rank, 2, 6) == words[first]


URU_WALKS = [(name, move) for name in ("sl2-schottky", "sl3-symsq-schottky", "sanov-unipotent")
             for move in (None, "rotation", "swap", "inversion")] + [("torus-3", None)]


@pytest.mark.parametrize("name, move", URU_WALKS,
                         ids=[f"{name}-{move}" if move else name for name, move in URU_WALKS])
def test_uru_witnesses_decode_to_the_walk_letters(name, move, monkeypatch):
    # beside morse the walk forms letters only to morse_depth, and uru decodes its
    # witnesses from their ranks: uru's and morse's reports are byte for byte those of a
    # walk that forms every letter, and each decoded witness is the letters that walk
    # lists at its rank
    if name == "torus-3":
        pres, face, depth, morse_depth = torus_pres(3.0), FACE2, 10, 8
    else:
        cfg = load_config(bundled_config_path(name))
        face, depth, morse_depth = cfg.face_type(), cfg.depth, cfg.morse_depth
        gens = cfg.presentation().generators
        pres = FreeGroupPresentation(tuple(gens if move is None else dict(same_group(gens))[move]))

    def reports():
        scans = [subgroup._uru_scan(pres, face, depth),
                 subgroup._morse_scan(pres, face, morse_depth)]
        return [dumps(rep.as_dict()) for rep in subgroup.word_checks(pres, face, scans)]

    bounded = reports()
    walk, decode, listed, decoded = word_levels, subgroup._word_at, {}, []

    def every_letter(pres, length, inverse_length=None, letter_length=None):
        for chain in walk(pres, length, inverse_length):
            listed.update(zip(chain[-1].dfs.tolist(), chain[-1].letters.tolist()))
            yield chain

    def word_at(dfs, rank, length):
        decoded.append((decode(dfs, rank, length), listed[dfs]))
        return decoded[-1][0]

    monkeypatch.setattr(subgroup, "word_levels", every_letter)
    monkeypatch.setattr(subgroup, "_word_at", word_at)
    assert reports() == bounded
    assert len(decoded) == depth + 1 and all(a == b for a, b in decoded)


class TestMorse:
    def test_cyclic_geodesic_orbit(self):
        pres = FreeGroupPresentation((SL2_G,))
        rep = morse_check(pres, FACE2, 8)
        assert rep.verdict
        assert rep.constants["rho"] <= 1e-9

    def test_sl3_stability(self, sl3_pres):
        rep = morse_check(sl3_pres, FACE3, 8, rho_cap=2.0)
        assert rep.verdict
        curve = np.asarray(rep.constants["rho_by_length"])
        assert abs(curve[7] - curve[5]) <= 0.25

    def test_length_below_two_rejected(self, sl2_pres):
        with pytest.raises(ValueError, match="length >= 2"):
            morse_check(sl2_pres, FACE2, 1)

    def test_shared_axis_fails(self):
        u = np.array([[1.0, 1.0], [0.0, 1.0]])
        pres = FreeGroupPresentation((SL2_G, u @ SL2_G @ np.linalg.inv(u)))
        rep = morse_check(pres, FACE2, 8, rho_cap=1.0)
        assert not rep.verdict
        assert rep.constants["rho"] > 2.0

    def test_conjugation_invariance(self, sl2_pres, rng):
        # the fitted constants are base-point quantities; conjugating the
        # group moves the base point by at most d(o, q.o), so verdicts
        # agree once the cap absorbs twice that displacement
        from oracles import act_point, riemannian_distance

        q = random_sl(rng, 2, scale=0.2)
        shift = riemannian_distance(np.eye(2), act_point(q, np.eye(2)))
        conj = FreeGroupPresentation(tuple(q @ g @ np.linalg.inv(q)
                                           for g in sl2_pres.generators))
        base = morse_check(sl2_pres, FACE2, 6, rho_cap=1.6)
        moved = morse_check(conj, FACE2, 6, rho_cap=1.6)
        assert base.verdict == moved.verdict
        assert abs(moved.constants["rho"] - base.constants["rho"]) <= 2 * shift + 0.1
        base_uru = uru_check(sl2_pres, FACE2, 6)
        moved_uru = uru_check(conj, FACE2, 6)
        assert base_uru.verdict == moved_uru.verdict

    def test_each_configuration_read_once(self, sl2_pres, sl3_pres, monkeypatch):
        # a word of length L is read at its prefixes t <= L/2 only, each from the
        # nearer tip, and none for the tip.  The walk to 7 comes in two batches:
        # lengths 1-6, 1,456 words, then the 2,916 of length 7.  A batch takes one
        # frame call on its words, then one factored_coords_pair bound pass per
        # prefix length t, longest first, on every word of length >= 2t.  The first
        # batch comes before any floor is set, so each pass reads both sides of its
        # rows in one kernel call, 3,828 configurations in all.  A later batch makes
        # its exact off reads after its last pass, at most one kernel call per side:
        # at n = 3 one on the side of the smaller bound, then one on the other side,
        # at n = 2 one on both sides
        events = []
        frame, coords = subgroup._two_sided_frame, subgroup.factored_coords_pair
        kernel = symmspace._whitened_off
        monkeypatch.setattr(subgroup, "_two_sided_frame",
                            lambda m, *args: events.append(("frame", len(m))) or frame(m, *args))
        monkeypatch.setattr(subgroup, "factored_coords_pair",
                            lambda w, *args: events.append(("pass", len(w))) or coords(w, *args))
        monkeypatch.setattr(symmspace, "_whitened_off",
                            lambda m: events.append(("read", m.shape[:-2])) or kernel(m))

        def size(el):
            return 4 * 3 ** (el - 1)

        assert sum(el // 2 * size(el) for el in range(2, 7)) == 3828
        assert sum(el // 2 * size(el) for el in range(2, 8)) == 12576
        # the off distance is read exactly on every configuration of the first batch,
        # and at length 7 only where its bound reaches the floor: at n = 3 1,944 of
        # 8,748 on their first side and 48 on both, at n = 2 48 on both (the walk is
        # deterministic)
        for pres, face, read in ((sl3_pres, FACE3, (5772, 3876)), (sl2_pres, FACE2, (3876, 3876))):
            events.clear()
            rep = morse_check(pres, face, 7)
            assert rep.details["vanishing_gap_count"] == 0
            batches = []  # per batch: its events, from its frame call on
            for event in events:
                if event[0] == "frame":
                    batches.append([])
                batches[-1].append(event)
            assert len(batches) == 2
            sides = [0, 0]  # configurations read on their first side, and on their second
            for calls, lengths in zip(batches, (range(1, 7), range(7, 8))):
                assert calls[0] == ("frame", sum(size(el) for el in lengths))
                rows = [sum(size(el) for el in lengths if el >= 2 * t)
                        for t in range(lengths[-1] // 2, 0, -1)]
                if lengths[0] == 1:
                    assert calls[1:] == [call for r in rows for call in (("pass", r),
                                                                         ("read", (2, r)))]
                    sides = [x + sum(rows) for x in sides]
                    continue
                assert calls[1:1 + len(rows)] == [("pass", r) for r in rows]
                reads = [shape for _, shape in calls[1 + len(rows):]]
                assert all(kind == "read" for kind, _ in calls[1 + len(rows):])
                if face.n == 2:
                    assert len(reads) <= 1 and all(r[0] == 2 for r in reads)
                    sides = [x + sum(r[1] for r in reads) for x in sides]
                else:
                    assert len(reads) <= 2 and all(len(r) == 1 for r in reads)
                    for k, r in enumerate(reads):
                        sides[k] += r[0]
            assert tuple(sides) == read

    def test_flat_model_morse(self, sl2_pres):
        # the chamber path of a passing orbit ray passes the flat version
        # of the diamond test with comparable constants
        rep = morse_check(sl2_pres, FACE2, 8, rho_cap=1.0)
        rho = rep.constants["rho"]
        mats = sample_rays(sl2_pres, 1, 10, seed=3, face=FACE2).prefixes[0]
        deltas = []
        for m in mats:
            s = np.linalg.svd(m, compute_uv=False)
            logs = np.log(s)
            deltas.append(logs - logs.mean())
        worst = 0.0
        for i in range(len(deltas)):
            for j in range(i + 1, len(deltas)):
                for t in range(i, j + 1):
                    fwd = flat_cone_deficit(deltas[t] - deltas[i], FACE2)
                    bwd = flat_cone_deficit(deltas[j] - deltas[t], FACE2)
                    worst = max(worst, fwd, bwd)
        assert worst <= rho + 0.5


# Diamond queries checked per bundled config by the cross-check below.
CROSS_CHECKED = {"sl2-schottky": 394, "sl3-symsq-schottky": 9, "sanov-unipotent": 452}


@pytest.mark.parametrize("name", sorted(CROSS_CHECKED))
def test_deficit_agrees_with_diamond_queries(name):
    # The deficit and the diamond query are independent routes to
    # membership.  Sample every 29th regular word of a first-letter branch,
    # counted depth first, whose top singular value is below 1e6, and query
    # its midpoint (prefix length L // 2) in the word's diamond: a member
    # must have deficit at most 0.25, a non-member a deficit of at least 1e-8.
    cfg = load_config(bundled_config_path(name))
    pres, face = cfg.presentation(), cfg.face_type()
    depth = cfg.options["morse_depth"]
    dims = np.array(face.dims)
    parts = []  # per block: depth-first ranks, first letters, regular mask
    for chain in word_levels(pres, depth):
        lv = chain[-1]
        x = _two_sided_logs(lv.mats, lv.invs, lv.logdets)
        parts.append((lv.dfs, lv.letters[:, 0],
                      ~((x[:, dims - 1] - x[:, dims]).min(axis=1) < GAP_TOL)))
    dfs, first, regular = (np.concatenate(col) for col in zip(*parts))
    order = np.argsort(dfs)
    count = np.empty(len(dfs), dtype=int)
    for lt in np.unique(first):
        branch = order[first[order] == lt]
        count[branch] = np.cumsum(regular[branch])
    sampled = dfs[regular & (count % 29 == 0)]

    checked = failed = 0
    for chain in word_levels(pres, depth):
        level, el = chain[-1], len(chain)
        if el < 2:
            continue
        u = _two_sided_frame(level.mats, level.invs)
        logs = _two_sided_logs(level.mats, level.invs, level.logdets)
        top = np.linalg.svd(level.mats, compute_uv=False)[:, 0]
        for i in np.flatnonzero(np.isin(level.dfs, sampled) & (top < 1e6)):
            j = i
            for t in range(el, el // 2, -1):
                j = chain[t - 1].parent[j]
            m, mid, mid_inv = level.mats[i], chain[el // 2 - 1].mats[j], chain[el // 2 - 1].invs[j]
            try:
                dia = make_diamond(np.eye(pres.n), m @ m.T, face, tol=GAP_TOL)
                member, _ = diamond_query(mid @ mid.T, dia, tol=0.25)
            except (IllConditioned, VanishingGap):
                continue
            deficit = segment_deficits(u[i], logs[i], [(mid, mid_inv)], face)[0]
            checked += 1
            failed += bool(deficit > 0.25 if member else deficit < 1e-8)
    assert (checked, failed) == (CROSS_CHECKED[name], 0)


@pytest.mark.parametrize("name", ["sl2-schottky", "sl3-symsq-schottky"])
def test_reports_do_not_depend_on_the_word_block(name, monkeypatch):
    # uru and morse give every word the same arithmetic in any block, so
    # a cap of a few words, one that cuts siblings apart, and one above
    # the whole tree all publish the default cap's reports byte for byte
    cfg = load_config(bundled_config_path(name))
    pres, face = cfg.presentation(), cfg.face_type()

    def reports():
        return [dumps(rep.as_dict())
                for rep in (uru_check(pres, face, 6), morse_check(pres, face, 5))]

    expected = reports()
    for block in (3, 5, word_count(pres.rank, 6) + 1):
        monkeypatch.setattr(subgroup, "WORD_BLOCK", block)
        assert reports() == expected, block


@pytest.mark.parametrize("depth", [12, 48])
@pytest.mark.parametrize("name", ["sl2-schottky", "sl3-symsq-schottky", "sanov-unipotent"])
def test_limit_reports_do_not_depend_on_the_conical_block(name, depth, monkeypatch):
    # every conical read takes the same arithmetic in any block, and a ray's
    # sup is the running maximum over the blocks: one read position per block
    # (a cap of the ray count), the default cap and one block for all reads
    # publish the same report byte for byte
    cfg = load_config(bundled_config_path(name))
    pres, face = cfg.presentation(), cfg.face_type()
    sample = sample_rays(pres, 200, depth, 1, face)

    def report():
        return dumps(limit_report(pres, face, sample).as_dict())

    expected = report()
    for block in (200, sys.maxsize):
        monkeypatch.setattr(subgroup, "CONICAL_BLOCK", block)
        assert report() == expected, block


def test_limit_working_set_is_bounded_at_depth():
    # the conical read forms one block of at most CONICAL_BLOCK configurations
    # at a time: at 200 rays of depth 96 limit's traced peak stays below 10 MB,
    # where all 36,800 reads at once took 52 MB
    cfg = load_config(bundled_config_path("sl3-symsq-schottky"))
    pres, face = cfg.presentation(), cfg.face_type()
    sample = sample_rays(pres, 200, 96, 1, face)
    tracemalloc.start()
    try:
        limit_report(pres, face, sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


def test_anosov_working_set_is_bounded_at_depth():
    # anosov forms only the inverse letters' matrices, folds its chain of differentials
    # into the single-letter ones in place and frees them before the stratum scan: at
    # 200 rays of depth 96 its traced peak stays below 10 MB, where the forward letters,
    # the chain list and its stacked copy took 13.3 MB
    cfg = load_config(bundled_config_path("sl3-symsq-schottky"))
    pres, face = cfg.presentation(), cfg.face_type()
    sample = sample_rays(pres, 200, 96, 1, face)
    tracemalloc.start()
    try:
        anosov_check(pres, face, sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak



@pytest.mark.parametrize("name, peak_mib", [("sl2-schottky", 3.25), ("sl3-symsq-schottky", 4.0)])
def test_word_checks_working_set_is_one_block(name, peak_mib):
    # a batch of short lengths never holds more words than a block: word_checks' traced
    # peak, uru at the config's depth beside morse at 8, stays within 3% of the one-block
    # walk's, 3.15 MiB on sl2-schottky and 3.89 MiB on sl3-symsq-schottky; a first batch
    # that also took length 7 (4,372 words) peaked at 6.55 MiB on sl3
    cfg = load_config(bundled_config_path(name))
    pres, face = cfg.presentation(), cfg.face_type()

    def run():
        subgroup.word_checks(pres, face, [subgroup._uru_scan(pres, face, cfg.depth),
                                          subgroup._morse_scan(pres, face, 8)])

    run()  # the kernels' cached tables are built once, outside the trace
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_mib * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("name", ["sl2-schottky", "sl3-symsq-schottky", "sanov-unipotent",
                                  "rank-3"])
def test_word_reports_do_not_depend_on_the_batch(name, monkeypatch):
    # word_checks reads runs of whole short lengths as one batch, and each later
    # block alone: at WORD_BLOCK 2,916 and 1,458 lengths 1-6 at rank 2 and 1-4 at
    # rank 3, at 40 lengths 1-2, at 7 length 1 alone.  uru's and morse's reports are
    # byte for byte those of the walk read one block at a time, morse's first batch
    # read at a floor of -inf and the lengths after it at the floors it sets
    if name == "rank-3":  # three random generators of SL(3, R)
        rng = np.random.default_rng(3)
        pres = FreeGroupPresentation(tuple(random_sl(rng, 3) for _ in range(3)))
        face, depth = FACE3, 5
    else:
        cfg = load_config(bundled_config_path(name))
        pres, face, depth = cfg.presentation(), cfg.face_type(), 7

    def reports():
        scans = [subgroup._uru_scan(pres, face, depth), subgroup._morse_scan(pres, face, depth)]
        return [dumps(rep.as_dict()) for rep in subgroup.word_checks(pres, face, scans)]

    batches = subgroup._batches
    with monkeypatch.context() as m:
        m.setattr(subgroup, "_batches", lambda chains, rank: ([chain] for chain in chains))
        expected = reports()
    whole = [1, 2, 3, 4, 5, 6] if pres.rank == 2 else [1, 2, 3, 4]
    for block, lengths in ((7, [1]), (40, [1, 2]), (1458, whole), (2916, whole)):
        monkeypatch.setattr(subgroup, "WORD_BLOCK", block)
        first = next(batches(word_levels(pres, depth), pres.rank))
        assert [len(chain) for chain in first] == lengths
        assert reports() == expected, block

@pytest.mark.parametrize("name, kept, length", [
    ("sl2-schottky", None, 8), ("sl3-symsq-schottky", None, 8), ("sanov-unipotent", None, 8),
    ("sl3-symsq-schottky", None, 9), ("sl3-symsq-schottky", [1], 7)],
    ids=["sl2-8", "sl3-8", "sanov-8", "sl3-9", "sl3-face1-7"])
def test_morse_reports_do_not_depend_on_the_floor(name, kept, length, monkeypatch):
    # an off distance read as its bound, or as one side's read, lies below the
    # floor, so it can neither be the worst deficit at any length nor tie with
    # it: morse publishes the same report byte for byte with the floor forced
    # to -inf, the full read, which depends on no block size, and with the
    # floor in blocks of 7 words, where floors rise block by block across
    # interleaved lengths, of 1,458 or of WORD_BLOCK
    cfg = load_config(bundled_config_path(name))
    pres = cfg.presentation()
    face = cfg.face_type() if kept is None else FaceType.make(3, kept)
    coords = subgroup.factored_coords_pair

    def report():
        return dumps(morse_check(pres, face, length).as_dict())

    with monkeypatch.context() as m:
        m.setattr(subgroup, "factored_coords_pair",
                  lambda w, winv, face, floor, pending: coords(w, winv, face))
        expected = report()
    for block in (7, 1458, subgroup.WORD_BLOCK):
        monkeypatch.setattr(subgroup, "WORD_BLOCK", block)
        assert report() == expected, block


# The rays of the rotation pair (depth 8, 12 rays, seed 3) that have an
# irregular prefix, in sample order, named by their first 8 letters.
IRREGULAR_LIMIT_RAYS = [
    [2, 2, 2, 2, 2, 2, 2, 2],
    [-2, -2, -2, -2, -2, -2, -2, -2],
    [-2, 1, 1, 1, 1, -2, -2, -1],
    [2, 2, 1, 1, 2, -1, -2, -1],
    [-2, 1, 1, 2, -1, -2, -2, 1],
    [2, -1, 2, 2, 2, 1, 2, -1],
    [2, 2, -1, 2, 2, -1, 2, 1],
    [2, -1, 2, -1, -1, 2, 2, 1],
]


@pytest.fixture(scope="module")
def rotation_pres():
    """A hyperbolic element and a rotation by 1 rad: some rays are irregular."""
    rot = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
    return FreeGroupPresentation((np.diag([2.0, 0.5]), rot))


def test_two_sided_logs_descend_on_rotations(rotation_pres):
    # at n = 2 d_1 = log s_1 - log|det| / 2 reads down to -4.2e-17 on the rotation's first
    # powers, whose s_1 and |det| round to either side of 1: clamped, no log pair ascends,
    # and the rotation letters read a gap of exactly 0
    for chain in word_levels(rotation_pres, 8):
        level = chain[-1]
        logs = _two_sided_logs(level.mats, level.invs, level.logdets)
        assert (logs[:, 0] >= logs[:, 1]).all(), len(chain)
        if len(chain) == 1:
            rotation = np.abs(level.letters[:, 0]) == 2
            assert (logs[rotation, 0] - logs[rotation, 1] == 0.0).all()


@pytest.mark.parametrize("name, length", [("sl2-schottky", 10), ("sanov-unipotent", 10),
                                          ("rotation", 8)])
def test_log_norms_are_row_norms(name, length, rotation_pres):
    # the n = 2 closed form sqrt(2 (x x)) of a log pair (x, -x) is row_norms' dot product,
    # bit for bit, down to the rotation words' gap of exactly 0
    pres = rotation_pres if name == "rotation" else load_config(bundled_config_path(name)).presentation()
    zeros = 0
    for chain in word_levels(pres, length, 0):
        level = chain[-1]
        logs = _two_sided_logs(level.mats, None, level.logdets)
        assert subgroup._log_norms(logs).tobytes() == row_norms(logs).tobytes(), len(chain)
        zeros += int((logs[:, 0] == 0.0).sum())
    assert (zeros > 0) == (name == "rotation")


class TestLimitReport:
    def test_sl2(self, sl2_pres):
        rep = limit_report(sl2_pres, FACE2, sample_rays(sl2_pres, 50, 12, 7, FACE2))
        assert rep.verdict
        assert rep.constants["antipodality_margin"] > 0.01
        assert rep.details["all_conical"]

    def test_sl3(self, sl3_pres):
        rep = limit_report(sl3_pres, FACE3, sample_rays(sl3_pres, 50, 12, 7, FACE3))
        assert rep.verdict
        assert rep.constants["antipodality_margin"] > 0.01
        assert rep.details["all_conical"]

    def test_needs_iota_invariant_face(self, sl3_pres):
        face = FaceType.make(3, [1])
        with pytest.raises(ValueError, match="iota-invariant"):
            limit_report(sl3_pres, face, sample_rays(sl3_pres, 10, 8, 0, face))

    def test_irregular_rays_fail(self, rotation_pres):
        # every ray with a prefix of singular-value gap 0 is a failure,
        # named in sample order: the rotation's two power rays first
        rep = limit_report(rotation_pres, FACE2, sample_rays(rotation_pres, 12, 8, 3, FACE2))
        assert not rep.verdict
        assert [f["letters"] for f in rep.witnesses["failures"]] == IRREGULAR_LIMIT_RAYS
        assert {f["reason"] for f in rep.witnesses["failures"]} == {
            "log singular-value gap 0.000e+00 below 1.0e-09"}
        assert len(rep.details["rays"]) == 12 - len(IRREGULAR_LIMIT_RAYS)


def test_deep_products_read_no_one_sided_flag(monkeypatch):
    # limit and anosov read every deep product two-sided; attractive_flag is
    # left to single shallow matrices
    def one_sided(*args, **kwargs):
        raise AssertionError("a deep product read through attractive_flag")

    for module in (subgroup, dynamics):
        monkeypatch.setattr(module, "attractive_flag", one_sided)
    cfg = load_config(bundled_config_path("sl3-symsq-schottky"))
    pres, face = cfg.presentation(), cfg.face_type()
    sample = sample_rays(pres, cfg.ray_count, cfg.ray_depth, cfg.seed, face)
    assert limit_report(pres, face, sample).verdict
    assert anosov_check(pres, face, sample).verdict


class TestAnosov:
    def test_sl2_uniform(self, sl2_pres):
        rep = anosov_check(sl2_pres, FACE2, sample_rays(sl2_pres, 50, 12, 7, FACE2))
        assert rep.verdict
        assert rep.constants["C"] > 0
        assert rep.constants["max_slope_deviation"] <= 0.2
        power = [r for r in rep.details["rays"] if r["scheme"] == "power"][0]
        assert power["slope"] == pytest.approx(2 * np.log(4.0), rel=1e-2)

    def test_sanov_not_uniform(self, sanov_pres):
        rep = anosov_check(sanov_pres, FACE2, sample_rays(sanov_pres, 50, 12, 7, FACE2))
        assert not rep.verdict
        power = [r for r in rep.details["rays"] if r["scheme"] == "power"][0]
        assert power["slope"] < 0.5  # sublinear growth flattens the fit

    def test_needs_depth_three(self, sl2_pres):
        # at depth 2 the slope would be fitted on a single prefix
        with pytest.raises(ValueError, match="depth >= 3"):
            anosov_check(sl2_pres, FACE2, sample_rays(sl2_pres, 4, 2, 0, FACE2))

    def test_irregular_rays_skipped(self, rotation_pres):
        # rays irregular at the deepest tested prefix are counted, not fitted
        rep = anosov_check(rotation_pres, FACE2, sample_rays(rotation_pres, 12, 8, 3, FACE2))
        assert rep.constants["irregular_rays"] == 2
        assert len(rep.details["rays"]) == 10
        assert not rep.verdict

    def test_cea_expansion(self, sl2_pres):
        rep = anosov_check(sl2_pres, FACE2, sample_rays(sl2_pres, 20, 10, 3, FACE2))
        assert rep.details["cea"]
        for rec in rep.details["cea_records"]:
            assert rec["best_eps"] > 1.05

    @pytest.mark.parametrize("pres_name", ["sl2_pres", "sl3_pres"])
    def test_cea_records_are_first_maxima(self, request, pres_name):
        # each ray's stratum-expansion witness is the first word, depth first,
        # of greatest expansion at the ray's limit flag among the reduced
        # words of length <= CEA_DEPTH; the limit flag is the tail flag of the
        # whole ray, BETA_PAD letters past the tested prefixes
        pres = request.getfixturevalue(pres_name)
        face = FaceType.full(pres.n)
        sample = sample_rays(pres, 20, 10, 3, face)
        rep = anosov_check(pres, face, sample)
        words = reduced_words(pres.rank, subgroup.CEA_DEPTH)
        mats = [word_product(pres, w) for w in words]
        rays, records = rep.details["rays"], rep.details["cea_records"]
        assert len(records) == len(rays) == 20
        for ray, rec, letters, frame in zip(rays, records, sample.letters.tolist(),
                                            sample.tails.frame[:, 0]):
            assert ray["letters"] == letters
            eps = [expansion_factor(m, Flag(face, frame)) for m in mats]
            k = eps.index(max(eps))
            assert rec["letters"] == ray["letters"]
            assert rec["best_word"] == list(words[k]) and rec["best_eps"] == eps[k]


def test_ray_record_keys(sl2_pres):
    # the report keeps only what a verdict, a witness, the oracle or a plot reads
    limit = limit_report(sl2_pres, FACE2, sample_rays(sl2_pres, 10, 8, 1, FACE2))
    assert set(limit.constants) == {"antipodality_margin", "all_pairs_margin_min", "conical_sup"}
    assert set(limit.thresholds) == {"antipodal_floor", "conical_rho", "depth", "ray_count"}
    assert {frozenset(r) for r in limit.details["rays"]} == {frozenset(
        {"letters", "scheme", "limit_flag_frame", "conical", "conical_geometric_sup"})}
    anosov = anosov_check(sl2_pres, FACE2, sample_rays(sl2_pres, 10, 6, 1, FACE2))
    assert {frozenset(r) for r in anosov.details["rays"]} == {frozenset(
        {"letters", "scheme", "log_eps", "slope", "intercept", "max_log_eps"})}


def axis_triples():
    th = 1.1
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    fp, fm = Flag(FACE2, np.eye(2)), Flag(FACE2, np.eye(2)[:, ::-1])
    fp2, fm2 = Flag(FACE2, rot), Flag(FACE2, rot[:, ::-1])
    return [(fp, fm, 2.0), (fp2, fm2, 2.0)]


# (elements, face, options) of the ping-pong fixtures that certify
SCHOTTKY_FIXTURES = {
    "sl2-pair": ([SL2_G, SL2_H], FACE2, {}),
    "axis-triples": (axis_triples(), FACE2, {}),
    "sl4-pair": (list(sl4_pair(((0, 3, 0.9), (1, 2, 0.7)))), FaceType.make(4, [1, 3]), {"max_power": 16}),
}


class TestSchottky:
    def test_two_hyperbolics(self):
        pres, rep = schottky_build([SL2_G, SL2_H], FACE2)
        assert rep.verdict
        assert rep.constants["power"] <= 8
        assert rep.constants["worst_bound"] <= rep.constants["radius"]

    def test_shared_fixed_point(self):
        u = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(TransversalityTooSmall):
            schottky_build([SL2_G, u @ SL2_G @ np.linalg.inv(u)], FACE2)

    def test_downstream_pipeline(self):
        pres, rep = schottky_build([SL2_G, SL2_H], FACE2)
        assert uru_check(pres, FACE2, 6).verdict
        assert morse_check(pres, FACE2, 6, rho_cap=1.0).verdict
        assert anosov_check(pres, FACE2, sample_rays(pres, 12, 10, 5, FACE2)).verdict

    def test_axis_triples(self):
        pres, rep = schottky_build(axis_triples(), FACE2)
        assert rep.verdict
        assert abs(np.linalg.det(pres.generators[0]) - 1.0) < 1e-8

    @pytest.mark.parametrize("fixture", sorted(SCHOTTKY_FIXTURES))
    def test_bound_holds_on_ball_samples(self, fixture):
        # the certified bound caps the tangent of the angle to the attracting
        # flag, so no flag of a ball, out to its edge, may map farther than it;
        # and each pair's kappa, s_raw and bound are those of 50-digit arithmetic,
        # kappa to the eps * sigma_1 / sigma_n that LAPACK resolves a small
        # singular value to (9.1e-10 relative on the SL(4) pair, 4.3e-15 at n = 2);
        # worst_bound, its kappa widened by that error, is never below the exact bound
        elements, face, options = SCHOTTKY_FIXTURES[fixture]
        pres, rep = schottky_build(elements, face, **options)
        rad, worst = rep.constants["radius"], rep.constants["worst_bound"]
        signed = [m for g in pres.generators for m in (g, np.linalg.inv(g))]
        flags = [attractive_flag(h, face)[0] for h in signed]
        rng = np.random.default_rng(0)
        balls = [ball_flags(f, rad, 200, rng) for f in flags]
        assert all(0.99 * rad < dist.max() <= rad for _, dist in balls)
        bounds = []
        for idx, h in enumerate(signed):
            _, s, vt = np.linalg.svd(h)
            rel = max(1e-12, np.finfo(float).eps * s[0] / s[-1])
            for sidx, (frames, _) in enumerate(balls):
                if sidx == idx ^ 1:  # the repelling ball of h
                    continue
                assert mapped_distances(h, frames, flags[idx]).max() <= worst
                kappa, s_raw, bound = pingpong_bound_mp(h, flags[sidx], rad)
                assert max(s[d] / s[d - 1] for d in face.dims) == pytest.approx(kappa, rel=rel)
                assert min(subgroup._repelling_transversality(flags[sidx], vt, d)
                           for d in face.dims) == pytest.approx(s_raw, rel=1e-12)
                bounds.append((bound, rel))
        top, rel = max(bounds)
        assert worst >= top
        assert worst == pytest.approx(top, rel=rel)


class TestEquivalenceCrossChecks:
    def test_implications_on_fixtures(self, pipeline_runs):
        # every fixture that passes the diamond checker also passes the
        # limit-set and expansion checkers; failing undistortion forces a
        # diamond failure
        for name, run in pipeline_runs.items():
            verdicts = run["reports"]["summary"]["verdicts"]
            if verdicts["morse"]:
                assert verdicts["limit"], name
                assert verdicts["anosov"], name
            if not verdicts["uru"]:
                assert not verdicts["morse"], name

    def test_positive_controls_are_one_group(self, pipeline_runs):
        # sl3-symsq-schottky is the symmetric square of sl2-schottky: the image doubles
        # every centered log singular value, so uru's distances double, every verdict
        # agrees, and morse's deficits scale by about 2.03, the one reason rho_cap differs
        sl2, sl3 = (load_config(bundled_config_path(name))
                    for name in ("sl2-schottky", "sl3-symsq-schottky"))
        for g, g3 in zip(sl2.generators, sl3.generators, strict=True):
            assert np.abs(symmetric_square(np.asarray(g)) - np.asarray(g3)).max() <= 3e-14
        reports = [pipeline_runs[name]["reports"] for name in (sl2.name, sl3.name)]
        low, high = (np.asarray(r["uru"]["constants"]["per_length_min"][:8]) for r in reports)
        np.testing.assert_allclose(high, 2.0 * low, rtol=1e-14, atol=0.0)
        assert reports[0]["summary"]["verdicts"] == reports[1]["summary"]["verdicts"]
        low, high = (np.asarray(r["morse"]["constants"]["rho_by_length"][1:8]) for r in reports)
        assert np.all((2.0 <= high / low) & (high / low <= 2.05))

    def test_two_sided_kernels_lift_from_sl2(self):
        # the sl3 kernels' logs and frames on sl3-symsq-schottky's words are the symmetric
        # square of sl2-schottky's 2 x 2 products, read by LAPACK's SVD at any depth: every
        # word of length <= 10, then 64 random words at each longer length
        pres2, pres3 = (load_config(bundled_config_path(name)).presentation()
                        for name in ("sl2-schottky", "sl3-symsq-schottky"))

        def worst(m2, m3, minv3, logdet3):
            logs, frame = sym2_lift(m2)
            rel = np.abs(_two_sided_logs(m3, minv3, logdet3) - logs).max(axis=-1)
            dist = flag_distance(Flag(FACE3, _two_sided_frame(m3, minv3)), Flag(FACE3, frame))
            return (rel / np.abs(logs).max(axis=-1)).max(), dist.max()

        errors = []
        for chain2, chain3 in zip(word_levels(pres2, 10), word_levels(pres3, 10), strict=True):
            level2, level3 = chain2[-1], chain3[-1]
            assert np.array_equal(level2.letters, level3.letters)
            errors.append(worst(level2.mats, level3.mats, level3.invs, level3.logdets))
        rng = np.random.default_rng(1)
        for length in (12, 16, 24, 32):
            words = [random_word(rng, 2, length) for _ in range(64)]
            m2, m3 = (np.stack([word_product(pres, w) for w in words]) for pres in (pres2, pres3))
            minv3 = np.stack([word_product(pres3, [-lt for lt in reversed(w)]) for w in words])
            logdet3 = np.array([sum(np.linalg.slogdet(pres3.letter_matrix(lt))[1] for lt in w)
                                for w in words])
            errors.append(worst(m2, m3, minv3, logdet3))
        log_err, flag_err = np.max(errors, axis=0)
        assert log_err <= 1e-14 and flag_err <= 1e-14, (log_err, flag_err)
