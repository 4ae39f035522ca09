"""Subgroup-level property checkers for matrix-generated free groups.

Only free groups with reduced-word geodesics are supported: reduced
words over the generators and their inverses are taken as the intrinsic
geodesics of the word metric.  A boundary point is a ray, a reduced
word whose deepest prefix's flag stands in for its limit flag.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .chamber import (
    FaceType,
    iota_face,
    row_norms,
)
from . import rules
from .dynamics import flag_limits
from .errors import (
    BudgetExceeded,
    IllConditioned,
    PingPongFailed,
    TransversalityTooSmall,
    VanishingGap,
)
from .flags import (
    GAP_TOL,
    Flag,
    action_differential,
    antipodality_margin,
    attractive_flag,
    expansion_factor,
    flag_distance,
    least_singular,
    suffix_flags,
    tangent_dim,
    transversality_margin,
)
from .reports import PropertyReport
from .symmspace import (
    DET_TOL,
    _deficits,
    _read_pending,
    _top_read,
    _two_sided_frame,
    factored_coords_pair,
    log_top_singular,
    make_parallel_set,
    normalize_det,
    segment_deficits,
)

CONICAL_LOOKAHEAD = 4  # limit: letters behind and ahead of a point in its conical window
PAIR_BLOCK = 1 << 16  # limit: most screen entries, pairs or not, per block of the pair scan
CONICAL_BLOCK = 1600  # limit: most configurations, rays times reads, per block of the conical read
BETA_PAD = 8          # limit, anosov: letters a ray runs past its name, for its tail flags
CEA_DEPTH = 2         # anosov: length of the words scanned for stratum expansion
TIE_RTOL = 1e-12      # uru, morse: relative distance within which witnesses tie
WORD_BLOCK = 2916     # uru, morse: words per block of the depth-first word walk
MAX_WORDS = 2_000_000  # word walk: most words of lengths 1..length it may visit
HALF_RANGE = -0.5 * math.log(np.finfo(float).tiny)  # word walk: most |log s_i| frames may read
POWER_DEPTH = 256      # uru: deepest generator power of the orbit-growth probe


@dataclass(frozen=True)
class FreeGroupPresentation:
    """Matrix generators assumed (or certified) to generate freely.

    A ValueError names the first generator that is not a finite n x n matrix of determinant 1
    within DET_TOL.  ``table`` holds the letters -rank, ..., rank, read-only, letter l at row
    l + rank (the identity at row rank), and ``logdets`` each row's log|det|.
    """

    generators: tuple[np.ndarray, ...]
    table: np.ndarray = field(init=False, repr=False, compare=False)
    logdets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = []
        for k, g in enumerate(self.generators):
            try:
                m = np.array(g, dtype=float)
            except (TypeError, ValueError) as exc:  # ragged rows, or an entry that is no number
                raise ValueError(f"generator {k} is not a matrix of numbers") from exc
            n = len(mats[0]) if mats else len(m) if m.ndim == 2 else 0
            if not n or m.shape != (n, n):
                raise ValueError(f"generator {k} is not {n}x{n}" if mats
                                 else "generator 0 is not a nonempty square matrix")
            if not np.isfinite(m).all():  # a NaN determinant passes a tolerance test
                raise ValueError(f"generator {k} has a non-finite entry")
            if abs((det := np.linalg.det(m)) - 1.0) > DET_TOL:
                raise ValueError(f"generator {k} determinant {det:.8f} is not 1")
            mats.append(m)
        if not mats:
            raise ValueError("need at least one generator")
        table = np.concatenate([np.linalg.inv(mats)[::-1], np.eye(len(mats[0]))[None], mats])
        logdets = np.linalg.slogdet(table)[1]
        table.flags.writeable = logdets.flags.writeable = False
        object.__setattr__(self, "generators", tuple(table[len(mats) + 1:]))
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "logdets", logdets)

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def n(self) -> int:
        return self.table.shape[-1]

    def letter_matrix(self, letters) -> np.ndarray:
        """The matrix of a signed letter, or of each of an array of them, stacked (..., n, n)."""
        return self.table[letters + self.rank]


def _letter_order(rank: int) -> list[int]:
    out = []
    for i in range(1, rank + 1):
        out.extend((i, -i))
    return out


def word_count(rank: int, length: int) -> int:
    """Number of reduced words of length 1..length, or its first partial sum over MAX_WORDS."""
    if rank < 2:
        return 2 * rank * length
    total = 0
    per = 2 * rank
    for _ in range(length):
        total += per
        per *= 2 * rank - 1
        if total > MAX_WORDS:  # from rank 2 on, within 14 lengths
            break
    return total


def _subtree_sizes(rank: int, length: int) -> list[int]:
    """Entry el: words in the subtree of a word of length el, itself included, to ``length``."""
    subtree = [0] * (length + 2)
    for el in range(length, 0, -1):
        subtree[el] = 1 + (2 * rank - 1) * subtree[el + 1]
    return subtree


class WordLevel(NamedTuple):
    """A block of reduced words of one length, listed depth first.

    ``letters`` and ``invs`` are None past ``word_levels``' bounds; the other fields never are.
    """

    letters: np.ndarray | None  # (N, L) signed letters, if formed
    mats: np.ndarray     # (N, n, n) word products
    invs: np.ndarray | None  # (N, n, n) their exactly accumulated inverses, if formed
    logdets: np.ndarray  # (N,) log|det| of the products, summed letter by letter
    parent: np.ndarray   # (N,) row of each word's prefix in the previous block of its chain
    dfs: np.ndarray      # (N,) rank of each word among all words in depth-first order


def word_levels(pres: FreeGroupPresentation, length: int, inverse_length: int | None = None,
                letter_length: int | None = None):
    """All reduced words of length 1..length, as chains of blocks of at most WORD_BLOCK words.

    A depth-first walk: each chain it yields is a list whose block k holds
    words of length k + 1, its ``parent`` rows indexing block k - 1, and the
    caller reads its last block.  A block's children, the one-letter
    extensions of its rows in letter order (1, -1, 2, -2, ...), are cut into
    blocks of WORD_BLOCK words, so the blocks of one length come depth first,
    a short length is one block, and one block per length is held.  Child c
    of a block extends row c // (2 rank - 1) by the successor table's letter
    c % (2 rank - 1); every cut reads these (row, letter) pairs from one
    pattern, formed once per walk.  A word's
    product is its prefix's times its last letter g, and its inverse,
    carried transposed, m^-T g^-T: per letter, one GEMM over a cut's parents
    stacked as rows, each entry one word's own dot product in the same
    order, so both are exact products of letters, bit for bit.  Only the
    blocks of length <= ``inverse_length`` (default ``length``) carry
    ``invs``, each a transposed view of a C-contiguous array, and only those
    of length <= ``letter_length`` (default ``length``) carry ``letters``;
    the others carry None.  Their products, log|det|s, parents and ranks are
    the same bit for bit, since none of them reads an inverse or a letter
    row: a word's rank is its parent's plus 1 + c S, with S the subtree
    size of a word of its length (``_word_at`` inverts it).
    """
    if length < 1:
        raise ValueError("need length >= 1")
    if word_count(pres.rank, length) > MAX_WORDS:
        raise BudgetExceeded(f"the words of lengths 1..{length} exceed the budget {MAX_WORDS}")
    if inverse_length is None:
        inverse_length = length
    if letter_length is None:
        letter_length = length
    order = np.array(_letter_order(pres.rank), dtype=np.int8)
    n, kids = pres.n, 2 * pres.rank - 1
    gens, logdets = pres.letter_matrix(order), pres.logdets[order + pres.rank]
    # C order, so that length 1's invs is a transposed view like every later block's
    inv_gens_t = np.ascontiguousarray(pres.letter_matrix(-order).swapaxes(1, 2))
    # successor[e]: the letters, in letter order, that may follow letter e (not its inverse e ^ 1)
    successor = np.array([[e for e in range(len(order)) if e != d ^ 1] for d in range(len(order))])
    subtree = _subtree_sizes(pres.rank, length)
    # (row, child) of the words from 0 on: a cut from q kids + r reads them from r, rows q up
    pattern = np.divmod(np.arange(WORD_BLOCK + kids - 1), kids)

    def walk(chain, digit):
        # digit: index in letter order of the last letter of each word of chain[-1]
        yield chain
        if len(chain) == length:
            return
        level, size = chain[-1], len(digit) * kids
        for cut in range(0, size, WORD_BLOCK):
            (q, r), end = divmod(cut, kids), min(WORD_BLOCK, size - cut)
            p, child = pattern[0][r:r + end] + q, pattern[1][r:r + end]
            d, lo, hi = successor[digit[p], child], p[0], p[-1] + 1

            def times(m, g):
                # the cut's parents times each letter, letter-major: child (d, p) is row
                # d (hi - lo) + p - lo; they are dropped before the walk descends.  A
                # product that leaves double range is refused by word_checks
                with np.errstate(over="ignore", invalid="ignore"):
                    return np.take((m[lo:hi].reshape(-1, n) @ g).reshape(-1, n, n),
                                   d * (hi - lo) + p - lo, axis=0)

            mats = times(level.mats, gens)
            invs = (times(level.invs.swapaxes(1, 2), inv_gens_t).swapaxes(1, 2)
                    if len(chain) < inverse_length else None)
            letters = (np.concatenate([np.take(level.letters, p, axis=0), order[d][:, None]],
                                      axis=1) if len(chain) < letter_length else None)
            yield from walk(chain + [WordLevel(
                letters, mats, invs, level.logdets[p] + logdets[d], p,
                level.dfs[p] + 1 + child * subtree[len(chain) + 1])], d)

    for cut in range(0, len(order), WORD_BLOCK):
        d = np.arange(len(order))[cut:cut + WORD_BLOCK]
        invs = inv_gens_t[d].swapaxes(1, 2) if inverse_length >= 1 else None
        letters = order[d][:, None] if letter_length >= 1 else None
        yield from walk([WordLevel(letters, gens[d], invs, logdets[d],
                                   np.zeros(len(d), dtype=np.intp), d * subtree[1])], d)


def _word_at(dfs: int, rank: int, length: int) -> list[int]:
    """The reduced word of depth-first rank ``dfs`` in ``word_levels``' walk to ``length``.

    Inverts the walk's ranks: the word of length 1 at place d of the letter
    order ranks d S_1, and child c of a word of length k ranks 1 + c S_(k+1)
    past it, with S_k the subtree size of a word of length k in that walk.
    So the remainder past a word names its child, and none names the word;
    child c of a word with last letter at place e is the successor table's
    letter c + (c >= e ^ 1).
    """
    subtree, order = _subtree_sizes(rank, length), _letter_order(rank)
    digit, rest = divmod(int(dfs), subtree[1])
    digits = [digit]
    while rest:
        child, rest = divmod(rest - 1, subtree[len(digits) + 1])
        digits.append(child + (child >= (digits[-1] ^ 1)))
    return [order[d] for d in digits]


def _two_sided_logs(m: np.ndarray, minv: np.ndarray, logdet: np.ndarray,
                    top: tuple = ()) -> np.ndarray:
    """Centered log singular values of m, from m and its exactly accumulated inverse.

    After Bochi-Potrie-Sambarino: top singular values stay resolved, so at n <= 3 the logs
    come in closed form from s_1(m), s_1(minv) = 1 / s_n(m) and D = ``logdet`` = log|det m|.
    At n = 2 minv goes unread: s_1 s_2 = |det m| <= s_1^2, so d_1 = max(log s_1 - D / 2, 0)
    = -d_2, clamped so that an exact rotation's gap is 0; at n = 3 d_2 = -d_1 - d_3.  Larger
    n take LAPACK's values of both sides: a direct SVD loses values below eps times the top
    one, and the small values are the reciprocals of the inverse's large ones, so each log
    comes from the side with the larger resolution ratio, as ``symmspace._two_sided_svd``
    picks columns; a stack that is not finite, which LAPACK refuses, reads NaN logs.  ``top``
    is m's ``symmspace._top_read`` where the caller holds it.  Leading axes are batch axes.
    """
    n = m.shape[-1]
    if n > 3:
        if not (np.isfinite(m).all() and np.isfinite(minv).all()):
            return np.full(m.shape[:-1], np.nan)
        s, si = np.linalg.svd(np.stack([m, minv]), compute_uv=False)
        direct = s / s[..., :1] >= si[..., ::-1] / si[..., :1]
        # np.where evaluates both sides: keep the unused logs' arguments at 1
        logs = np.where(direct, np.log(np.where(direct, s, 1.0)),
                        -np.log(np.where(direct, 1.0, si[..., ::-1])))
        return logs - logs.mean(axis=-1, keepdims=True)
    if n == 2:
        top = np.maximum(log_top_singular(m) - 0.5 * logdet, 0.0)
        return np.stack([top, -top], axis=-1)
    top, bottom = log_top_singular(m, top) - logdet / 3.0, -log_top_singular(minv) - logdet / 3.0
    return np.stack([top, -top - bottom, bottom], axis=-1)


def _log_norms(logs: np.ndarray) -> np.ndarray:
    """Norms of ``_two_sided_logs``' vectors, equal bit for bit to ``row_norms``.

    At n = 2 a pair (x, -x) has norm sqrt(2 (x x)): doubling the rounded square is exact, and
    the dot product's sum x x + x x rounds to the same value with or without a fused
    multiply-add.  Leading axes are batch axes.
    """
    if logs.shape[-1] == 2:
        x = logs[..., 0]
        return np.sqrt(2.0 * (x * x))
    return row_norms(logs)


def _least_gaps(logs: np.ndarray, face: FaceType) -> np.ndarray:
    """Least gap of descending logs at the face type's walls; leading axes are batch axes."""
    return functools.reduce(np.minimum, (logs[..., d - 1] - logs[..., d] for d in face.dims))


def power_probe(pres: FreeGroupPresentation, max_power: int = POWER_DEPTH, norm_cap: float = 1e6):
    """Orbit growth along generator powers, stopped once s_1 passes norm_cap.

    Yields (generator index, power, chamber vector).  Distorted cyclic
    subgroups keep the norms small and are probed deep; strongly
    proximal generators hit the cap after a few steps, where the
    enumerated words already witness linear growth.
    """
    for i in range(1, pres.rank + 1):
        g, gi, logdet = pres.letter_matrix(i), pres.letter_matrix(-i), pres.logdets[pres.rank + i]
        m, minv = np.eye(pres.n), np.eye(pres.n)
        for k in range(1, max_power + 1):
            m = m @ g
            if pres.n > 2:  # the n = 2 logs read m and log|det| alone
                minv = gi @ minv
            delta = _two_sided_logs(m, minv, k * logdet)
            if delta[0] + k * logdet / pres.n > math.log(norm_cap):  # log s_1(m)
                break
            yield i, k, delta


def _records(candidates: list[tuple], values: np.ndarray, level: WordLevel) -> None:
    """Add (value, depth-first rank) of a block's record lows that can tie its least.

    A record low is a word below all earlier ones in its block: a block lists its words
    depth first, so no other word can be a ``_first_tied`` witness.  Of those, only the ones
    within the block's own tie window, least + TIE_RTOL |least|, are kept: the least over all
    blocks is at most the block's, and x + TIE_RTOL |x| grows with x, so ``_first_tied``'s
    final window ends no higher.  A block holding a NaN has no window, and keeps every
    record low, those before its first NaN.  No letter is read: near-tied values keep rows
    in most blocks, and the caller decodes only its witnesses' letters from their ranks.
    """
    if not values.size:
        return
    least = values.min()
    # _first_tied's window, at most lo + TIE_RTOL |lo|, only shrinks: a block above it holds none
    if candidates and least > (lo := min(c[0] for c in candidates)) + TIE_RTOL * abs(lo):
        return
    # the rows outside the window lie above every row in it, so they set no record in it
    rows = (np.arange(values.size) if np.isnan(least)
            else np.flatnonzero(values <= least + TIE_RTOL * abs(least)))
    window = values[rows]
    record = np.ones(window.size, dtype=bool)
    record[1:] = window[1:] < np.minimum.accumulate(window)[:-1]
    candidates.extend((window[i], level.dfs[rows[i]]) for i in np.flatnonzero(record))


def _first_tied(candidates: list[tuple]) -> tuple:
    """The (value, depth-first rank) first depth first within TIE_RTOL of the least value.

    uru publishes that value, and the word it decodes from that rank (``_word_at``).
    """
    lo = min(c[0] for c in candidates)
    return min((c for c in candidates if c[0] <= lo + TIE_RTOL * abs(lo)), key=lambda c: c[1])


def _batches(chains, rank: int, ends):
    """The chains of ``word_levels``' walk in batches, the unit of ``word_checks``' kernel calls.

    A batch is a run of whole lengths, each one block, whose words fit one WORD_BLOCK
    (lengths 1-6 at rank 2) and that ends at each length of ``ends``, the walk's last among
    them, or any other block alone.  It is yielded with its last chain: the next length's
    word count tells whether that length fits, before the walk forms it.
    """
    def size(el):  # the words of length el
        return 2 * rank * (2 * rank - 1) ** (el - 1)

    batch, words = [], 0
    for chain in chains:
        batch.append(chain)
        words += len(chain[-1].mats)
        el = len(chain)
        if len(chain[-1].mats) < size(el) or words + size(el + 1) > WORD_BLOCK or el in ends:
            yield batch
            batch, words = [], 0


def _level_rows(chains: list) -> list[slice]:
    """The rows of each chain's last block among a batch's stacked rows."""
    ends = list(itertools.accumulate(len(chain[-1].mats) for chain in chains))
    return [slice(a, b) for a, b in zip([0, *ends], ends)]


def _stacked(arrays: list) -> np.ndarray:
    """The arrays stacked along their first axis; a lone array is passed on, not copied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def word_checks(pres: FreeGroupPresentation, face: FaceType, scans: list) -> list[PropertyReport]:
    """Reports of scans, such as uru's and morse's, from one depth-first walk of the word tree.

    A scan is a generator that yields its word length, and whether it takes the frames,
    whenever it waits: it is sent the list [chains, logs, their norms, least wall gaps] of
    each batch (``_batches``, cut at the scans' lengths) up to that length, then the walk's
    length, and yields its report.  The arrays stack the chains' last blocks in order
    (``_level_rows``).  The walk goes to the longest length, and takes each batch's logs,
    norms, gaps and ``symmspace._top_read`` once.  The list ends with (products, inverses,
    top read) only where a scan sent it takes the frame, which pops them before its own
    reads.  A scan that takes the frames also reads its words' letters and the inverses of
    their prefixes of at most half its length (morse's ``_prefix_coords``); a scan that
    takes none reads no letters, and names a word by its depth-first rank in the walk (uru,
    by ``_word_at``).  So the walk forms letters only up to the longest length a frame
    reader reads, and inverses only up to the longest length read: at n >= 3 the logs read
    every block's, and at n = 2, where the logs and frames read m and log|det| alone, only
    those prefixes are read.  A batch whose products leave double range, read as a norm
    that is not finite, raises ``IllConditioned`` before any scan sees it, as does one sent
    to a frame reader whose products pass its square root: frame readers square entries.
    """
    lengths, frames = zip(*(next(scan) for scan in scans))
    walk = max(lengths)
    letter_length = max((el for el, frame in zip(lengths, frames) if frame), default=0)
    inverse_length = walk if pres.n > 2 else max(
        (el // 2 for el, frame in zip(lengths, frames) if frame), default=0)
    for batch in _batches(word_levels(pres, walk, inverse_length, letter_length), pres.rank,
                          lengths):
        levels, el = [chain[-1] for chain in batch], len(batch[-1])
        mats, invs, logdets = (None if any(getattr(lv, x) is None for lv in levels)
                               else _stacked([getattr(lv, x) for lv in levels])
                               for x in ("mats", "invs", "logdets"))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # past double range
            top = _top_read(mats)
            logs = _two_sided_logs(mats, invs, logdets, top)
            norms, gaps = _log_norms(logs), _least_gaps(logs, face)
        if not np.isfinite(norms).all():  # nor are any longer word's
            raise IllConditioned(f"products of {el} letters leave double range")
        sends = [(scan, [batch, logs, norms, gaps, (mats, invs, top)][:5 if frame else 4])
                 for scan, length, frame in zip(scans, lengths, frames) if el <= length]
        if any(len(shared) == 5 for _, shared in sends) and (
                np.abs(logs).max() + np.abs(logdets).max() / pres.n > HALF_RANGE):
            raise IllConditioned(f"products of {el} letters pass the square root of double range")
        del top  # held, if at all, by the lists alone, which the frame's reader pops it from
        for scan, shared in sends:
            scan.send(shared)
    return [scan.send(walk) for scan in scans]


def uru_check(pres: FreeGroupPresentation, face: FaceType, length: int) -> PropertyReport:
    """Undistortion and uniform regularity over all geodesic words.

    Fits the best linear lower bound on orbit distance versus word
    length; the certificate slope is the worst distance/length ratio on
    tail lengths and along deep generator-power probes.  Uniform
    regularity takes the worst wall-margin/norm ratio on the tail.  The
    words come from ``word_checks``' walk, which also serves morse.
    """
    return word_checks(pres, face, [_uru_scan(pres, face, length)])[0]


def _uru_scan(pres, face, length):
    """uru's scan for ``word_checks``."""
    if length < 4:
        raise ValueError("need length >= 4")
    tail_start = max(2, length // 2 + 1)
    # witness candidates per length by distance, and on the tail by ratio
    by_length: dict[int, list[tuple]] = {}
    flattest: list[tuple] = []

    while isinstance(batch := (yield length, False), list):
        chains, delta, dist, gaps = batch[:4]
        for chain, rows in zip(chains, _level_rows(chains)):
            level, el = chain[-1], len(chain)
            _records(by_length.setdefault(el, []), dist[rows], level)
            if el >= tail_start:
                margin = gaps[rows] / math.sqrt(2.0)
                ratio = np.divide(margin, dist[rows], out=np.full_like(margin, np.inf),
                                  where=dist[rows] > 0)
                _records(flattest, ratio, level)
    walk = batch  # the walk's length, which its ranks count
    slowest = {el: _first_tied(candidates) for el, candidates in by_length.items()}
    ratio_min, ratio_rank = _first_tied(flattest)

    probe_pts = []
    for i, k, delta in power_probe(pres):
        dist = float(row_norms(delta))
        ratio = float(_least_gaps(delta, face)) / math.sqrt(2.0) / max(dist, 1e-300)
        probe_pts.append((i, k, dist, ratio))

    lengths = np.arange(1, length + 1, dtype=float)
    mins = np.array([slowest[el][0] for el in range(1, length + 1)])
    c_fit, intercept = np.polyfit(lengths, mins, 1)
    c_prime = float(max(0.0, np.max(c_fit * lengths - mins)))
    cert_pts = [(el, mins[el - 1]) for el in range(tail_start, length + 1)]
    cert_pts += [(k, d) for _, k, d, _ in probe_pts if k >= tail_start]
    c_certificate = min(d / el for el, d in cert_pts)
    probe_ratio_min = min((r for _, k, _, r in probe_pts if k >= tail_start), default=np.inf)
    ratio_all = float(min(ratio_min, probe_ratio_min))

    verdict, parts, thresholds = rules.uru(float(c_certificate), ratio_all)
    yield PropertyReport(
        name="uru",
        verdict=verdict,
        constants={
            "c": float(c_fit),
            "c_prime": c_prime,
            "c_certificate": float(c_certificate),
            "uniform_ratio_min": ratio_all,
            "per_length_min": mins,
        },
        thresholds={
            **thresholds,
            "length": length,
            "tail_start": tail_start,
            "power_depth": POWER_DEPTH,
        },
        witnesses={
            "ratio_word": _word_at(ratio_rank, pres.rank, walk),
            "slowest_words": {str(el): _word_at(rank, pres.rank, walk)
                              for el, (_, rank) in sorted(slowest.items())},
            "probe_tail": [list(p) for p in probe_pts[-4:]],
        },
        details={
            **parts,
            "probe_points": [list(p) for p in probe_pts],
        },
    )


def _prefix_coords(chain: list[WordLevel], rows: np.ndarray, ut: np.ndarray):
    """Coordinates (u^T p, pinv u) of the prefixes p of the words ``rows`` of a chain's last block.

    ``ut`` stacks the words' frames u, transposed and C-contiguous.  Word w
    of length L spans the diamond from o to w.o; its interior points are
    the orbit points of its prefixes, read through the chain's ``parent``
    rows.  Only the points nearer the base point are yielded, for prefix
    lengths t = floor(L/2), ..., 1: the point at t > L/2 is the one of w^-1
    at L - t, read from that word's nearer tip.  A block lists its words
    depth first, so rows that share their prefix of length t come in runs:
    a run takes one GEMM per coordinate, its frames stacked as rows times
    the prefix's p and pinv^T, read straight from the chain's blocks.  Each
    entry is its row's own dot product in the same order as a stacked
    product's, so the coordinates are those of ``ut @ p`` and
    ``(ut @ pinv^T)^T`` bit for bit.
    """
    n = ut.shape[-1]
    frames = ut.reshape(-1, n)
    for t in range(len(chain) - 1, 0, -1):
        rows = chain[t].parent[rows]  # row of each word's prefix of length t
        if 2 * t <= len(chain):
            mats, invs_t = chain[t - 1].mats, chain[t - 1].invs.swapaxes(1, 2)
            w, winv_t = np.empty_like(ut), np.empty_like(ut)
            bounds = [0, *(np.flatnonzero(rows[1:] != rows[:-1]) + 1).tolist(), len(rows)]
            for a, b in zip(bounds, bounds[1:]):
                run, q = slice(a * n, b * n), rows[a]
                np.matmul(frames[run], mats[q], out=w.reshape(-1, n)[run])
                np.matmul(frames[run], invs_t[q], out=winv_t.reshape(-1, n)[run])
            yield w, winv_t.swapaxes(1, 2)


def _batch_deficits(parts: list[tuple], ut: np.ndarray, a_plus: np.ndarray, face: FaceType,
                    floor: float) -> np.ndarray:
    """Deficits of the interior points of the words ``rows`` of each (chain, rows) part.

    The parts' lengths ascend; ``ut`` and ``a_plus`` stack the words' frames, as
    ``_prefix_coords`` reads them, and logs.  Column t - 1 holds prefix length t,
    NaN past a word's L/2.  Each prefix length takes one ``factored_coords_pair``
    bound pass over the lengths that have it, the last rows; the exact off reads
    left are made at once (``symmspace._read_pending``), and only then are the
    deficits taken.  A deficit below ``floor`` may be an upper bound below it.
    """
    ends, longest = list(itertools.accumulate(len(rows) for _, rows in parts)), len(parts[-1][0])
    coords = [_prefix_coords(chain, rows, ut[end - len(rows):end])
              for (chain, rows), end in zip(parts, ends)]
    pending, passes = [], []
    for t in range(longest // 2, 0, -1):
        first = next(k for k, part in enumerate(parts) if len(part[0]) >= 2 * t)
        w, winv = zip(*(next(c) for c in coords[first:]))
        passes.append((ends[first] - len(parts[first][1]), t, factored_coords_pair(
            _stacked(w), _stacked(winv), face, floor, pending)))
    del coords, w, winv  # the last pass's coordinates, held by its readers until here
    _read_pending(pending, floor)
    reads = np.full((ends[-1], longest // 2), np.nan)
    for start, t, (v, off) in passes:
        reads[start:, t - 1] = _deficits(v, off, a_plus[start:], face)
    return reads


def _level_index(letters: np.ndarray, rank: int) -> np.ndarray:
    """Row of each word among all reduced words of its length, depth first."""
    digits = 2 * (np.abs(letters).astype(np.int64) - 1) + (letters < 0)
    idx = digits[:, 0]
    for j in range(1, digits.shape[1]):
        # the child's rank among the 2 * rank - 1 letters that do not cancel
        idx = idx * (2 * rank - 1) + digits[:, j] - (digits[:, j] > (digits[:, j - 1] ^ 1))
    return idx


def morse_check(pres: FreeGroupPresentation, face: FaceType, length: int,
                rho_cap: float = rules.RHO_CAP) -> PropertyReport:
    """Closeness of orbit segments to diamonds, quantified by a deficit.

    Every reduced word is the canonical representative of all its
    translates, so scanning each word once with the base point and its
    endpoint as tips covers every sub-segment of every longer geodesic.
    The deficit of an interior orbit point (``symmspace.segment_deficits``,
    read in the word's two-sided singular frame) combines its off-parallel-set
    distance with the in-flat chamber deficits toward both tips.  Word w
    of length L at prefix length t is the same configuration as w^-1 at
    L - t, so each is read once, from its nearer tip: only t <= L/2 is
    evaluated, and a midpoint t = L/2, read from both tips, keeps the
    smaller read.  The fitted rho is the worst deficit, the witness the
    worst configuration read with t <= L/2, the fitted type gap the worst
    normalized wall gap.  Every published deficit is a maximum over
    lengths <= L, or a witness within TIE_RTOL of one, so the words of
    length L are read at a floor: the largest final read so far at lengths <= L,
    lowered by 1e-9 relative, well clear of TIE_RTOL.  At n <= 3 an off
    distance whose closed-form bound (``symmspace._off_bound``) stays below
    it is not read exactly, and the bound, still below the floor, stands in;
    such a configuration can neither be the maximum at any length >= L nor
    tie with it.  The bound pass runs per prefix length; the configurations
    it leaves are read exactly once per batch, over all its prefix lengths
    (``symmspace._read_pending``).  At n = 3 one kernel call reads the side
    whose bound is the smaller, and a second call the other side only where
    the first read reaches the floor: the first read, also an upper bound,
    stands in below it.  At n = 2 one call reads both sides.  A midpoint
    read is final only after the min with its mirror's, so it raises no
    floor, and a midpoint min taken with a bound stays below the floor.  Of
    the 47,568 configurations at L = 8, 13,548 are read exactly on
    sl3-symsq-schottky, 3,900 of them on both sides, and 3,900 on
    sl2-schottky and on sanov-unipotent; at L = 9, 36,876 of 152,544 on
    sl3.  3,828 of each are lengths 2-6, read before any floor is set.
    Irregular words are Morse failures.  Words need length >= 2 to have
    interior points.  The words come one batch of ``word_checks``' walk,
    which also serves uru, at a time, read at the floor of its shortest
    length, and their interior points through their chains
    (``_prefix_coords``).  The test suite cross-checks the deficit against
    diamond membership by ``make_diamond`` and ``diamond_query`` on a
    sample of the bundled configs' words.
    """
    return word_checks(pres, face, [_morse_scan(pres, face, length, rho_cap)])[0]


def _morse_scan(pres, face, length, rho_cap=rules.RHO_CAP):
    """morse's scan for ``word_checks``."""
    if length < 2:
        raise ValueError("need length >= 2")
    theta_gap = np.inf
    vanishing: list[tuple[int, list[int]]] = []
    # per length and batch: letters, depth-first ranks, regular mask, deficits
    scanned: dict[int, list[tuple[np.ndarray, ...]]] = {}
    best = np.full(length + 1, -np.inf)  # per length: the largest final read so far
    while isinstance(batch := (yield length, True), list):
        chains, logs, norms, gaps = batch[:4]
        ok = ~(gaps < GAP_TOL)
        if ok.any():
            theta_gap = min(theta_gap, float((gaps[ok] / norms[ok]).min()))
        parts = []  # per length >= 2, whose words have interior points: its rows, its regular ones
        for chain, span in zip(chains, _level_rows(chains)):
            level = chain[-1]
            vanishing += zip(level.dfs[~ok[span]].tolist(), level.letters[~ok[span]].tolist())
            if len(chain) >= 2:
                parts.append((chain, span, np.flatnonzero(ok[span])))
        if not parts:
            continue
        rows = _stacked([span.start + kept for _, span, kept in parts])
        starts = list(itertools.accumulate((len(kept) for _, _, kept in parts), initial=0))
        if rows.size:
            # column t-1 is prefix length t; a read below the floor, well clear of TIE_RTOL,
            # may be a bound below it; no length's own floor is lower than the shortest's
            floor = best[:len(parts[0][0]) + 1].max() * (1.0 - 1e-9)
            ut = np.take(np.swapaxes(_two_sided_frame(*batch.pop()), 1, 2), rows, axis=0)
            reads = _batch_deficits([(chain, kept) for chain, _, kept in parts if len(kept)],
                                    ut, logs[rows], face, floor)
        for (chain, span, kept), a, b in zip(parts, starts, starts[1:]):
            el = len(chain)
            d = np.full((span.stop - span.start, el // 2), np.nan)
            if b > a:
                d[kept] = reads[a:b, :el // 2]
                if el > 2:  # a midpoint read t = L/2 is final only after the mirror's min
                    best[el] = max(best[el], reads[a:b, :(el - 1) // 2].max())
            scanned.setdefault(el, []).append((chain[-1].letters, chain[-1].dfs, ok[span], d))

    # A midpoint t = L/2 is the same configuration as the mirror word's
    # midpoint.  The blocks of one length, in walk order, list every word of
    # that length depth first, so a word's mirror sits at its level index.
    rho_per_len = np.zeros(length + 1)
    lengths = []  # per length: the regular words' deficits, depth-first ranks and letters
    for el, parts in scanned.items():
        letters, dfs, ok, d = (np.concatenate(col) for col in zip(*parts))
        if el % 2 == 0:
            mirror = _level_index(-letters[:, ::-1], pres.rank)
            d[:, -1] = np.where(ok[mirror] & (d[mirror, -1] < d[:, -1]), d[mirror, -1], d[:, -1])
        val = d[ok]
        if val.size:
            rho_per_len[el] = val.max()
            lengths.append((val, dfs[ok], letters[ok]))
    # the witness by uru's rule: the first word depth first, then by interior
    # index, within TIE_RTOL of the worst deficit, with its own deficit
    worst = (None, None, -1.0)
    hi = max((val.max() for val, _, _ in lengths), default=np.nan)
    tied = []
    for val, dfs, letters in lengths:
        w, t = np.nonzero(val >= hi - TIE_RTOL * abs(hi))  # rows list the words depth first
        if w.size:
            tied.append((dfs[w[0]], letters[w[0]].tolist(), int(t[0]) + 1, float(val[w[0], t[0]])))
    if tied:
        worst = min(tied, key=lambda c: c[0])[1:]
    vanishing = [w for _, w in sorted(vanishing)]

    rho_cumulative = np.maximum.accumulate(rho_per_len)
    rho_star = float(rho_cumulative[length])
    theta_gap = None if math.isinf(theta_gap) else theta_gap
    verdict, _, thresholds = rules.morse(rho_star, theta_gap, len(vanishing), rho_cap)
    yield PropertyReport(
        name="morse",
        verdict=verdict,
        constants={
            "rho": rho_star,
            "theta_gap": theta_gap,
            "rho_by_length": rho_cumulative[1:],
        },
        thresholds={
            **thresholds,
            "length": length,
            "gap_tol": GAP_TOL,
        },
        witnesses={
            "worst_word": worst[0],
            "worst_interior_index": worst[1],
            "worst_deficit": worst[2],
            "vanishing_gap_words": vanishing[:8],
        },
        details={
            "vanishing_gap_count": len(vanishing),
        },
    )


class RaySample(NamedTuple):
    """Boundary rays of N + BETA_PAD letters, named by their first N, held as stacks."""

    letters: np.ndarray   # (R, N + BETA_PAD) signed letters, each row a reduced word
    schemes: np.ndarray   # (R,) "power" | "random"
    prefixes: np.ndarray  # (R, N, n, n) products of the first k + 1 letters
    inverses: np.ndarray  # (R, N, n, n) their exactly accumulated inverses
    logdets: np.ndarray   # (R, N) log|det| of the prefixes, summed letter by letter
    tails: Flag           # (R, N + BETA_PAD + 1) flags of the suffixes letters[:, k:]
    seed: int             # the seed of the random rays' draw


def _random_words(rng: np.random.Generator, rank: int, count: int, length: int) -> np.ndarray:
    """``count`` random reduced words (count, length).

    Each letter is uniform among those that do not cancel its predecessor; one
    vectorized call draws them all, word by word, as one draw per letter would.
    """
    order = np.array(_letter_order(rank))
    highs = [2 * rank - bool(j) for j in range(length)]
    cols, digit = [], None  # digit: letter order index of the previous letter
    for draw in rng.integers(highs, size=(count, length)).T:
        digit = draw if digit is None else draw + (draw >= (digit ^ 1))  # skip the cancelling one
        cols.append(order[digit])
    return np.stack(cols, axis=1)


def _prefix_products(pres: FreeGroupPresentation, letters: np.ndarray):
    """(letter matrices, prefix products, their inverses, log|det|s) of words (..., N).

    For all words at once, prefix products are accumulated from the identity one letter at a
    time on the right, their inverses one inverse letter at a time on the left, and log|det|s
    from the presentation's, letter by letter.
    """
    steps, inv_steps = pres.letter_matrix(letters), pres.letter_matrix(-letters)
    prefixes, inverses = np.empty_like(steps), np.empty_like(steps)
    m = mi = np.eye(pres.n)
    with np.errstate(over="ignore", invalid="ignore"):  # a product that leaves double range
        for k in range(letters.shape[-1]):
            prefixes[..., k, :, :] = m = m @ steps[..., k, :, :]
            inverses[..., k, :, :] = mi = inv_steps[..., k, :, :] @ mi
    if not (np.isfinite(m).all() and np.isfinite(mi).all()):  # so is every later product
        raise IllConditioned(f"products of {letters.shape[-1]} letters leave double range")
    logdets = pres.logdets[letters + pres.rank]
    return steps, prefixes, inverses, np.cumsum(logdets, axis=-1)


def sample_rays(pres: FreeGroupPresentation, count: int, depth: int, seed: int,
                face: FaceType) -> RaySample:
    """The ray sample that limit and anosov read: ``count`` rays of depth + BETA_PAD letters.

    The rays are distinct on their first ``depth`` letters, their names: all
    generator-power rays, then random ones.  Prefix products are formed of
    the names, and one sweep takes the flags of every suffix of the rays.
    """
    length = depth + BETA_PAD
    rays = {(lt,) * depth: ((lt,) * length, "power") for lt in _letter_order(pres.rank)[:count]}
    rng = np.random.default_rng(seed)
    tries = 0
    while len(rays) < count and tries < 100 * count:
        batch = min(count - len(rays), 100 * count - tries)  # draws as one word at a time
        tries += batch
        for word in _random_words(rng, pres.rank, batch, length).tolist():
            rays.setdefault(tuple(word[:depth]), (word, "random"))
    if len(rays) < count:
        raise ValueError("not enough distinct rays at this depth")
    words, schemes = zip(*rays.values())
    letters = np.array(words, dtype=int)
    return RaySample(letters, np.array(schemes), *_prefix_products(pres, letters[:, :depth])[1:],
                     suffix_flags(pres.letter_matrix(letters), face), seed)


def _window_sups(pres: FreeGroupPresentation, sample: RaySample, factors: tuple,
                 reads: list[tuple[int, bool]]) -> np.ndarray:
    """Each ray's largest window deficit over ``reads``, one block of ``_conical_rays``.

    A read (n, far) measures prefix point n inside its window from the
    window's start, or from its end where ``far``; ``factors`` holds the
    rays' letter matrices, their inverses and the log|det| of their first
    k letters.  The block's stacks are formed here and freed on return.
    """
    face, total = sample.tails.face, sample.prefixes.shape[1]
    steps, inv_steps, logdets = factors
    # per window: its start to the point, the point to its end, and the whole window,
    # each with its inverse, all accumulated exactly letter by letter
    windows = []  # per read: the tip and its inverse, log|det|, the point and its inverse
    for n, group in itertools.groupby(reads, key=lambda read: read[0]):
        lo, hi = max(0, n - CONICAL_LOOKAHEAD), min(total, n + CONICAL_LOOKAHEAD)
        if lo == 0:  # the window and its first half are prefixes, accumulated alike
            window, window_inv = sample.prefixes[:, hi - 1], sample.inverses[:, hi - 1]
            first, first_inv = sample.prefixes[:, n - 1], sample.inverses[:, n - 1]
        else:
            window = window_inv = np.eye(pres.n)
            for k in range(lo, hi):
                window, window_inv = window @ steps[:, k], inv_steps[:, k] @ window_inv
                if k == n - 1:
                    first, first_inv = window, window_inv
        logdet = logdets[:, hi] - logdets[:, lo]
        for _, far in group:  # the tip w sees the point f, and w^-1 sees w^-1 f = s^-1
            if far:
                last = last_inv = np.eye(pres.n)
                for k in range(n, hi):
                    last, last_inv = last @ steps[:, k], inv_steps[:, k] @ last_inv
                windows.append((window_inv, window, -logdet, last_inv, last))
            else:
                windows.append((window, window_inv, logdet, first, first_inv))
    *stacks, pinvs = zip(*windows)
    m, minv, logdet, p = (np.stack(x, axis=1) for x in stacks)
    # the points' inverses transposed into C order, as segment_deficits reads them
    pinv_t = np.stack([np.swapaxes(x, -1, -2) for x in pinvs], axis=1, out=np.empty(p.shape))
    del windows, stacks, pinvs
    top = _top_read(m)
    a_plus = _two_sided_logs(m, minv, logdet, top)
    u = _two_sided_frame(m, minv, top)
    del top, m, minv  # read by their last readers
    return segment_deficits(u, a_plus, [(p, np.swapaxes(pinv_t, -1, -2))], face).max(axis=(1, 2))


def _conical_rays(pres: FreeGroupPresentation, sample: RaySample,
                  back: Flag) -> tuple[np.ndarray, np.ndarray]:
    """Conical approach along every ray of a sample: (verdicts, geometric sups).

    Geometric side: each prefix point is measured inside the diamond
    spanned by the orbit CONICAL_LOOKAHEAD letters behind and ahead, seen
    from its nearer tip, or from both where it is centred, keeping the
    larger read, which errs less on the bundled configs and can only turn
    a pass into a fail: a ray's sup is the largest of its reads.
    Translating the window start to the base point, the evaluation
    involves only short exact products, so it is
    well-conditioned at any depth; bounded window deficits are the
    conicality surrogate.  The reads go in blocks of whole read
    positions, at most CONICAL_BLOCK configurations (rays times reads)
    each, one ``_window_sups`` call per block: every read takes the same
    arithmetic in any block, and a ray's sup is the running maximum over
    the blocks, so it is the largest read exactly, and memory stays
    bounded at any depth.  Dynamical side: the pulled-back limit flags
    must keep a transversality floor from the last of the inverse
    prefixes' flags ``back`` (R, N), where those have a limit.  The
    pulled-back flag is the boundary flag of the shifted ray, read from
    the sample's tails because it is a repelling fixed point of the
    inverse flow and cannot be iterated forward.  The shifts read are
    k = 1, ..., N - CONICAL_LOOKAHEAD, each tail CONICAL_LOOKAHEAD + BETA_PAD
    letters long or longer, and the floor is taken on their later half.
    Both sides are judged by ``rules.conical``.
    """
    count, total = sample.prefixes.shape[:2]
    letters = sample.letters[:, :total]
    factors = (pres.letter_matrix(letters), pres.letter_matrix(-letters),
               np.pad(sample.logdets, ((0, 0), (1, 0))))  # log|det| of the first k letters
    reads = []  # (n, far): point n read from its window's start, or from its end where far
    for n in range(1, total):  # every window spans lo < n < hi
        lo, hi = max(0, n - CONICAL_LOOKAHEAD), min(total, n + CONICAL_LOOKAHEAD)
        if 2 * (n - lo) <= hi - lo:
            reads.append((n, False))
        if 2 * (n - lo) >= hi - lo:
            reads.append((n, True))
    sups = np.full(count, -np.inf)
    step = max(1, CONICAL_BLOCK // count)
    for cut in range(0, len(reads), step):
        np.maximum(sups, _window_sups(pres, sample, factors, reads[cut:cut + step]), out=sups)

    margins = transversality_margin(sample.tails[:, 1:max(2, total - CONICAL_LOOKAHEAD + 1)],
                                    back[:, -1, None])
    tail = margins[:, margins.shape[1] // 2:].min(axis=1)
    return rules.conical(sups, tail, flag_limits(back))[0], sups


_EPS = 0.5 * np.finfo(float).eps  # unit roundoff


def _gamma(k: int) -> float:
    """Higham's gamma_k = k eps / (1 - k eps), the relative error of k roundings."""
    return k * _EPS / (1.0 - k * _EPS)


def _screen_threshold(c0: float, known: float, n: int, eta: float) -> float:
    """The least screen value above which no pair can set a minimum of ``_pair_scan``.

    ``c0`` is the least screen value among the pairs, ``known`` the least
    exact margin read so far; ``_pair_scan`` derives the band.  The largest
    float stands for "every pair", so that the masked entries, set to inf,
    stay out.
    """
    delta = _gamma(n) * (1.0 + eta)
    tau = 3.0 * (eta + delta) + 2.0 * _EPS
    slack = 2.0 * delta + _gamma(8) + _gamma(n + 6) * (1.0 + eta)

    def band(c):  # E(c), nondecreasing in c; E(inf) is the uniform band
        s = math.sqrt(max(0.0, 1.0 - c * c))
        return slack + min(math.sqrt(tau), tau / s if s else math.inf)

    bound = min(known, c0 / math.sqrt(1.0 + math.sqrt(max(0.0, 1.0 - c0 * c0))) + band(c0))
    thr = math.inf
    for _ in range(2):  # the uniform band, then the band at that threshold
        m = bound + band(thr)
        if not m < 1.0:
            return float(np.finfo(float).max)
        thr = m * math.sqrt(2.0 - m * m) * (1.0 + 16.0 * _EPS)
    return thr


def _pair_scan(limits: Flag, letters: np.ndarray):
    """(cross margin, all-pairs margin, closest cross pair) of limit flags.

    Pairs (i, j < i) go i ascending, then j; cross pairs have different
    first letters (disjoint cylinders).  Each block of ``step`` rows i takes
    a screen of its pairs against all earlier flags, rows times all flags
    up to the block's end, at most PAIR_BLOCK entries: with u a flag's line
    (frame column 0) and v its hyperplane's normal (column n - 1), one
    BLAS product gives c = |u_i . v_j|, and at n >= 3 the min with
    |u_j . v_i| from the transposed product, the two closed-form dimensions
    1 and n - 1 of ``transversality_margin``.  Its margin is
    G(c) = c / sqrt(1 + sqrt(1 - c^2)) = sqrt(1 - s), increasing in c, with
    inverse m sqrt(2 - m^2).  Only the pairs whose c can give a margin at
    most the least upper bound of the block go to ``antipodality_margin``,
    once for both minima: those with c at most a threshold from the cross
    pairs' least c, or from all pairs' least c.  The minima are those
    exact reads, and the closest pair the first exact minimum in pair
    order, so they are the all-pairs loop's bit for bit.

    The threshold bounds the exact route's margin m_e of a pair against
    G(c) of its screen value.  With eps the unit roundoff, gamma_k =
    k eps / (1 - k eps), and eta >= | |x|^2 - 1 | over the rows' u and v,
    measured (their computed squared norms' distance from 1, plus 2
    gamma_n):
    - c: ``_dot`` and the BLAS product each give u.v within
      delta = gamma_n (1 + eta) in any order of summation, so they differ
      by at most 2 delta.
    - s: ``_sine`` gives s_e = sigma (1 + theta), |theta| <= gamma_{n+4}
      (the squared differences and sums carry n + 2 roundings each, their
      product one more, its root one), where
      sigma = |u - v| |u + v| / 2 = sqrt(nu^2 - c*^2), nu = (|u|^2 + |v|^2) / 2.
      The screen's s^ = sqrt(1 - c^2) has a radicand within
      tau = 3 (eta + delta) + 2 eps of sigma^2 (2 eps for its own two
      roundings), so |sigma - s^| <= min(sqrt(tau), tau / s^): the error
      of c is amplified as eps / s where c -> 1.
    - the formula: c / sqrt(1 + s) takes three roundings on the exact route
      and on the screen, and its partial derivatives are at most 1 in c
      and in s.
    So |m_e - G(c)| <= E(c) = 2 delta + gamma_8 + gamma_{n+6} (1 + eta)
    + min(sqrt(tau), tau / s^), each gamma taken two roundings larger than
    its count to cover the screen's own scalar arithmetic.  E grows with c.
    The least upper bound is U = min(known exact minimum, G(c0) + E(c0))
    at the least c0.  A pair is a candidate if G(c) - E(c) <= U; the first
    threshold c1 = G^-1(U + E(inf)) holds for every c, and
    c2 = G^-1(U + E(c1)) for c <= c1, since E grows; c2, raised by 16 eps
    relative for the rounding of G^-1, is the threshold.  A dimension with
    no closed form (the middle ones at n >= 4) gives no lower bound: eta is
    inf, so every pair of the block is a candidate.  Memory is a few
    arrays of PAIR_BLOCK entries per block, linear in the ray count.
    """
    count, n = len(letters), limits.face.n
    lines, normals = (np.ascontiguousarray(limits.frame[..., k]) for k in (0, n - 1))
    norms = np.concatenate([np.einsum("ij,ij->i", x, x) for x in (lines, normals)])
    eta = (float(np.abs(norms - 1.0).max()) + 2.0 * _gamma(n)
           if set(limits.dims) <= {1, n - 1} else math.inf)
    firsts = letters[:, 0]
    min_margin, all_pairs_min, closest = math.inf, math.inf, None
    step = max(1, PAIR_BLOCK // count)
    for lo in range(1, count, step):
        hi = min(lo + step, count)
        c = np.abs(lines[lo:hi] @ normals[:hi].T)  # row r holds i = lo + r against j < hi
        if n > 2:
            np.minimum(c, np.abs(normals[lo:hi] @ lines[:hi].T), out=c)
        c[:, lo:][~np.tri(hi - lo, k=-1, dtype=bool)] = np.inf  # j >= i is no pair
        cross = np.where(firsts[lo:hi, None] != firsts[:hi], c, np.inf)
        r, j = np.nonzero((c <= _screen_threshold(float(c.min()), all_pairs_min, n, eta))
                          | (cross <= _screen_threshold(float(cross.min()), min_margin, n, eta)))
        if not r.size:
            continue
        i = r + lo
        margins = antipodality_margin(limits[i], limits[j])
        all_pairs_min = min(all_pairs_min, float(margins.min()))
        margins[firsts[i] == firsts[j]] = np.inf
        k = int(np.argmin(margins))  # the first of equal minima, in pair order
        if margins[k] < min_margin:
            min_margin = float(margins[k])
            closest = (letters[i[k]].tolist(), letters[j[k]].tolist())
    return min_margin, all_pairs_min, closest


def limit_report(pres: FreeGroupPresentation, face: FaceType, sample: RaySample) -> PropertyReport:
    """Sampled boundary map: antipodality and conicality.

    Each ray of ``sample_rays``' sample is named by its first N letters,
    those of its prefixes; its limit flag is its deepest prefix's flag.
    Antipodality is the least pairwise transversality margin over distinct
    samples, and conicality is checked along each ray (``_conical_rays``).
    """
    ray_count, depth = sample.prefixes.shape[:2]
    if ray_count < 2 or depth < 2:
        raise ValueError("need ray_count >= 2 and depth >= 2")
    if not face.is_iota_invariant:
        raise ValueError("antipodality needs an iota-invariant face type")
    top = _top_read(sample.prefixes)
    deltas = _two_sided_logs(sample.prefixes, sample.inverses, sample.logdets, top)
    gaps = _least_gaps(deltas, face)
    regular = ~(gaps < GAP_TOL).any(axis=-1)
    # a failure's reason names the ray's first irregular prefix
    failures = [{"letters": sample.letters[r, :depth].tolist(),
                 "reason": f"log singular-value gap {gaps[r][gaps[r] < GAP_TOL][0]:.3e} "
                           f"below {GAP_TOL:.1e}"} for r in np.flatnonzero(~regular)]
    if not regular.any():
        raise VanishingGap("no sampled ray has a regular prefix")
    if not regular.all():
        sample, deltas = RaySample(*(x[regular] for x in sample[:-1]), sample.seed), deltas[regular]
        top = tuple(x[regular] for x in top)
    # limit flags are the last prefixes', backward flags every inverse prefix's, which the
    # conical check reads; their logs are the prefixes', negated and reversed: regular rows stay so
    limits = Flag(face, _two_sided_frame(sample.prefixes[:, -1], sample.inverses[:, -1],
                                         tuple(x[:, -1] for x in top)))
    del top  # read by its last reader
    back = Flag(iota_face(face), _two_sided_frame(sample.inverses, sample.prefixes))
    conical, sups = _conical_rays(pres, sample, back)
    samples = [{
        "letters": sample.letters[i, :depth].tolist(),
        "scheme": str(sample.schemes[i]),
        "limit_flag_frame": frame,
        "conical": bool(conical[i]),
        "conical_geometric_sup": float(sups[i]),
    } for i, frame in enumerate(limits.frame.tolist())]

    # Rays are pairwise distinct reduced words, hence distinct boundary
    # points; their transversality margin shrinks with the depth at which the
    # words diverge, so the verdict takes pairs that differ in the first letter,
    # and all_pairs_margin_min records the rest.
    min_margin, all_pairs_min, closest_pair = _pair_scan(limits, sample.letters[:, :depth])

    min_margin = None if math.isinf(min_margin) else float(min_margin)
    verdict, parts, thresholds = rules.limit(min_margin, (s["conical"] for s in samples), failures)
    return PropertyReport(
        name="limit-set",
        verdict=verdict,
        constants={
            "antipodality_margin": min_margin,
            "all_pairs_margin_min": None if math.isinf(all_pairs_min) else float(all_pairs_min),
            "conical_sup": max((s["conical_geometric_sup"] for s in samples), default=None),
        },
        thresholds={
            **thresholds,
            "depth": depth,
            "ray_count": ray_count,
        },
        witnesses={"closest_pair": closest_pair, "failures": failures},
        details={
            **parts,
            "rays": samples,
            "deltas": {str(i): d for i, d in enumerate(deltas.tolist())},
        },
        seed=sample.seed,
    )


def anosov_check(pres: FreeGroupPresentation, face: FaceType, sample: RaySample) -> PropertyReport:
    """Expansion growth along the boundary rays of ``sample_rays``' sample.

    For each sampled ray the inverse prefixes must expand at the ray's
    limit flag; the uniform verdict requires positive fitted slopes that
    agree across rays within the stated deviation, the non-uniform
    verdict only divergence beyond a threshold, and the stratum-expansion
    verdict asks for a short word expanding at every sampled limit flag.
    The limit flag is the tail flag of the whole ray, BETA_PAD letters
    deeper than the tested prefixes, since the expansion factor at the
    flag resolves it to the scale of the deepest prefix.
    """
    rays, depth = sample.prefixes.shape[:2]
    if depth < 3:
        raise ValueError("need depth >= 3: slopes are fitted on prefixes depth // 3 .. depth")
    tested = (x[:, -1] for x in (sample.prefixes, sample.inverses, sample.logdets))
    regular = ~(_least_gaps(_two_sided_logs(*tested), face) < GAP_TOL)
    if not regular.any():
        raise VanishingGap("no sampled ray has a regular prefix")
    if not regular.all():
        sample = RaySample(*(x[regular] for x in sample[:-1]), sample.seed)
    # Chain rule: the differential of the inverse prefix at the flag is
    # the ordered product of single-letter differentials along the
    # pulled-back flag orbit.  The orbit flags are the boundary flags of
    # the shifted rays; iterating them forward would be dynamically
    # unstable (the flag is repelling for the inverse flow), so each is
    # the sample's tail flag of its own tail letters.  Only the inverse
    # letters' matrices are formed; the chain's products overwrite the
    # single-letter differentials in place, and are freed before the
    # stratum scan.
    steps = action_differential(pres.letter_matrix(-sample.letters[:, :depth]),
                                sample.tails[:, :depth])
    dtotal = np.eye(tangent_dim(face))
    with np.errstate(over="ignore", invalid="ignore"):  # a product that leaves double range
        for k in range(depth):
            steps[:, k] = dtotal = steps[:, k] @ dtotal
    if not np.isfinite(dtotal).all():  # so is every later product
        raise IllConditioned(f"products of {depth} letters' differentials leave double range")
    log_eps = np.log(least_singular(steps))
    del steps, dtotal
    ns = np.arange(1, depth + 1, dtype=float)
    lo = max(1, depth // 3)
    slopes, intercepts = np.polyfit(ns[lo:], log_eps[:, lo:].T, 1)  # one fit per ray
    ray_data = [{
        "letters": sample.letters[i].tolist(),
        "scheme": str(sample.schemes[i]),
        "log_eps": le,
        "slope": float(slopes[i]),
        "intercept": float(intercepts[i]),
        "max_log_eps": float(max(le)),
    } for i, le in enumerate(log_eps.tolist())]

    irregular = rays - len(ray_data)
    mean_slope = float(slopes.mean()) if len(slopes) else 0.0
    max_dev = (float(np.max(np.abs(slopes - mean_slope)) / abs(mean_slope))
               if mean_slope > 0 else math.inf)
    max_dev = None if math.isinf(max_dev) else max_dev
    c_const = float(slopes.min()) if len(slopes) else 0.0
    log_a = float((log_eps - c_const * ns).min())

    # Stratum expansion: some short word expands at every sampled limit flag.
    blocks = [chain[-1] for chain in word_levels(pres, CEA_DEPTH, 0)]  # products alone
    dfs = np.argsort(np.concatenate([lv.dfs for lv in blocks]))  # walk order, depth first
    words = [w for lv in blocks for w in lv.letters.tolist()]
    eps = expansion_factor(np.concatenate([lv.mats for lv in blocks])[dfs],
                           sample.tails[:, 0, None])
    best = eps.argmax(axis=1)  # the first maximum, in depth-first word order
    best_eps = eps[np.arange(len(eps)), best].tolist()
    cea_records = [{"letters": r["letters"], "best_eps": e, "best_word": words[dfs[k]]}
                   for r, e, k in zip(ray_data, best_eps, best.tolist())]
    verdict, parts, thresholds = rules.anosov(
        c_const, max_dev, irregular, [r["max_log_eps"] for r in ray_data], best_eps)
    return PropertyReport(
        name="anosov",
        verdict=verdict,
        constants={
            "C": c_const,
            "log_A": log_a,
            "mean_slope": mean_slope,
            "max_slope_deviation": max_dev,
            "irregular_rays": irregular,
        },
        thresholds={
            **thresholds,
            "cea_depth": CEA_DEPTH,
            "rays": rays,
            "depth": depth,
        },
        witnesses={
            "slowest_ray": min(ray_data, key=lambda r: r["slope"])["letters"] if ray_data else None,
        },
        details={
            **parts,
            "cea_records": cea_records,
            "rays": ray_data,
        },
        seed=sample.seed,
    )


def _matrix_power(m: np.ndarray, k: int) -> np.ndarray:
    out = np.eye(m.shape[0])
    base = m.copy()
    while k:
        if k & 1:
            out = out @ base
        base = base @ base
        k >>= 1
    return normalize_det(out)


def _repelling_transversality(flag: Flag, vt_rows: np.ndarray, d: int) -> float:
    # Smallest singular value of V1^T Y: the angle to the repelling stratum.
    y = flag.basis(d)
    return float(np.linalg.svd(vt_rows[:d, :] @ y, compute_uv=False)[-1])


def schottky_build(elements, face: FaceType, margin_floor: float = 0.05,
                   max_power: int = 256) -> tuple[FreeGroupPresentation, PropertyReport]:
    """Certify a ping-pong system on the flag manifold by a doubling search.

    Inputs are hyperbolic matrices (or (flag_plus, flag_minus, strength)
    axis triples, which are realized as transvections).  Neighborhoods
    are metric balls around the attracting/repelling flags of the powered
    generators with radius half the minimal pairwise flag separation; the
    criterion moves every other ball of the table into the attracting
    ball, certified by a singular-value contraction bound (the ball's
    transversality to the repelling stratum is lower-bounded through the
    CS decomposition).  Raises TransversalityTooSmall for non-transverse
    axes and PingPongFailed past the power budget.
    """
    if not face.is_iota_invariant:
        raise ValueError("ping-pong on a single flag manifold needs an iota-invariant type")
    mats = []
    for el in elements:
        if isinstance(el, (tuple, list)) and len(el) == 3 and isinstance(el[0], Flag):
            plus, minus, strength = el
            basis = make_parallel_set(minus, plus)
            n = face.n
            direction = np.arange(n, 0, -1, dtype=float)
            direction -= direction.mean()
            direction /= np.linalg.norm(direction)
            diag = np.diag(np.exp(float(strength) * direction))
            mats.append(basis @ diag @ np.linalg.inv(basis))
        else:
            mats.append(np.asarray(el, dtype=float))

    # Axis transversality from powers kept inside the precision budget.
    axis_flags: list[Flag] = []
    for m in mats:
        probe = m.copy()
        nxt = probe
        for _ in range(16):
            nxt = nxt @ m
            if np.abs(nxt).max() > 1e6 or abs(np.linalg.det(nxt)) < 1e-8:
                break
            probe = nxt
        probe = normalize_det(probe)
        try:
            plus, _, _ = attractive_flag(probe, face)
            minus_plus, _, _ = attractive_flag(np.linalg.inv(probe), face)
        except VanishingGap as exc:
            raise TransversalityTooSmall(f"element is not proximal enough: {exc}") from exc
        axis_flags.extend([plus, minus_plus])
    for i in range(len(axis_flags)):
        for j in range(i + 1, len(axis_flags)):
            if antipodality_margin(axis_flags[i], axis_flags[j]) < margin_floor:
                raise TransversalityTooSmall(
                    f"axis flags {i} and {j} below transversality floor {margin_floor}")

    power = 1
    history = []
    norm_cap = 1e8
    while power <= max_power:
        if any(np.linalg.svd(m, compute_uv=False)[0] ** power > norm_cap for m in mats):
            raise PingPongFailed(
                f"power {power} exceeds the floating-point budget before certification")
        gens = [_matrix_power(m, power) for m in mats]
        signed = []
        for g in gens:
            signed.append(g)
            signed.append(np.linalg.inv(g))
        try:
            flags = [attractive_flag(h, face)[0] for h in signed]
        except VanishingGap:
            power *= 2
            continue
        # signed[2i] = g_i with attracting flags[2i], repelling flags[2i+1].
        npairs = len(signed)
        pairwise = min(
            flag_distance(flags[i], flags[j])
            for i in range(npairs) for j in range(i + 1, npairs)
        )
        rad = pairwise / 2.0
        ok = rad > 0.0
        worst_bound = 0.0
        for idx, h in enumerate(signed):
            rep_idx = idx + 1 if idx % 2 == 0 else idx - 1
            u, s, vt = np.linalg.svd(h)
            # widened by LAPACK's error bound on each singular value, EPSMCH * s_1 with
            # EPSMCH the unit roundoff eps / 2 (LAPACK Users' Guide, section 4.9.1)
            err = 0.5 * np.finfo(float).eps * s[0]
            kappa = max((s[d] + err) / (s[d - 1] - err) for d in face.dims)
            for sidx in range(npairs):
                if sidx == rep_idx:
                    continue
                center = flags[sidx]
                s_raw = min(
                    _repelling_transversality(center, vt, d) for d in face.dims
                )
                s_lb = s_raw * math.sqrt(max(0.0, 1.0 - rad * rad)) - rad
                if s_lb <= 0.0:
                    ok = False
                    break
                bound = kappa / s_lb
                worst_bound = max(worst_bound, bound)
                if bound > rad:
                    ok = False
                    break
            if not ok:
                break
        history.append({"power": power, "radius": rad, "ok": ok, "worst_bound": worst_bound})
        if ok:
            pres = FreeGroupPresentation(tuple(gens))
            report = PropertyReport(
                name="schottky-ping-pong",
                verdict=True,
                constants={"power": power, "radius": rad, "worst_bound": worst_bound,
                           "pairwise_separation": pairwise},
                thresholds={"margin_floor": margin_floor, "max_power": max_power},
                details={"history": history},
            )
            return pres, report
        power *= 2
    raise PingPongFailed(f"no admissible power up to {max_power}; history: {history}")


def symmetric_square(m: np.ndarray) -> np.ndarray:
    """Irreducible 3-dimensional image of a 2x2 matrix.

    In the orthonormal basis (x^2, sqrt(2) x y, y^2): takes SL(2) into
    SL(3), rotations to rotations, and diag(s, 1/s) to diag(s^2, 1, s^-2).
    """
    a, b = float(m[0, 0]), float(m[0, 1])
    c, d = float(m[1, 0]), float(m[1, 1])
    r2 = np.sqrt(2.0)
    return np.array([
        [a * a, r2 * a * b, b * b],
        [r2 * a * c, a * d + b * c, r2 * b * d],
        [c * c, r2 * c * d, d * d],
    ])
