"""Instance extraction: admit document candidates related to marked objects.

:func:`extract_corpus` is the one entry point; it returns each document's
instances keyed by document id. A candidate phrase is admitted as an
instance iff its smallest composite relatedness
(:func:`~vendormatch.textstats.relatedness_terms`) to any marked object
falls under ``bound = max(r_threshold, fallback_threshold)``, and flagged
``via_fallback`` when that value is not under ``r_threshold``; a fallback
at or below the primary threshold therefore admits nothing extra. Each
admitted instance immediately updates the marking, so vocabulary
discovered early in a corpus pass is available to later documents.

Every lookup goes through :class:`_MarkedIndex`. Its docstring gives the
checks that leave a marked object unscored (the length cut, the code-sum
window, the stddev check and the exact code-point distance check, all read
from integer code points), the exact-hit rule, the early miss that no row
can answer and the remembered misses; none of them changes the output.
Only a pair that passes every check reaches the kernel, which scores it in
full.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from .config import Thresholds, _Fields
from .marking import update_marking
from .textstats import (
    CODE_SCALE,
    ObjectVector,
    candidates,
    encode,
    relatedness_terms,
    tokenize,
)


class InstanceRecord(NamedTuple):
    """One extracted instance with its provenance; its phrase is its key."""

    frequency: int
    best_r: float
    matched_marked_phrase: str
    via_fallback: bool


class InstanceSet(_Fields):
    """Instances extracted from one document, keyed by phrase."""

    __slots__ = __match_args__ = ("instances",)

    def __init__(self, instances: dict[str, InstanceRecord] | None = None) -> None:
        self.instances = {} if instances is None else instances

    def __len__(self) -> int:
        return len(self.instances)


#: Absolute widening of the stddev check, the code-sum window and the
#: distance check, whose keys are exact integer moments (:func:`_points`,
#: :func:`_sigma`), not the float codes the kernel reads. With M the largest
#: scaled code (1 for ASCII, < 8,774 for any code point) and u = 2**-53: each
#: float code is within u M of the exact one, and a population stddev moves
#: by at most the largest change of an element; the two ``math.fsum`` passes
#: add under 4 u M, and the key (``n * Q - S * S`` rounded once, then a sqrt
#: and a division) under 2 u M. So a key is within 7 u M < 7e-12 of the
#: kernel's stddev, and ``|S_row - S_cand| / (127 L)`` within 2 u M of
#: ``|s1| / L``. Measured on phrases of up to 4,000 characters, the gaps stay
#: under 2e-16 for ASCII and 1e-12 up to U+10FFFF.
_KEY_SLACK = 1e-9
#: The Euclidean distance of two code-point sequences of one length, in one C
#: call; on integers it stays within 4 u of the exact value (measured under
#: 1 u on Python 3.10-3.13).
_distance = math.dist
# The distance check. For a pair of longer length L, with the shorter side
# zero-padded to L as the kernel pads its codes, D = _distance(row, cand) is
# the Euclidean distance of the integer code points, so d = D / (127
# sqrt(L)), three roundings later, is within 7 u of the exact distance term.
# The kernel's distance term falls short of that exact term by its relative
# rounding, L u / 2 + 3 u, and by its float codes' error, under 3 u M. Its
# gap term is within 15 u M < _KEY_SLACK / 2 of the key gap g. Its variance
# term is at least the variance floor v less the cancellation: v is g**2 at
# the candidate's own length n, where population stddev is a seminorm, and 0
# at others; g**2 is within g _KEY_SLACK of the kernel's gap squared, where
# d >= g makes that a relative 5e-10 of the check; and the float value of
# s2 / n - (s1 / n)**2 can fall (3 n + 8) u s2 / n = cancel d**2 short of the
# exact variance (at other lengths the kernel clamps it at 0, so there the
# term only loosens the check). So relatedness is at least d + g + v - cancel
# d**2, less _KEY_SLACK and a relative L u / 2 + 10 u + 5e-10, which _slack
# covers beside a fixed count of roundings. A row is skipped when that value
# exceeds edge = limit + 2 _KEY_SLACK, the code-sum window's edge below,
# with limit = best / _slack(size): its score is then above the best score
# so far. The same errors bound the check from above, so a row tied with
# the best score has a check under edge and is scored, also at 0.0.
# Since d >= g at the own length, relatedness is also at least 2 g + g**2,
# under ``bound`` only while g < sqrt(1 + bound) - 1: that stddev window,
# widened by _KEY_SLACK (which also covers its rounding), is about half the
# ``bound`` other lengths keep.
# The code-sum window. Every term is non-negative, so a kernel score is at
# least its distance term, which is at least the absolute mean of the L
# differences (Cauchy-Schwarz), short only by the kernel's relative
# rounding: L u / 2 in its sum of squares and 3 u in its sqrt and division.
# Each float difference is within 3 u M of the exact one, so that mean is
# within 3 u M of m = |S_row - S_cand| / (127 L). A row that ties or beats
# the best score, best = limit * _slack(size), therefore has m under limit *
# (1 - 5e-10) + 3 u M, since _slack's 3 size u outweighs the kernel's
# rounding. The window keeps |S_row - S_cand| <= 127 L edge: 2 _KEY_SLACK
# covers the 3 u M, and the relative 5e-10 the two roundings of ``edge`` and
# of the product. The ends S_cand -+ 127 L edge round monotonically, so past
# no integer inside the window, and are infinite at an infinite bound. The
# window has no variance term, so it loses nothing to the cancellation.


def _slack(size: int) -> float:
    """One less the relative slack of a pair of longer length ``size``.

    Taken left to right, the kernel's sum of ``size`` squares can fall a
    relative ``size * u`` (u = 2**-53) short of the exact one, its distance
    term half that. The own stddev window leaves the variance term's loss,
    (3 n + 8) u s2 / n, to this slack too: at the window's edge the
    least-scoring pair has s2 / n = gap**2, under the bound 2 gap + gap**2.
    Hence ``3 * size * u``, beside 1e-9 for the keys' relative 5e-10 and a
    fixed count of roundings. The slack only grows with ``size``.
    """
    return 1.0 - 1e-9 - 3 * size * 2.0**-53


def _points(phrase: str) -> tuple[Sequence[int], int]:
    """A phrase's code points and their exact sum S.

    An ASCII phrase's UTF-8 bytes are its code points, and ``str.encode``
    makes them in one C call where ``map(ord, ...)`` makes one call per
    character. The tokenizer makes every candidate ASCII; only a marking row
    can take the slower path, and the integers are the same either way.
    """
    points = phrase.encode() if phrase.isascii() else list(map(ord, phrase))
    return points, sum(points)


def _sigma(points: Sequence[int], total: int) -> float:
    """The stddev key of code points summing to ``total``.

    ``sqrt(n * Q - S * S) / (127 * n)`` from the exact integer sum S and sum
    of squares Q of the n code points; it stands in for the ``math.fsum``
    stddev of :func:`encode` within ``_KEY_SLACK``.
    """
    n = len(points)
    spread = n * sum(map(mul, points, points)) - total * total
    return math.sqrt(spread) / (CODE_SCALE * n)


class _MarkedIndex:
    """Marked-object vectors, scored only where they can beat a bound.

    The bound is fixed when the index is built. Rows are the vectors in the
    marking's key order, also bucketed by length, each bucket sorted by its
    rows' exact integer code sums S (:func:`_points`) beside their stddev
    keys (:func:`_sigma`) and their code points. Every check is read from
    these integers, never from float codes, so a vector builds its codes and
    its fsum stddev (:class:`~vendormatch.textstats.ObjectVector` builds
    them on first read) only when the kernel scores it. A candidate's key is
    computed only once a bucket's code-sum window holds a row. Relatedness
    is ``dist + gap + variance`` with every term non-negative, so four
    checks leave a row out:

    - the length cut: the distance term is at least ``sqrt(T / L)``, where
      L is the longer length of the pair and T the sum of squared codes of
      the longer side past the shorter one's end, which the other side pads
      with zeros. A whole bucket is skipped when this bound, less the
      relative slack of :func:`_slack`, reaches ``bound``. For shorter
      rows T is the candidate's own tail, summed in each lookup. For longer
      rows it is the row's tail past the candidate's length n, which
      :meth:`append` works out for every n: ``_longer[n]`` lists, in
      ascending order, each length L > n of a row whose tail past n is
      under the cut, the only longer buckets a lookup visits;
    - the code-sum window: the distance term is at least the mean term
      ``m = |S_row - S_cand| / (127 L)``, so a search bisects each bucket
      it visits for the rows whose S lies within ``127 L`` times the best
      score so far (it starts at ``bound``), widened as derived beside
      ``_KEY_SLACK``;
    - the stddev check: relatedness is at least the stddev gap, so only
      a row whose key lies within ``bound`` of the candidate's, widened by
      ``_KEY_SLACK`` for the keys' distance from the kernel's stddevs, can
      score under ``bound``; at the candidate's own length the distance
      check narrows it to ``sqrt(1 + bound) - 1``, about half as wide;
    - the distance check: the distance term ``d`` comes from the exact
      Euclidean distance of the integer code points, the shorter side
      zero-padded, in one :data:`_distance` call. The variance of the
      difference vector is at least the variance floor v, ``gap**2`` at the
      candidate's own length, where population stddev is a seminorm, and 0
      at others, so relatedness is at least ``d + gap + v``. A row is
      skipped when this bound, less the variance term's rounding loss and
      widened as derived beside ``_KEY_SLACK``, exceeds the best score so
      far.

    :meth:`best` scores each remaining row in full with
    :func:`~vendormatch.textstats.relatedness_terms`, the value a scan of
    every row would give, and keeps the smallest ``(relatedness, row)``. A
    skipped row scores at least ``bound`` or more than a row already
    scored, so pruning changes no output. A row tied with the best score
    passes every check, also at a score of 0.0, so it is still scored and
    ties still go to the earliest row, whatever the code-sum order walks
    first.

    ``_stems`` maps each row's stem, its phrase less trailing NUL
    characters, to that row, or to None once two rows share it: zero
    padding lets such rows tie at exactly 0.0. A row alone with its stem is
    its own answer at 0.0, returned without a search while ``bound`` is
    above 0. A candidate of n characters is a miss without a search, and
    without S or its key, when no row has length n, ``_longer`` has no entry
    for n (a present entry is never empty) and the length cut already skips
    length n - 1, whose tail T is the candidate's last code point squared:
    T only grows as rows get shorter, so no bucket is left in play. That
    last-character test also spares a search the shorter-row walk.
    ``_missed`` holds the phrases whose lookup found no row since the last
    :meth:`append`.
    """

    def __init__(self, marking: dict[str, int], bound: float) -> None:
        self._bound = bound
        self._reach(1)
        self._rows: list[ObjectVector] = []
        # per length, parallel lists sorted by code sum: the sums, each
        # row's stddev key, its code points and its id
        self._buckets: dict[
            int, tuple[list[int], list[float], list[tuple[int, ...]], list[int]]
        ] = {}
        self._longer: dict[int, list[int]] = {}  # see the length cut above
        self._stems: dict[str, str | None] = {}
        self._missed: set[str] = set()
        for phrase in marking:
            self.append(encode(phrase))

    def _reach(self, size: int) -> None:
        """Take the slack of ``size`` characters, the longest phrase yet seen.

        That slack covers every pair of phrases the index has seen.
        """
        self._size = size
        self._slack = _slack(size)
        # the length bound sqrt(T / L) / 127, less the slack, of a pair with
        # longer length L and squared code points T in the longer side's
        # tail reaches ``bound`` exactly when T >= L * cut
        scaled = CODE_SCALE * self._bound / self._slack
        # ``**`` raises OverflowError at a huge bound; below ~1e-164 the square
        # underflows to 0.0, which would cut a tail of NULs only (T = 0); the
        # smallest float still cuts every positive (integer) tail
        self._cut = scaled * scaled or 5e-324
        self._limit = self._bound / self._slack
        # the own length's stddev window (derived beside _KEY_SLACK)
        self._own = math.sqrt(1.0 + self._limit) - 1.0

    def append(self, vec: ObjectVector) -> None:
        phrase = vec.phrase
        points, total = _points(phrase)
        row, length = len(self._rows), len(points)
        if length > self._size:
            self._reach(length)
        self._rows.append(vec)
        stem = phrase.rstrip("\x00")
        self._stems[stem] = None if stem in self._stems else phrase
        self._missed.clear()  # a new row can turn any miss into a hit

        sums, sigmas, codes, rows = self._buckets.setdefault(length, ([], [], [], []))
        at = bisect_right(sums, total)
        sums.insert(at, total)
        sigmas.insert(at, _sigma(points, total))
        codes.insert(at, tuple(points))
        rows.insert(at, row)
        tail, most = 0, length * self._cut
        for n in range(length - 1, 0, -1):  # the row's tail past n
            tail += points[n] * points[n]
            if tail >= most:
                break  # the tail only grows as n falls
            longer = self._longer.setdefault(n, [])
            if length not in longer:
                insort(longer, length)

    def best(self, vec: ObjectVector) -> tuple[float, str] | None:
        """Smallest relatedness to any row with the earliest such row's phrase.

        Returns None when no row scores under the index's ``bound`` (an
        empty index included); ``math.inf`` scores every row.
        """
        phrase = vec.phrase
        if phrase in self._missed:
            return None
        if self._bound > 0 and self._stems.get(phrase.rstrip("\x00")) == phrase:
            return 0.0, phrase
        n = len(phrase)  # the code-point count on both of _points' paths
        if n > self._size:
            self._reach(n)
        tail, most = ord(phrase[-1]) ** 2, n * self._cut  # the tail past n - 1
        if tail >= most and n not in self._buckets and n not in self._longer:
            # no own-length row, no longer row, and the length cut skips
            # every shorter row: no row is in play
            self._missed.add(phrase)
            return None
        points, total = _points(phrase)
        kept = [n]  # lengths of the buckets the length bound leaves in play
        for length in range(n - 1, 0, -1):  # shorter rows: the candidate's tail
            if tail >= most:
                break  # the tail only grows as rows get shorter
            kept.append(length)
            tail += points[length - 1] * points[length - 1]
        kept += self._longer.get(n, ())  # longer rows: their own tails

        # the variance term's float error per unit of d**2 (derived beside
        # _KEY_SLACK)
        cancel = (3 * n + 8) * 2.0**-53
        best = (self._bound, -1)  # beaten only by a row scoring under ``bound``
        slack = self._slack
        edge = self._limit + 2 * _KEY_SLACK  # a distance check above it skips the row
        sigma = None  # the candidate's key, once a window holds a row
        for length in kept:
            bucket = self._buckets.get(length)
            if bucket is None:
                continue
            sums, sigmas, codes, rows = bucket
            size = max(n, length)
            width = CODE_SCALE * size * edge  # the code-sum window (derived beside _KEY_SLACK)
            lo = bisect_left(sums, total - width)
            hi = bisect_right(sums, total + width, lo)
            if lo == hi:
                continue
            if sigma is None:
                sigma = _sigma(points, total)
                points = tuple(points)
            # the shorter side is zero-padded to the pair's length
            probe, pad = points + (0,) * (size - n), (0,) * (size - length)
            root = CODE_SCALE * math.sqrt(size)
            # the variance floor v is g**2 at the candidate's length, else 0
            half, floor = (self._own, 1.0) if length == n else (self._bound, 0.0)
            half += _KEY_SLACK
            for i in range(lo, hi):
                g = abs(sigmas[i] - sigma)
                if g > half:
                    continue
                d = _distance(codes[i] + pad, probe) / root
                if d + g + floor * g * g - cancel * d * d > edge:
                    continue
                dist, gap, variance = relatedness_terms(self._rows[rows[i]], vec)
                scored = (dist + gap + variance, rows[i])
                if scored < best:
                    best = scored
                    edge = best[0] / slack + 2 * _KEY_SLACK
        r, row = best
        if row < 0:
            self._missed.add(phrase)
            return None
        return r, self._rows[row].phrase


def extract_corpus(
    documents: Mapping[str, str],
    marking: dict[str, int],
    thresholds: Thresholds,
) -> dict[str, InstanceSet]:
    """Extract every document in ascending id order, updating the marking.

    Marking updates are order-dependent, so the iteration order is fixed
    to keep corpus runs reproducible. Within a document, candidates are
    processed in first-occurrence order; each admitted instance is written
    into the marking (new phrase appended, known phrase's frequency
    accumulated) before the next candidate is scored. One gazetteer index,
    bounded by ``max(r_threshold, fallback_threshold)``, serves the whole
    call, grows with each new admitted phrase and answers every lookup.
    """
    index = _MarkedIndex(marking, max(thresholds.r_threshold, thresholds.fallback_threshold))
    results = {}
    for doc_id in sorted(documents):
        result = results[doc_id] = InstanceSet()
        for phrase, frequency in candidates(tokenize(documents[doc_id])).items():
            # every candidate is encoded: benchmark/tracing.py counts the
            # index's own encodes as encode calls less candidates
            vec = encode(phrase)
            hit = index.best(vec)
            if hit is None:
                continue
            best_r, matched = hit
            if phrase not in marking:
                index.append(vec)
            update_marking(marking, phrase, frequency)
            result.instances[phrase] = InstanceRecord(
                frequency=frequency,
                best_r=best_r,
                matched_marked_phrase=matched,
                via_fallback=best_r >= thresholds.r_threshold,
            )
    return results
