"""Instance extraction: admit document candidates related to marked objects.

:func:`extract_corpus` is the one entry point; it returns each document's
instances keyed by document id. A candidate phrase is admitted as an
instance iff its composite relatedness
(:func:`~vendormatch.textstats.relatedness_terms`) to some marked object
falls under ``bound = max(r_threshold, fallback_threshold)``, and flagged
``via_fallback`` when no marked object's falls under ``r_threshold``; a
fallback at or below the primary threshold therefore admits nothing extra.
Each admitted instance immediately updates the marking, so vocabulary
discovered early in a corpus pass is available to later documents.

Every lookup goes through :class:`_MarkedIndex`. Its docstring gives the
checks that leave a marked object unscored (the length cut, the code-sum
window and the exact code-point distance check, all read from integer code
points), the exact-hit rule, the early miss that no row can answer and the
remembered misses; none of them changes the output.
Only a pair that passes every check reaches the kernel, which scores it in
full, and a lookup stops at the first score under ``r_threshold``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from typing import Mapping, NamedTuple

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
    """One extracted instance, keyed by its phrase; ``via_fallback`` is True
    when only ``fallback_threshold`` admitted it."""

    frequency: int
    via_fallback: bool


class InstanceSet(_Fields):
    """Instances extracted from one document, keyed by phrase."""

    __slots__ = __match_args__ = ("instances",)

    def __init__(self, instances: dict[str, InstanceRecord] | None = None) -> None:
        self.instances = {} if instances is None else instances

    def __len__(self) -> int:
        return len(self.instances)


#: Absolute widening of the code-sum window and the distance check, which
#: read exact integer code points and their sums (:func:`_points`), not the
#: float codes the kernel reads. With M the largest scaled code (1 for ASCII,
#: < 8,774 for any code point) and u = 2**-53, each float code is within u M
#: of the exact one, and each float difference of two codes within 3 u M;
#: the checks below lose no more than that, under 3e-12, to the float codes.
#: Measured on phrases of up to 4,000 characters, ``S / (127 n)`` stays
#: under 2e-16 from the mean of the float codes for ASCII and under 2e-12 up
#: to U+10FFFF.
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
# rounding, L u / 2 + 3 u, and by its float differences' error, under 3 u M.
# Its gap term is at least 0 and its variance term is clamped at 0, so
# relatedness is at least d, less 3 u M and a relative L u / 2 + 10 u, which
# _slack covers beside a fixed count of roundings. A row is skipped when d
# exceeds edge = limit + 2 _KEY_SLACK, the code-sum window's edge below,
# with limit = bound / _slack(size), or r_threshold / _slack(size) once a
# row has scored under ``bound``: its score is then above that threshold,
# and it cannot change the answer.
# The code-sum window. Every term is non-negative, so a kernel score is at
# least its distance term, which is at least the absolute mean of the L
# differences (Cauchy-Schwarz), short only by the kernel's relative
# rounding: L u / 2 in its sum of squares and 3 u in its sqrt and division.
# Each float difference is within 3 u M of the exact one, so that mean is
# within 3 u M of m = |S_row - S_cand| / (127 L). A row that scores at or
# under the threshold, limit * _slack(size), therefore has m under limit *
# (1 - 5e-10) + 3 u M, since _slack's 3 size u outweighs the kernel's
# rounding. The window keeps |S_row - S_cand| <= 127 L edge: 2 _KEY_SLACK
# covers the 3 u M, and the relative 5e-10 the two roundings of ``edge`` and
# of the product. The ends S_cand -+ 127 L edge round monotonically, so past
# no integer inside the window, and are infinite at an infinite bound.


def _slack(size: int) -> float:
    """One less the relative slack of a pair of longer length ``size``.

    Taken left to right, the kernel's sum of ``size`` squares can fall a
    relative ``size * u`` (u = 2**-53) short of the exact one, its distance
    term half that. ``3 * size * u`` covers that six times over, and 1e-9 a
    fixed count of roundings; a tighter slack would only skip a few more
    rows at the edge of a bound. The slack only grows with ``size``.
    """
    return 1.0 - 1e-9 - 3 * size * 2.0**-53


def _points(phrase: str) -> tuple[tuple[int, ...], int]:
    """A phrase's code points and their exact sum S.

    An ASCII phrase's UTF-8 bytes are its code points, and ``str.encode``
    makes them in one C call where ``map(ord, ...)`` makes one call per
    character. The tokenizer makes every candidate ASCII; only a marking row
    can take the slower path, and the integers are the same either way.
    """
    points = tuple(phrase.encode() if phrase.isascii() else map(ord, phrase))
    return points, sum(points)


class _MarkedIndex:
    """Marked-object vectors, scored only where they can fall under a bound.

    The thresholds are fixed when the index is built; ``bound`` is the
    larger of the two. Rows are the vectors in the marking's key order,
    also bucketed by length, each bucket sorted by its rows' exact integer
    code sums S (:func:`_points`) beside their code points. Every check is
    read from these integers, never from float codes, so a vector builds
    its codes and its fsum stddev
    (:class:`~vendormatch.textstats.ObjectVector` builds them on first read)
    only when the kernel scores it. Relatedness is ``dist + gap + variance``
    with every term non-negative, so a lower bound on the distance term
    alone prunes soundly, and three checks leave a row out:

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
      it visits for the rows whose S lies within ``127 L`` times the
      threshold in force (``bound``, then ``r_threshold`` once a row has
      scored under ``bound``), widened as derived beside ``_KEY_SLACK``;
    - the distance check: the distance term ``d`` comes from the exact
      Euclidean distance of the integer code points, the shorter side
      zero-padded, in one :data:`_distance` call. A row is skipped when
      ``d``, widened as derived beside ``_KEY_SLACK``, exceeds the threshold
      in force.

    :meth:`admit` scores each remaining row in full with
    :func:`~vendormatch.textstats.relatedness_terms`, the value a scan of
    every row would give. It answers at the first score under
    ``r_threshold``; a score under ``bound`` only marks the candidate as a
    fallback, and the search goes on at ``r_threshold``. A skipped row
    scores at least the threshold in force, so pruning changes no answer.

    ``_phrases`` holds every row's phrase. A candidate equal to a row
    scores exactly 0.0 against it, under any ``r_threshold`` (which
    :class:`~vendormatch.config.Thresholds` keeps above 0), so it is
    admitted without a search. A candidate of n characters is a miss
    without a search, and without S, when no row has length n,
    ``_longer`` has no entry for n (a present entry is never empty) and the
    length cut already skips length n - 1, whose tail T is the candidate's
    last code point squared: T only grows as rows get shorter, so no bucket
    is left in play. That last-character test also spares a search the
    shorter-row walk. ``_missed`` holds the phrases whose lookup found no
    row since the last :meth:`append`.
    """

    def __init__(
        self, marking: dict[str, int], r_threshold: float, fallback_threshold: float
    ) -> None:
        self._r = r_threshold
        self._bound = max(r_threshold, fallback_threshold)
        self._reach(1)
        # per length, parallel lists sorted by code sum: the sums, each
        # row's code points and its vector
        self._buckets: dict[int, tuple[list[int], list[tuple[int, ...]], list[ObjectVector]]] = {}
        self._longer: dict[int, list[int]] = {}  # see the length cut above
        self._phrases: set[str] = set()
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

    def append(self, vec: ObjectVector) -> None:
        phrase = vec.phrase
        points, total = _points(phrase)
        length = len(points)
        if length > self._size:
            self._reach(length)
        self._phrases.add(phrase)
        self._missed.clear()  # a new row can turn any miss into a hit

        sums, codes, vectors = self._buckets.setdefault(length, ([], [], []))
        at = bisect_right(sums, total)
        sums.insert(at, total)
        codes.insert(at, points)
        vectors.insert(at, vec)
        tail, most = 0, length * self._cut
        for n in range(length - 1, 0, -1):  # the row's tail past n
            tail += points[n] * points[n]
            if tail >= most:
                break  # the tail only grows as n falls
            longer = self._longer.setdefault(n, [])
            if length not in longer:
                insort(longer, length)

    def admit(self, vec: ObjectVector) -> bool | None:
        """Whether the candidate is admitted only through the fallback.

        Returns None when no row scores under the index's ``bound`` (an
        empty index included), False when one scores under
        ``r_threshold`` and True otherwise; ``math.inf`` admits every
        candidate.
        """
        phrase = vec.phrase
        if phrase in self._missed:
            return None
        if phrase in self._phrases:
            return False
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

        fallback = False  # whether a row has scored under ``bound``
        edge = self._limit + 2 * _KEY_SLACK  # a distance check above it skips the row
        for length in kept:
            bucket = self._buckets.get(length)
            if bucket is None:
                continue
            sums, codes, vectors = bucket
            size = max(n, length)
            width = CODE_SCALE * size * edge  # the code-sum window (derived beside _KEY_SLACK)
            lo = bisect_left(sums, total - width)
            hi = bisect_right(sums, total + width, lo)
            if lo == hi:
                continue
            # the shorter side is zero-padded to the pair's length
            probe, pad = points + (0,) * (size - n), (0,) * (size - length)
            root = CODE_SCALE * math.sqrt(size)
            for i in range(lo, hi):
                if _distance(codes[i] + pad, probe) / root > edge:
                    continue  # the distance check (derived beside _KEY_SLACK)
                dist, gap, variance = relatedness_terms(vectors[i], vec)
                r = dist + gap + variance
                if r < self._r:
                    return False
                if r < self._bound:
                    fallback = True
                    edge = self._r / self._slack + 2 * _KEY_SLACK
        if not fallback:
            self._missed.add(phrase)
            return None
        return True


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
    accumulated) before the next candidate is scored. One gazetteer index
    answers every lookup of the call and grows with each new admitted phrase.
    """
    index = _MarkedIndex(marking, thresholds.r_threshold, thresholds.fallback_threshold)
    results = {}
    for doc_id in sorted(documents):
        result = results[doc_id] = InstanceSet()
        for phrase, frequency in candidates(tokenize(documents[doc_id])).items():
            # every candidate is encoded: benchmark/tracing.py counts the
            # index's own encodes as encode calls less candidates
            vec = encode(phrase)
            via_fallback = index.admit(vec)
            if via_fallback is None:
                continue
            if phrase not in marking:
                index.append(vec)
            update_marking(marking, phrase, frequency)
            result.instances[phrase] = InstanceRecord(frequency, via_fallback)
    return results
