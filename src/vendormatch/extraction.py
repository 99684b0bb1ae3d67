"""Instance extraction: admit document candidates related to marked objects.

:func:`extract_corpus` is the one entry point; it returns each document's
instances keyed by document id. A candidate phrase is admitted as an
instance iff its smallest composite relatedness
(:func:`~vendormatch.textstats.relatedness_terms`) to any marked object
falls under ``bound = max(r_threshold, fallback_threshold)``, and flagged
``via_fallback`` when that value is not under ``r_threshold``; a fallback
at or below the primary threshold therefore admits nothing extra.

A candidate is scored only against the marked objects that three cheap
checks leave in play: a window around its stddev, a cut on the distance
the longer side's unmatched tail alone contributes, and one lower bound on
each row's relatedness from the two sides' code sums and stddevs, checked
against the best score found so far. At the candidate's own length that
bound also counts the variance the stddev gap forces, which narrows the
stddev window to about half. The relatedness kernel abandons a pair as
soon as its running sum of squares shows it cannot reach the best score so
far (see :class:`_MarkedIndex`). A marked object skipped or abandoned this
way relates above the best score so far or at ``bound`` or above, so it
could neither admit the candidate nor be its best match: pruning changes
no output.

The bounds read exact integer moments of a phrase's code points, not its
float codes. Every candidate is encoded, but an
:class:`~vendormatch.textstats.ObjectVector` computes its codes and stddev
only when first read, so a candidate whose lookup scores no row never pays
for them.

A candidate that is already a marked object is answered without a lookup:
its own row relates at exactly 0.0, and every other row relates above 0.0
unless it is the candidate followed by NUL characters only, which zero
padding can tie; a candidate with such a row is looked up as usual.

Each admitted instance immediately updates the marking, so vocabulary
discovered early in a corpus pass is available to later documents. A
candidate whose lookup admitted nothing is skipped without a lookup until
the gazetteer gains a row: until then its answer cannot change.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from operator import mul
from typing import Mapping

from .config import Thresholds
from .marking import update_marking
from .textstats import (
    CODE_SCALE,
    ObjectVector,
    candidates,
    encode,
    relatedness_terms,
    tokenize,
)


@dataclass(frozen=True)
class InstanceRecord:
    """One extracted instance with its provenance; its phrase is its key."""

    frequency: int
    best_r: float
    matched_marked_phrase: str
    via_fallback: bool


@dataclass
class InstanceSet:
    """Instances extracted from one document, keyed by phrase."""

    instances: dict[str, InstanceRecord] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.instances)


#: Relative slack on the length cut and the row bound, which the kernel's
#: float sums, taken left to right, can undercut by ~1e-15.
_LENGTH_SLACK = 1.0 - 1e-9
#: Absolute widening of the stddev window and the row bound, whose keys are
#: exact integer moments (:func:`_moments`), not the float codes the kernel
#: reads. With M the largest scaled code (1 for ASCII, < 8,774 for any code
#: point) and u = 2**-53: each float code is within u M of the exact one, and
#: a population stddev moves by at most the largest change of an element;
#: the two ``math.fsum`` passes add under 4 u M, and the key (``n * Q - S * S``
#: rounded once, then a sqrt and a division) under 2 u M. So a key is within
#: 7 u M < 7e-12 of the kernel's stddev, and ``|S_row - S_cand| / (127 L)``
#: within 2 u M of ``|s1| / L``. Measured on phrases of up to 4,000
#: characters, the gaps stay under 2e-16 for ASCII and 1e-12 up to U+10FFFF.
_KEY_SLACK = 1e-9
# The row bound. For a pair of longer length L, s2 / L = var + m**2, with
# var the variance of b - a and m = |s1| / L the gap between the zero-padded
# code sums over L. At the candidate's own length n, var >= gap**2, since
# population stddev is a seminorm; padding breaks that at other lengths,
# where the floor is 0. With v that floor and q = v + m**2, relatedness is
# at least sqrt(q) + gap + v (at v = 0, the mean bound m + gap). Its
# widening: read from the keys, gap and m are each within 15 u M <
# _KEY_SLACK / 2 of the kernel's values. The bound's slope is at most
# 2 + 2 gap in gap and 1 in m, so the keys move it by at most 1.5 _KEY_SLACK
# plus gap _KEY_SLACK, and the bound is at least 2 gap: a widening of
# 2 _KEY_SLACK and a relative 5e-10, which _LENGTH_SLACK covers beside the
# kernel's own rounding. One more loss is not relative to the bound: the
# variance term s2 / n - (s1 / n)**2 cancels, and its float value can fall
# (3 n + 8) u s2 / n short of var. With s2 / n >= q, and sqrt(s2 / n) minus
# that loss growing with s2 / n at any realistic n, the bound drops
# (3 n + 8) u q, which at v = 0 only loosens it. Since sqrt(q) >= gap, at
# the own length relatedness is also at least 2 gap + gap**2, under
# ``bound`` only while gap < sqrt(1 + bound) - 1: that stddev window,
# widened by _KEY_SLACK (which also covers its rounding), is about half the
# ``bound`` other lengths keep. The relative slack holds for phrases of
# under a million characters.


def _moments(phrase: str) -> tuple[list[int], int, float]:
    """A phrase's code points, their exact sum and their stddev over 127.

    The stddev is ``sqrt(n * Q - S * S) / (127 * n)`` from the exact integer
    sum S and sum of squares Q of the n code points; it stands in for the
    ``math.fsum`` stddev of :func:`encode` within ``_KEY_SLACK``.
    """
    points = list(map(ord, phrase))
    n, total = len(points), sum(points)
    spread = n * sum(map(mul, points, points)) - total * total
    return points, total, math.sqrt(spread) / (CODE_SCALE * n)


class _Bucket:
    """The marked rows of one length, sorted by stddev key."""

    __slots__ = ("sigmas", "sums", "rows", "min_tail")

    def __init__(self, length: int) -> None:
        self.sigmas: list[float] = []
        self.sums: list[int] = []  # each row's exact code-point sum
        self.rows: list[int] = []  # row ids, in the order of ``sigmas``
        # min_tail[n]: the smallest sum of squared code points at positions n
        # and beyond over these rows, which a candidate of length n pads with zeros
        self.min_tail: list[float] = [math.inf] * length


class _MarkedIndex:
    """Marked-object vectors, scored only where they can beat a bound.

    Rows are the vectors in the marking's key order, also bucketed by
    length, each bucket sorted by stddev key. Every key comes from a
    phrase's exact integer code moments (:func:`_moments`), never from its
    float codes, so a lookup that no row survives never builds the
    candidate's codes (:class:`~vendormatch.textstats.ObjectVector` builds
    them on first read). Relatedness is ``dist + gap + variance`` with every
    term non-negative, so three checks leave a row out:

    - the stddev window: relatedness is at least the stddev gap, so only
      rows whose stddev key lies within ``bound`` of the candidate's,
      widened by ``_KEY_SLACK`` for the keys' distance from the kernel's
      stddevs, can score under ``bound``; at the candidate's own length the
      row bound narrows it to ``sqrt(1 + bound) - 1``, about half as wide;
    - the length cut: the distance term is at least ``sqrt(T / L)``, where
      L is the longer length of the pair and T the sum of squared codes of
      the longer side past the shorter one's end, which the other side pads
      with zeros. A whole bucket is skipped when this bound, less a 1e-9
      relative slack for summation order, reaches ``bound``;
    - the row bound: with zero padding ``dist**2`` is the variance of the
      difference vector plus ``m**2``, ``m = |S_row - S_cand| / L`` for code
      sums S. That variance is at least the variance floor v, ``gap**2`` at
      the candidate's own length, where population stddev is a seminorm,
      and 0 at others, so relatedness is at least ``sqrt(v + m**2) + gap +
      v``. A row in the window is skipped when this bound, widened as
      derived beside ``_KEY_SLACK``, exceeds the best score so far, which
      starts at ``bound``.

    :meth:`best` scores each remaining row with
    :func:`~vendormatch.textstats.relatedness_terms`, the value a scan of
    every row would give, and keeps the smallest ``(relatedness, row)``.
    The kernel abandons a row once its running sum of squares shows
    ``dist`` above the best score less the pair's stddev gap, widened by
    the 1e-9 slack. A skipped or abandoned row scores at least ``bound``
    or more than a row already scored, so pruning changes no output. A row
    tied with the best score has a bound below its score, or within the
    slacks of 0.0 at a score of 0.0, so it is still scored in full and ties
    still go to the earliest row.

    ``padded`` holds each phrase some row extends with NUL characters only:
    zero padding gives such a pair a distance of 0, so the two rows can tie
    at exactly 0.0 and a candidate's own row is not always its answer.
    """

    def __init__(self, marking: dict[str, int]) -> None:
        self._rows: list[ObjectVector] = []
        self._buckets: dict[int, _Bucket] = {}
        self._by_length: list[int] = []  # bucket lengths, ascending
        self.padded: set[str] = set()
        for phrase in marking:
            self.append(encode(phrase))

    def append(self, vec: ObjectVector) -> None:
        phrase = vec.phrase
        points, total, sigma = _moments(phrase)
        row, length = len(self._rows), len(points)
        self._rows.append(vec)
        if phrase.endswith("\x00"):
            self.padded.add(phrase.rstrip("\x00"))

        bucket = self._buckets.get(length)
        if bucket is None:
            bucket = self._buckets[length] = _Bucket(length)
            insort(self._by_length, length)
        at = bisect_right(bucket.sigmas, sigma)
        bucket.sigmas.insert(at, sigma)
        bucket.sums.insert(at, total)
        bucket.rows.insert(at, row)
        tail = 0
        for n in range(length - 1, 0, -1):
            tail += points[n] * points[n]
            bucket.min_tail[n] = min(bucket.min_tail[n], tail)

    def best(self, vec: ObjectVector, bound: float) -> tuple[float, str] | None:
        """Smallest relatedness to any row with the earliest such row's phrase.

        Returns None when no row scores under ``bound`` (an empty index
        included); ``math.inf`` scores every row.
        """
        points, total, sigma = _moments(vec.phrase)
        n = len(points)
        # the length bound sqrt(T / L) / 127, less the slack, of a pair with
        # longer length L and squared code points T in the longer side's
        # tail reaches ``bound`` exactly when T >= L * cut
        scaled = CODE_SCALE * bound / _LENGTH_SLACK
        cut = scaled * scaled  # ``**`` raises OverflowError at a huge bound
        kept = [n]  # lengths of the buckets the length bound leaves in play
        tail, most = 0, n * cut
        for length in range(n - 1, 0, -1):  # shorter rows: the candidate's tail
            tail += points[length] * points[length]
            if tail >= most:
                break  # the tail only grows as rows get shorter
            kept.append(length)
        for length in self._by_length[bisect_right(self._by_length, n) :]:
            if self._buckets[length].min_tail[n] < length * cut:
                kept.append(length)

        # the own length's stddev window and the variance term's float error
        # per unit of s2 / n (both derived beside _KEY_SLACK)
        own = math.sqrt(1.0 + bound / _LENGTH_SLACK) - 1.0
        cancel = (3 * n + 8) * 2.0**-53
        best = (bound, -1)  # beaten only by a row scoring under ``bound``
        limit = bound / _LENGTH_SLACK
        edge = limit + 2 * _KEY_SLACK  # a row bound above it skips the row
        for length in kept:
            bucket = self._buckets.get(length)
            if bucket is None:
                continue
            sigmas, sums, rows = bucket.sigmas, bucket.sums, bucket.rows
            # the variance floor v is g**2 at the candidate's length, else 0
            half, floor = (own, 1.0) if length == n else (bound, 0.0)
            size = max(n, length)
            scale = CODE_SCALE * size
            lo = sigma - half - _KEY_SLACK
            hi = sigma + half + _KEY_SLACK
            for i in range(bisect_left(sigmas, lo), bisect_right(sigmas, hi)):
                g = abs(sigmas[i] - sigma)
                m = abs(sums[i] - total) / scale
                v = floor * g * g
                q = v + m * m
                if math.sqrt(q) + g + v - cancel * q > edge:
                    continue
                # past the cap, dist exceeds limit - gap: dist + gap is above
                # the best score by a relative 1e-9, which rounding cannot
                # undo, so abandoning the row keeps every tie scored. A gap
                # over limit (only within the key slack) caps s2 below any
                # nonzero squared code step, and its score loses anyway.
                # Squared by ``*``, which gives inf where ``**`` would raise
                row = self._rows[rows[i]]
                gap = abs(row.stddev - vec.stddev)
                room = limit - gap
                terms = relatedness_terms(row, vec, size * (room * room))
                if terms is None:
                    continue
                dist, gap, variance = terms
                scored = (dist + gap + variance, rows[i])
                if scored < best:
                    best = scored
                    limit = best[0] / _LENGTH_SLACK
                    edge = limit + 2 * _KEY_SLACK
        r, row = best
        return None if row < 0 else (r, self._rows[row].phrase)


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
    serves the whole call and grows with each new admitted phrase. A set
    of the phrases that missed since the index last grew answers their
    repeats, so each distinct phrase is looked up once per index state.
    """
    bound = max(thresholds.r_threshold, thresholds.fallback_threshold)
    index = _MarkedIndex(marking)
    missed: set[str] = set()  # phrases with no hit since the index last grew
    results = {}
    for doc_id in sorted(documents):
        result = results[doc_id] = InstanceSet()
        for phrase, frequency in candidates(tokenize(documents[doc_id])).items():
            # every candidate is encoded: benchmark/tracing.py counts the
            # index's own encodes as encode calls less candidates
            vec = encode(phrase)
            if phrase in missed:
                continue
            if phrase in marking and phrase not in index.padded:
                hit = (0.0, phrase)
            else:
                hit = index.best(vec, bound)
            if hit is None:
                missed.add(phrase)
                continue
            best_r, matched = hit
            if phrase not in marking:
                index.append(vec)
                missed.clear()  # a new row can turn any miss into a hit
            update_marking(marking, phrase, frequency)
            result.instances[phrase] = InstanceRecord(
                frequency=frequency,
                best_r=best_r,
                matched_marked_phrase=matched,
                via_fallback=best_r >= thresholds.r_threshold,
            )
    return results
