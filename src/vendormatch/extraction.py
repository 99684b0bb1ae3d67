"""Instance extraction: admit document candidates related to marked objects.

:func:`extract_corpus` is the one entry point; it returns each document's
instances keyed by document id. A candidate phrase is admitted as an
instance iff its smallest composite relatedness
(:func:`~vendormatch.textstats.relatedness_terms`) to any marked object
falls under ``bound = max(r_threshold, fallback_threshold)``, and flagged
``via_fallback`` when that value is not under ``r_threshold``; a fallback
at or below the primary threshold therefore admits nothing extra.

A candidate is scored only against the marked objects that three cheap
lower bounds on relatedness leave in play: the stddev gap, the distance the
longer side's unmatched tail alone contributes, and the gap between the two
sides' code sums plus the stddev gap, checked against the best score found
so far (see :class:`_MarkedIndex`). A marked object skipped this way relates
above the best score so far or at ``bound`` or above, so it could neither
admit the candidate nor be its best match: pruning changes no output.

A candidate that is already a marked object is answered without a lookup:
its own row relates at exactly 0.0, and every other row relates above 0.0
unless it is the candidate followed by NUL characters only, which zero
padding can tie; a candidate with such a row is looked up as usual.

Each admitted instance immediately updates the marking, so vocabulary
discovered early in a corpus pass is available to later documents.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Mapping

from .config import Thresholds
from .marking import update_marking
from .textstats import ObjectVector, candidates, encode, relatedness_terms, tokenize


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


#: Relative slack on the length and mean bounds, which sum codes in another
#: order than the kernel does; the rounding error there is ~1e-15.
_LENGTH_SLACK = 1.0 - 1e-9
#: Widening of each bucket's stddev window, far above the rounding of the gap.
_SIGMA_SLACK = 1e-12


def _length_bound(tail: float, pair_length: int) -> float:
    """Lower bound on the distance term of a pair whose longer side has
    squared codes summing to ``tail`` past the end of the shorter side."""
    return math.sqrt(tail / pair_length) * _LENGTH_SLACK


class _Bucket:
    """The marked rows of one length, sorted by stddev."""

    __slots__ = ("sigmas", "sums", "rows", "min_tail")

    def __init__(self, length: int) -> None:
        self.sigmas: list[float] = []
        self.sums: list[float] = []  # each row's ``ObjectVector.total``
        self.rows: list[int] = []  # row ids, in the order of ``sigmas``
        # min_tail[n]: the smallest sum of squared codes at positions n and
        # beyond over these rows, which a candidate of length n pads with zeros
        self.min_tail = [math.inf] * length


class _MarkedIndex:
    """Marked-object encodings, scored only where they can beat a bound.

    Rows are the encodings in the marking's key order, also bucketed by
    length, each bucket sorted by stddev. Relatedness is
    ``dist + gap + variance`` with every term non-negative, so two lower
    bounds hold for every row:

    - the gap bound: relatedness is at least the stddev gap, exactly in
      floating point, so only rows whose stddev lies within ``bound`` of the
      candidate's (widened by 1e-12) can score under ``bound``;
    - the length bound: the distance term is at least ``sqrt(T / L)``, where
      L is the longer length of the pair and T the sum of squared codes of
      the longer side past the shorter one's end, which the other side pads
      with zeros. A whole bucket is skipped when this bound, less a 1e-9
      relative slack for summation order, reaches ``bound``;
    - the mean bound: by Cauchy-Schwarz the distance term is at least
      ``|s1| / L``, and with zero padding ``s1`` is the gap between the two
      sides' code sums, so relatedness is at least ``|S_row - S_cand| / L``
      plus the stddev gap. A row within the stddev window is skipped when
      this bound, less the same 1e-9 slack, exceeds the best score so far,
      which starts at ``bound``.

    :meth:`best` scores each remaining row with
    :func:`~vendormatch.textstats.relatedness_terms`, the value a scan of
    every row would give, and keeps the smallest ``(relatedness, row)``.
    A skipped row scores at least ``bound`` or more than a row already
    scored, so pruning changes no output. A row tied with the best score
    has a bound below its score, or of exactly 0.0 at a score of 0.0, so it
    is still scored and ties still go to the earliest row.

    ``padded`` holds each phrase some row extends with NUL characters only:
    zero padding gives such a pair a distance of 0, so the two rows can tie
    at exactly 0.0 and a candidate's own row is not always its answer.
    """

    def __init__(self, marking: dict[str, int]) -> None:
        self._phrases: list[str] = []
        self._rows: list[ObjectVector] = []
        self._buckets: dict[int, _Bucket] = {}
        self._by_length: list[int] = []  # bucket lengths, ascending
        self.padded: set[str] = set()
        for phrase in marking:
            self.append(phrase, encode(phrase))

    def append(self, phrase: str, vec: ObjectVector) -> None:
        row, length = len(self._rows), len(vec)
        self._rows.append(vec)
        self._phrases.append(phrase)
        if phrase.endswith("\x00"):
            self.padded.add(phrase.rstrip("\x00"))

        bucket = self._buckets.get(length)
        if bucket is None:
            bucket = self._buckets[length] = _Bucket(length)
            insort(self._by_length, length)
        at = bisect_right(bucket.sigmas, vec.stddev)
        bucket.sigmas.insert(at, vec.stddev)
        bucket.sums.insert(at, vec.total)
        bucket.rows.insert(at, row)
        tail = 0.0
        for n in range(length - 1, 0, -1):
            tail += vec.codes[n] ** 2
            bucket.min_tail[n] = min(bucket.min_tail[n], tail)

    def best(self, vec: ObjectVector, bound: float) -> tuple[float, str] | None:
        """Smallest relatedness to any row with the earliest such row's phrase.

        Returns None when no row scores under ``bound`` (an empty index
        included); ``math.inf`` scores every row.
        """
        n = len(vec)
        kept = [n]  # lengths of the buckets the length bound leaves in play
        tail = 0.0
        for length in range(n - 1, 0, -1):  # shorter rows: the candidate's tail
            tail += vec.codes[length] ** 2
            if _length_bound(tail, n) >= bound:
                break  # the tail only grows as rows get shorter
            kept.append(length)
        for length in self._by_length[bisect_right(self._by_length, n) :]:
            if _length_bound(self._buckets[length].min_tail[n], length) < bound:
                kept.append(length)

        sigma, total = vec.stddev, vec.total
        lo = sigma - bound - _SIGMA_SLACK
        hi = sigma + bound + _SIGMA_SLACK
        best = (bound, -1)  # beaten only by a row scoring under ``bound``
        for length in kept:
            bucket = self._buckets.get(length)
            if bucket is None:
                continue
            sigmas, sums, rows = bucket.sigmas, bucket.sums, bucket.rows
            pair_length = max(n, length)
            for i in range(bisect_left(sigmas, lo), bisect_right(sigmas, hi)):
                floor = abs(sums[i] - total) / pair_length + abs(sigmas[i] - sigma)
                if floor * _LENGTH_SLACK > best[0]:
                    continue
                dist, gap, variance = relatedness_terms(self._rows[rows[i]], vec)
                scored = (dist + gap + variance, rows[i])
                if scored < best:
                    best = scored
        r, row = best
        return None if row < 0 else (r, self._phrases[row])


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
    serves the whole call and grows with each new admitted phrase.
    """
    bound = max(thresholds.r_threshold, thresholds.fallback_threshold)
    index = _MarkedIndex(marking)
    results = {}
    for doc_id in sorted(documents):
        result = results[doc_id] = InstanceSet()
        for phrase, frequency in candidates(tokenize(documents[doc_id])).items():
            vec = encode(phrase)
            if phrase in marking and phrase not in index.padded:
                hit = (0.0, phrase)
            else:
                hit = index.best(vec, bound)
            if hit is None:
                continue
            best_r, matched = hit
            if phrase not in marking:
                index.append(phrase, vec)
            update_marking(marking, phrase, frequency)
            result.instances[phrase] = InstanceRecord(
                frequency=frequency,
                best_r=best_r,
                matched_marked_phrase=matched,
                via_fallback=best_r >= thresholds.r_threshold,
            )
    return results
