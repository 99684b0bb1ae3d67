"""Instance extraction: admit document candidates related to marked objects.

Every candidate phrase of a document is scored against every marked object
with the composite relatedness metric. A candidate whose best (smallest)
value falls under the primary threshold is admitted as an instance; one
that fails gets a second chance under the stricter fallback threshold and
is flagged accordingly. Each admitted instance immediately updates the
marking file, so vocabulary discovered early in a corpus pass is available
to later documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .config import Thresholds
from .marking import MarkingFile, update_marking
from .stopwords import DEFAULT_STOPWORDS
from .textstats import ObjectVector, candidates, encode, tokenize


@dataclass(frozen=True)
class InstanceRecord:
    """One extracted instance with its provenance."""

    phrase: str
    frequency: int
    best_r: float
    matched_marked_phrase: str
    via_fallback: bool


@dataclass
class InstanceSet:
    """Instances extracted from one document, keyed by phrase."""

    document_id: str
    instances: dict[str, InstanceRecord] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.instances)


class _MarkedIndex:
    """Marked-object encodings as a zero-padded matrix for batch scoring.

    Scoring a candidate against k marked objects at once is the hot loop of
    extraction; the vectorized arithmetic here must agree with the scalar
    ``relatedness`` to within float noise (tests pin this at 1e-12).
    """

    def __init__(self, mf: MarkingFile) -> None:
        self._phrases: list[str] = []
        self._codes: list[tuple[float, ...]] = []
        self._lengths: list[int] = []
        self._sigmas: list[float] = []
        self._stale = True
        self._matrix: np.ndarray | None = None
        for entry in mf.entries:
            self.append(entry.phrase)

    def append(self, phrase: str) -> None:
        vec = encode(phrase)
        self._phrases.append(phrase)
        self._codes.append(vec.codes)
        self._lengths.append(len(vec.codes))
        self._sigmas.append(vec.stddev)
        self._stale = True

    def _rebuild(self) -> None:
        width = max(self._lengths)
        matrix = np.zeros((len(self._codes), width))
        for row, codes in enumerate(self._codes):
            matrix[row, : len(codes)] = codes
        self._matrix = matrix
        self._len_arr = np.array(self._lengths, dtype=float)
        self._sigma_arr = np.array(self._sigmas)
        self._stale = False

    def best(self, vec: ObjectVector) -> tuple[float, str] | None:
        """Smallest relatedness against any marked object, or None if empty."""
        if not self._phrases:
            return None
        if self._stale:
            self._rebuild()
        assert self._matrix is not None
        width = self._matrix.shape[1]
        cand = np.zeros(width)
        head = vec.codes[:width]
        cand[: len(head)] = head
        # A candidate longer than the matrix differs from every row by its
        # tail against zeros; fold that in as scalar corrections.
        tail = np.array(vec.codes[width:])
        tail_sum = float(tail.sum())
        tail_sumsq = float((tail * tail).sum())

        diff = cand[None, :] - self._matrix
        s1 = diff.sum(axis=1) + tail_sum
        s2 = (diff * diff).sum(axis=1) + tail_sumsq
        pair_len = np.maximum(self._len_arr, float(len(vec)))
        dist = np.sqrt(s2) / np.sqrt(pair_len)
        variance = np.maximum(s2 / pair_len - (s1 / pair_len) ** 2, 0.0)
        r = dist + np.abs(self._sigma_arr - vec.stddev) + variance
        best_row = int(np.argmin(r))  # first index wins ties: marking order
        return float(r[best_row]), self._phrases[best_row]


def extract_instances(
    document_text: str,
    mf: MarkingFile,
    thresholds: Thresholds,
    *,
    document_id: str = "doc",
    stopwords: frozenset[str] | set[str] | None = None,
) -> InstanceSet:
    """Extract the instances of one document, updating the marking file.

    Candidates are processed in first-occurrence order; each admitted
    instance is written into the marking file (new phrase appended, known
    phrase's frequency accumulated) before the next candidate is scored.
    """
    sw = DEFAULT_STOPWORDS if stopwords is None else stopwords
    result = InstanceSet(document_id=document_id)
    index = _MarkedIndex(mf)
    for cand in candidates(tokenize(document_text), sw):
        hit = index.best(encode(cand.phrase))
        if hit is None:
            continue
        best_r, matched = hit
        if best_r < thresholds.r_threshold:
            via_fallback = False
        elif best_r < thresholds.fallback_threshold:
            via_fallback = True
        else:
            continue
        is_new = cand.phrase not in mf
        update_marking(mf, cand.phrase, cand.frequency)
        if is_new:
            index.append(cand.phrase)
        result.instances[cand.phrase] = InstanceRecord(
            phrase=cand.phrase,
            frequency=cand.frequency,
            best_r=best_r,
            matched_marked_phrase=matched,
            via_fallback=via_fallback,
        )
    return result


def extract_corpus(
    documents: Mapping[str, str],
    mf: MarkingFile,
    thresholds: Thresholds,
    *,
    stopwords: frozenset[str] | set[str] | None = None,
) -> dict[str, InstanceSet]:
    """Extract every document in ascending id order.

    Marking updates are order-dependent, so the iteration order is fixed
    to keep corpus runs reproducible.
    """
    return {
        doc_id: extract_instances(
            documents[doc_id],
            mf,
            thresholds,
            document_id=doc_id,
            stopwords=stopwords,
        )
        for doc_id in sorted(documents)
    }
