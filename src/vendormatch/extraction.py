"""Instance extraction: admit document candidates related to marked objects.

Every candidate phrase of a document is scored against every marked object
with the composite relatedness metric. A candidate is admitted as an
instance iff its best (smallest) value falls under the larger of the
primary and fallback thresholds, and flagged ``via_fallback`` when it does
not fall under the primary one; a fallback bound at or below the primary
threshold therefore admits nothing extra. Each admitted instance
immediately updates the marking file, so vocabulary discovered early in a
corpus pass is available to later documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .config import Thresholds
from .marking import MarkingFile, update_marking
from .textstats import ObjectVector, candidates, encode, relatedness_terms, tokenize


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

    Rows follow the marking file's entry order; the matrix is rebuilt
    lazily after rows are appended.
    """

    def __init__(self, mf: MarkingFile) -> None:
        self._phrases = [entry.phrase for entry in mf.entries]
        self._vecs = [encode(phrase) for phrase in self._phrases]
        self._matrix: np.ndarray | None = None

    def append(self, phrase: str, vec: ObjectVector) -> None:
        self._phrases.append(phrase)
        self._vecs.append(vec)
        self._matrix = None

    def best(self, vec: ObjectVector) -> tuple[float, str] | None:
        """Smallest relatedness against any marked object, or None if empty."""
        if not self._vecs:
            return None
        if self._matrix is None:
            width = max(len(v) for v in self._vecs)
            self._matrix = np.zeros((len(self._vecs), width))
            for row, v in enumerate(self._vecs):
                self._matrix[row, : len(v)] = v.codes
            self._lengths = np.array([len(v) for v in self._vecs], dtype=float)
            self._sigmas = np.array([v.stddev for v in self._vecs])
        dist, gap, variance = relatedness_terms(
            self._matrix, self._lengths, self._sigmas, vec
        )
        r = dist + gap + variance
        best_row = int(np.argmin(r))  # first index wins ties: marking order
        return float(r[best_row]), self._phrases[best_row]


def extract_instances(
    document_text: str,
    mf: MarkingFile,
    thresholds: Thresholds,
) -> InstanceSet:
    """Extract the instances of one document, updating the marking file."""
    return extract_corpus({"doc": document_text}, mf, thresholds)["doc"]


def extract_corpus(
    documents: Mapping[str, str],
    mf: MarkingFile,
    thresholds: Thresholds,
) -> dict[str, InstanceSet]:
    """Extract every document in ascending id order, updating the marking file.

    Marking updates are order-dependent, so the iteration order is fixed
    to keep corpus runs reproducible. Within a document, candidates are
    processed in first-occurrence order; each admitted instance is written
    into the marking file (new phrase appended, known phrase's frequency
    accumulated) before the next candidate is scored. One gazetteer index
    serves the whole call and grows with each new admitted phrase.
    """
    bound = max(thresholds.r_threshold, thresholds.fallback_threshold)
    index = _MarkedIndex(mf)
    results = {}
    for doc_id in sorted(documents):
        result = results[doc_id] = InstanceSet(document_id=doc_id)
        for cand in candidates(tokenize(documents[doc_id])):
            vec = encode(cand.phrase)
            hit = index.best(vec)
            if hit is None:
                continue
            best_r, matched = hit
            if best_r >= bound:
                continue
            if cand.phrase not in mf:
                index.append(cand.phrase, vec)
            update_marking(mf, cand.phrase, cand.frequency)
            result.instances[cand.phrase] = InstanceRecord(
                phrase=cand.phrase,
                frequency=cand.frequency,
                best_r=best_r,
                matched_marked_phrase=matched,
                via_fallback=best_r >= thresholds.r_threshold,
            )
    return results
