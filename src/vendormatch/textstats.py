"""Character-statistics text machinery.

Tokenization, n-gram candidate enumeration, and the composite relatedness
metric that drives instance extraction: a length-normalized Euclidean
distance over scaled character codes, plus a standard-deviation gap, plus
the variance of the difference vector. Smaller relatedness means more
related; identical phrases score exactly zero. The metric has one
implementation, :func:`relatedness_terms`, which scores one vector against
a zero-padded matrix of rows; the relatedness is the sum of its three terms.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .stopwords import DEFAULT_STOPWORDS

log = logging.getLogger(__name__)

# Character codes are divided by this so every element lies in [0, 1];
# 127 is the top of the 7-bit range the tokenizer guarantees.
CODE_SCALE = 127.0

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")


@dataclass(frozen=True)
class ObjectVector:
    """A phrase as scaled character codes with its population stddev."""

    codes: tuple[float, ...]
    stddev: float

    @classmethod
    def from_codes(cls, codes: Iterable[float]) -> "ObjectVector":
        values = tuple(map(float, codes))
        if not values:
            raise ValueError("object vector needs at least one element")
        mu = math.fsum(values) / len(values)
        var = math.fsum((c - mu) ** 2 for c in values) / len(values)
        return cls(codes=values, stddev=math.sqrt(var))

    def __len__(self) -> int:
        return len(self.codes)


def tokenize(text: str) -> list[str]:
    """Split raw text into lowercase tokens, in document order.

    Every character that is not a letter or digit separates tokens.
    Characters above code point 127 are replaced by ``?`` before splitting
    (and a warning is logged), so tokens stay within the 7-bit range.
    """
    replaced, n_replaced = _NON_ASCII_RE.subn("?", text)
    if n_replaced:
        log.warning("replaced %d non-ascii character(s) with '?'", n_replaced)
    return _TOKEN_RE.findall(replaced.lower())


def candidates(words: Sequence[str]) -> dict[str, int]:
    """Count the unigram/bigram/trigram candidate phrases of a document.

    An n-gram qualifies only if its first and last token are not in
    ``DEFAULT_STOPWORDS`` (interior stopwords are fine, so "speed of wind"
    survives). Returns ``{phrase: frequency}`` with keys in first-occurrence
    order, scanning start positions left to right and lengths 1..3.
    """
    seen: dict[str, int] = {}
    for start in range(len(words)):
        if words[start] in DEFAULT_STOPWORDS:
            continue
        for end in range(start + 1, min(start + 3, len(words)) + 1):
            if words[end - 1] in DEFAULT_STOPWORDS:
                continue
            phrase = " ".join(words[start:end])
            seen[phrase] = seen.get(phrase, 0) + 1
    return seen


def encode(phrase: str) -> ObjectVector:
    """Map each character of the phrase (spaces included) to code point / 127."""
    if not phrase:
        raise ValueError("cannot encode an empty phrase")
    return ObjectVector.from_codes([ord(ch) / CODE_SCALE for ch in phrase])


def relatedness_terms(
    rows: np.ndarray, lengths: np.ndarray, sigmas: np.ndarray, vec: ObjectVector
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three relatedness terms of one vector against each of k rows.

    ``rows`` is a (k, width) matrix of code vectors right-padded with zeros,
    ``lengths`` their unpadded lengths and ``sigmas`` their standard
    deviations. Each pair is compared at its common length L, the shorter
    side padded with zeros; a ``vec`` longer than ``width`` differs from
    every row by its tail against zeros, folded in as scalar corrections.
    Returns, per row, the Euclidean distance divided by sqrt(L), the gap
    between the two standard deviations, and the population variance of
    the difference vector (as ``s2/L - (s1/L)**2``, clamped at zero).
    """
    width = rows.shape[1]
    cand = np.zeros(width)
    head = vec.codes[:width]
    cand[: len(head)] = head
    tail = np.array(vec.codes[width:])
    tail_sum = float(tail.sum())
    tail_sumsq = float((tail * tail).sum())

    diff = cand[None, :] - rows
    s1 = diff.sum(axis=1) + tail_sum
    s2 = (diff * diff).sum(axis=1) + tail_sumsq
    pair_len = np.maximum(lengths, float(len(vec)))
    dist = np.sqrt(s2) / np.sqrt(pair_len)
    gap = np.abs(sigmas - vec.stddev)
    variance = np.maximum(s2 / pair_len - (s1 / pair_len) ** 2, 0.0)
    return dist, gap, variance
