"""Character-statistics text machinery.

Tokenization, n-gram candidate enumeration, and the composite relatedness
metric that drives instance extraction: a length-normalized Euclidean
distance over scaled character codes, plus a standard-deviation gap, plus
the variance of the difference vector. Smaller relatedness means more
related; identical phrases score exactly zero. The metric has one
implementation, :func:`relatedness_terms`, which scores one pair of vectors
in plain Python; the relatedness is the sum of its three terms.
"""

from __future__ import annotations

import logging
import math
import re
from functools import cached_property
from itertools import zip_longest
from typing import Iterable, Sequence

from .stopwords import DEFAULT_STOPWORDS

log = logging.getLogger(__name__)

# Character codes are divided by this so every element lies in [0, 1];
# 127 is the top of the 7-bit range the tokenizer guarantees.
CODE_SCALE = 127.0

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")


class ObjectVector:
    """Character codes scaled into [0, 1] and their population stddev.

    A vector made by :func:`encode` keeps only its ``phrase``: ``codes``
    (each code point / 127) and ``stddev`` (two ``math.fsum`` passes) are
    computed on first read, so a vector that is never scored costs one
    small object. :meth:`from_codes` makes a vector of given codes.
    """

    def __init__(self, phrase: str) -> None:
        self.phrase = phrase

    @classmethod
    def from_codes(cls, codes: Iterable[float]) -> "ObjectVector":
        values = tuple(map(float, codes))
        if not values:
            raise ValueError("object vector needs at least one element")
        vec = cls.__new__(cls)
        vec.codes = values
        return vec

    @cached_property
    def codes(self) -> tuple[float, ...]:
        return tuple([ord(ch) / CODE_SCALE for ch in self.phrase])

    @cached_property
    def stddev(self) -> float:
        values = self.codes
        mu = math.fsum(values) / len(values)
        return math.sqrt(math.fsum((c - mu) ** 2 for c in values) / len(values))


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
    """Map each character of the phrase (spaces included) to code point / 127.

    The codes and their stddev are computed when first read.
    """
    if not phrase:
        raise ValueError("cannot encode an empty phrase")
    return ObjectVector(phrase)


def relatedness_terms(
    a: ObjectVector, b: ObjectVector, cap: float = math.inf
) -> tuple[float, float, float] | None:
    """The three relatedness terms of a pair of vectors, or None past ``cap``.

    The pair is compared at its common length L, the shorter side padded
    with zeros. Returns the Euclidean distance divided by sqrt(L), the gap
    between the two standard deviations, and the population variance of
    the difference vector ``b - a`` (as ``s2/L - (s1/L)**2``, clamped at
    zero). ``s1`` and ``s2`` are accumulated left to right in a plain loop,
    so every supported interpreter returns the same bits: ``sum()`` over
    floats rounds differently since Python 3.12, and ``math.sumprod`` is
    missing before it.

    The loop stops and returns None as soon as the running ``s2``, the sum
    of squared differences, exceeds ``cap``. Each step adds a non-negative
    square, so ``s2`` only grows and an abandoned pair's full ``s2`` exceeds
    ``cap`` too; a pair whose ``s2`` equals ``cap`` is scored. With the
    default cap every pair is scored.
    """
    s1 = s2 = 0.0
    for x, y in zip_longest(a.codes, b.codes, fillvalue=0.0):
        d = y - x
        s1 += d
        s2 += d * d
        if s2 > cap:
            return None
    n = max(len(a.codes), len(b.codes))
    dist = math.sqrt(s2) / math.sqrt(n)
    gap = abs(a.stddev - b.stddev)
    variance = max(s2 / n - (s1 / n) ** 2, 0.0)
    return dist, gap, variance
