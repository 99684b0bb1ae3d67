"""Character-statistics text machinery.

Tokenization, the stopword list ``DEFAULT_STOPWORDS``, n-gram candidate
enumeration, and the composite relatedness metric that drives instance
extraction: a length-normalized Euclidean distance over scaled character
codes, plus a standard-deviation gap, plus the variance of the difference
vector. Smaller relatedness means more related; identical phrases score
exactly zero. The metric has one implementation, :func:`relatedness_terms`,
which scores one pair of vectors in plain Python; the relatedness is the
sum of its three terms.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from itertools import zip_longest
from typing import Sequence

# Character codes are divided by this so every element lies in [0, 1];
# 127 is the top of the 7-bit range the tokenizer guarantees.
CODE_SCALE = 127.0

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")
#: A candidate n-gram may not start or end with one; phrase similarity drops them.
DEFAULT_STOPWORDS = frozenset(
    """
    a an the
    and or but nor so yet both either neither
    of in on at to for with by from into onto over under between among
    through during before after above below up down off out near per
    is are was were be been being am
    do does did has have had
    can could will would shall should may might must
    it its this that these those
    i me my we us our you your he him his she her they them their
    as if then than not no
    also any all each such own same more most other some only very just
    about against
    """.split()
)


class ObjectVector:
    """Character codes scaled into [0, 1] and their population stddev.

    A vector made by :func:`encode` keeps only its ``phrase``: ``codes``
    (each code point / 127) and ``stddev`` (two ``math.fsum`` passes) are
    computed on first read, so a vector that is never scored costs one
    small object.
    """

    def __init__(self, phrase: str) -> None:
        self.phrase = phrase

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
    Characters above code point 127 are replaced by ``?`` before lowercasing
    (some, such as the Kelvin sign, lowercase to ASCII letters), so tokens
    stay within the 7-bit range. Nothing is written to stderr: ``main()``
    prints one warning per run with the count of replaced characters, and
    library callers read that count from the ``RunStats`` they pass to
    ``vendormatch.cli.run``. :func:`count_non_ascii` counts them in one text.
    """
    if not text.isascii():
        text = _NON_ASCII_RE.sub("?", text)
    return _TOKEN_RE.findall(text.lower())


def count_non_ascii(text: str) -> int:
    """How many characters of ``text`` :func:`tokenize` replaces by ``?``."""
    return 0 if text.isascii() else len(_NON_ASCII_RE.findall(text))


def candidates(words: Sequence[str]) -> dict[str, int]:
    """Count the unigram/bigram/trigram candidate phrases of a document.

    An n-gram qualifies only if its first and last token are not in
    ``DEFAULT_STOPWORDS`` (interior stopwords are fine, so "speed of wind"
    survives). Returns ``{phrase: frequency}`` with keys in first-occurrence
    order, scanning start positions left to right and lengths 1..3. Each
    bigram is its unigram extended by one word, and each trigram its bigram.
    """
    seen: dict[str, int] = {}
    for start, phrase in enumerate(words):
        if phrase in DEFAULT_STOPWORDS:
            continue
        seen[phrase] = seen.get(phrase, 0) + 1
        for word in words[start + 1 : start + 3]:
            phrase = phrase + " " + word
            if word not in DEFAULT_STOPWORDS:
                seen[phrase] = seen.get(phrase, 0) + 1
    return seen


def encode(phrase: str) -> ObjectVector:
    """Map each character of the phrase (spaces included) to code point / 127.

    The codes and their stddev are computed when first read.
    """
    if not phrase:
        raise ValueError("cannot encode an empty phrase")
    return ObjectVector(phrase)


def relatedness_terms(a: ObjectVector, b: ObjectVector) -> tuple[float, float, float]:
    """The three relatedness terms of a pair of vectors.

    The pair is compared at its common length L, the shorter side padded
    with zeros. Returns the Euclidean distance divided by sqrt(L), the gap
    between the two standard deviations, and the population variance of
    the difference vector ``b - a`` (as ``s2/L - (s1/L)**2``, clamped at
    zero). ``s1`` and ``s2`` are accumulated left to right in a plain loop,
    so every supported interpreter returns the same bits: ``sum()`` over
    floats rounds differently since Python 3.12, and ``math.sumprod`` is
    missing before it.
    """
    s1 = s2 = 0.0
    for x, y in zip_longest(a.codes, b.codes, fillvalue=0.0):
        d = y - x
        s1 += d
        s2 += d * d
    n = max(len(a.codes), len(b.codes))
    dist = math.sqrt(s2) / math.sqrt(n)
    gap = abs(a.stddev - b.stddev)
    variance = max(s2 / n - (s1 / n) ** 2, 0.0)
    return dist, gap, variance
