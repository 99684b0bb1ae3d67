"""Benchmark workloads: the bundled corpus and two seeded synthetic corpora.

A generated corpus depends only on the seed and on the words of the
bundled corpus, so the same seed always gives byte-identical files. The
program under test sees only the files written here.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

_WORD_RE = re.compile(r"[a-z0-9]+")
_WORDS_PER_LINE = 12


@dataclass(frozen=True)
class Corpus:
    """Shape of a generated corpus."""

    vendors: int
    vendor_words: int
    queries: int
    query_words: int
    #: Share of vendor words replaced by a one-letter near-variant.
    variant_frac: float
    #: Corpus words left out of the draw.
    exclude: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: None means the bundled corpus under ``data/``, used as shipped.
    corpus: Corpus | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bundled",
            "the shipped 10x30 corpus checked against the golden report; "
            "per-run fixed costs (loads, index rebuilds, marking save) are a "
            "visible share",
            corpus=None,
        ),
        Workload(
            "rank_dense",
            "100x100 short documents in the bundled vocabulary; ranking is ~80% "
            "of a pass and repeats under 1,000 distinct phrase pairs ~350,000 "
            "times",
            corpus=Corpus(
                vendors=100, vendor_words=60, queries=100, query_words=15,
                variant_frac=0.0,
                # The two bundled words the seed gazetteer admits as new
                # phrases ("run" is near "sun", "turbiner" near "turbines"):
                # without them no phrase is added and nothing is rebuilt.
                exclude=frozenset({"run", "turbiner"}),
            ),
        ),
        Workload(
            "extract_growth",
            "60 long vendor documents, 30% near-variant words, x 5 queries; "
            "extraction dominates while the gazetteer grows from 33 to ~390 "
            "rows and is written back",
            corpus=Corpus(
                vendors=60, vendor_words=400, queries=5, query_words=15,
                variant_frac=0.3,
            ),
        ),
    )
}


def corpus_words(data_dir: Path) -> list[str]:
    """Every word of the bundled corpus in file order, repeats kept.

    Drawing from this list keeps the bundled word frequencies, so marked
    terms such as "energy" stay as common as they are in the real corpus.
    """
    words: list[str] = []
    for sub in ("vendors", "queries"):
        for path in sorted((data_dir / sub).glob("*.txt")):
            words += _WORD_RE.findall(path.read_text(encoding="utf-8").lower())
    return words


def near_variant(rng: random.Random, word: str) -> str:
    """Shift one letter of ``word`` by one code point, staying within a-z."""
    letters = [i for i, ch in enumerate(word) if "a" <= ch <= "z"]
    if not letters:
        return word
    i = rng.choice(letters)
    code = ord(word[i]) + rng.choice((-1, 1))
    if not ord("a") <= code <= ord("z"):
        code = 2 * ord(word[i]) - code  # "a" only shifts up, "z" only down
    return word[:i] + chr(code) + word[i + 1 :]


def proportional_sample(rng: random.Random, words: list[str], n: int) -> list[str]:
    """``n`` words in which each word of ``words`` appears in proportion to
    how often it appears there, give or take one, in a seeded random order.

    A systematic sample of the sorted list: corpora from different seeds
    hold nearly the same words in different orders, so they do nearly the
    same amount of work. Independent draws would not: five 15-word queries
    would vary the ranking work by a factor of two from seed to seed.
    """
    ranked = sorted(words)
    step = len(ranked) / n
    start = rng.random() * step
    picked = [ranked[int(start + i * step)] for i in range(n)]
    rng.shuffle(picked)
    return picked


def _document(rng: random.Random, words: list[str], variant_frac: float) -> str:
    words = [near_variant(rng, w) if rng.random() < variant_frac else w for w in words]
    lines = [
        " ".join(words[i : i + _WORDS_PER_LINE])
        for i in range(0, len(words), _WORDS_PER_LINE)
    ]
    return "\n".join(lines) + "\n"


def write_corpus(
    corpus: Corpus, seed: int, words: list[str], dest: Path
) -> tuple[Path, Path]:
    """Write ``dest/vendors`` and ``dest/queries``; return the two directories."""
    rng = random.Random(seed)
    words = [w for w in words if w not in corpus.exclude]
    dirs = []
    for kind, prefix, count, n_words, variant_frac in (
        ("vendors", "v", corpus.vendors, corpus.vendor_words, corpus.variant_frac),
        ("queries", "q", corpus.queries, corpus.query_words, 0.0),
    ):
        target = dest / kind
        target.mkdir(parents=True)
        picked = proportional_sample(rng, words, count * n_words)
        width = len(str(count))
        for i in range(count):
            doc_words = picked[i * n_words : (i + 1) * n_words]
            text = _document(rng, doc_words, variant_frac)
            (target / f"{prefix}{i + 1:0{width}d}.txt").write_text(text, encoding="utf-8")
        dirs.append(target)
    return dirs[0], dirs[1]
