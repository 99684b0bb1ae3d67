"""Pair query instances with vendor instances and rank the vendors.

Each query instance is matched to its best-scoring vendor instance; pairs
at or above the similarity threshold count toward a frequency- and
score-weighted match percentage. Ranking reads ``{phrase: frequency}``
maps; the queries are pooled into one, with a per-query breakdown kept for
the report. All tie-breaks are lexicographic so reports are reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .config import Thresholds
from .extraction import InstanceSet
from .taxonomy import Taxonomy, phrase_score


@dataclass(frozen=True)
class MatchPair:
    query_phrase: str
    vendor_phrase: str
    score: float
    query_freq: int
    vendor_freq: int


@dataclass(frozen=True)
class VendorResult:
    vendor_id: str
    pairs: tuple[MatchPair, ...]
    match_percentage: float
    per_query: dict[str, float]


@dataclass(frozen=True)
class MatchReport:
    """Vendors sorted by match percentage (desc), then id; winner first.

    ``winner`` is None when every vendor scored zero: electing an arbitrary
    vendor in that case would be meaningless.
    """

    results: tuple[VendorResult, ...]
    winner: str | None


def semantic_match(
    query: Mapping[str, int],
    vendor: Mapping[str, int],
    t: Taxonomy,
    cfg: Thresholds,
    scores: dict[str, dict[str, float]],
) -> list[MatchPair]:
    """Best vendor match per query phrase, kept if it clears the threshold.

    ``query`` and ``vendor`` map phrase -> frequency. At most one pair per
    query phrase, so a vendor phrase is never double-counted into the
    percentage; ties break to the lexicographically smallest vendor phrase.
    The ``scores`` table (query phrase -> vendor phrase -> score) is filled
    in place and shared across vendors, so each pair is scored once per run.
    """
    pairs: list[MatchPair] = []
    vendor_phrases = sorted(vendor)
    for query_phrase in sorted(query):
        row = scores.setdefault(query_phrase, {})
        best_score = -1.0
        best_vendor_phrase = None
        for vendor_phrase in vendor_phrases:
            score = row.get(vendor_phrase)
            if score is None:
                score = row[vendor_phrase] = phrase_score(
                    t, query_phrase, vendor_phrase
                )
            if score > best_score:
                best_score = score
                best_vendor_phrase = vendor_phrase
        if best_vendor_phrase is None or best_score < cfg.wup_threshold:
            continue
        pairs.append(
            MatchPair(
                query_phrase=query_phrase,
                vendor_phrase=best_vendor_phrase,
                score=best_score,
                query_freq=query[query_phrase],
                vendor_freq=vendor[best_vendor_phrase],
            )
        )
    return pairs


def match_percentage(query: Mapping[str, int], pairs: list[MatchPair]) -> float:
    """Frequency-weighted, score-weighted coverage of the query map, 0-100.

    100 * sum(frequency * score over matched phrases) divided by the total
    query frequency mass; 100 exactly only when every query phrase matched
    at score 1.0, and 0 for an empty query. Frequencies are read from the
    ``query`` map, so pairs matched for a pool that contains it can be
    passed, restricted to its phrases. Scores add left to right, since
    builtin ``sum()`` of floats rounds differently from Python 3.12 on.
    """
    return _percentage(query, pairs, sum(query.values()))


def _percentage(query: Mapping[str, int], pairs: list[MatchPair], total: int) -> float:
    """:func:`match_percentage`, given the query's total frequency."""
    if total == 0:
        return 0.0
    matched = 0.0
    for p in pairs:
        matched += query[p.query_phrase] * p.score
    return 100.0 * matched / total


def pool_queries(queries: Mapping[str, Mapping[str, int]]) -> dict[str, int]:
    """One ``{phrase: frequency}`` map, frequencies summed over the queries."""
    pooled: Counter[str] = Counter()
    for query in queries.values():
        pooled.update(query)
    return dict(pooled)


def rank_vendors(
    queries: Mapping[str, InstanceSet],
    vendors: Mapping[str, InstanceSet],
    t: Taxonomy,
    cfg: Thresholds,
) -> MatchReport:
    """Score every vendor against the pooled queries and rank them.

    Each set is read once, into a phrase-sorted frequency map, and each
    query's total frequency is summed once. A query phrase's best vendor
    phrase does not depend on its query, so each per-query percentage
    reuses the pooled pairs, restricted to its phrases.
    """
    def frequencies(s: InstanceSet) -> dict[str, int]:
        return {p: rec.frequency for p, rec in sorted(s.instances.items())}

    query_freqs = {qid: frequencies(queries[qid]) for qid in sorted(queries)}
    query_totals = [
        (qid, freqs, sum(freqs.values())) for qid, freqs in query_freqs.items()
    ]
    pooled = pool_queries(query_freqs)
    scores: dict[str, dict[str, float]] = {}
    results = []
    for vendor_id in sorted(vendors):
        pairs = semantic_match(pooled, frequencies(vendors[vendor_id]), t, cfg, scores)
        best = {p.query_phrase: p for p in pairs}
        per_query = {
            query_id: _percentage(freqs, [best[p] for p in freqs if p in best], total)
            for query_id, freqs, total in query_totals
        }
        results.append(
            VendorResult(
                vendor_id=vendor_id,
                pairs=tuple(pairs),
                match_percentage=match_percentage(pooled, pairs),
                per_query=per_query,
            )
        )
    results.sort(key=lambda r: (-r.match_percentage, r.vendor_id))
    winner = None
    if results and results[0].match_percentage > 0:
        winner = results[0].vendor_id
    return MatchReport(results=tuple(results), winner=winner)
