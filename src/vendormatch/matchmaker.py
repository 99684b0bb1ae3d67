"""Pair query instances with vendor instances and rank the vendors.

Each query instance is matched to its best-scoring vendor instance; pairs
at or above the similarity threshold count toward a frequency- and
score-weighted match percentage. Queries are pooled (frequencies summed
per phrase) for the ranking, with a per-query breakdown kept for the
report. All tie-breaks are lexicographic so reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    query: InstanceSet,
    vendor: InstanceSet,
    t: Taxonomy,
    cfg: Thresholds,
    scores: dict[str, dict[str, float]],
) -> list[MatchPair]:
    """Best vendor match per query instance, kept if it clears the threshold.

    At most one pair per query instance, so a vendor phrase never gets
    double-counted into the percentage; score ties break to the
    lexicographically smallest vendor phrase. ``scores`` is a query phrase
    -> vendor phrase -> score table, filled in place; :func:`rank_vendors`
    shares one across vendors, so each distinct pair is scored once per run.
    """
    pairs: list[MatchPair] = []
    vendor_phrases = sorted(vendor.instances)
    for query_phrase in sorted(query.instances):
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
                query_freq=query.instances[query_phrase].frequency,
                vendor_freq=vendor.instances[best_vendor_phrase].frequency,
            )
        )
    return pairs


def match_percentage(query: InstanceSet, pairs: list[MatchPair]) -> float:
    """Frequency-weighted, score-weighted coverage of the query set, 0-100.

    100 * sum(frequency * score over matched instances) divided by the
    total query frequency mass; 100 exactly only when every query instance
    matched at score 1.0, and 0 for an empty query set. Frequencies are
    read from ``query``, so pairs matched for a pool that contains it can
    be passed, restricted to its phrases. Scores add left to right, since
    builtin ``sum()`` of floats rounds differently from Python 3.12 on.
    """
    total = sum(rec.frequency for rec in query.instances.values())
    if total == 0:
        return 0.0
    matched = 0.0
    for p in pairs:
        matched += query.instances[p.query_phrase].frequency * p.score
    return 100.0 * matched / total


def pool_queries(queries: Mapping[str, InstanceSet]) -> InstanceSet:
    """Union of all query instance sets with per-phrase frequencies summed."""
    pooled = InstanceSet()
    for query_id in sorted(queries):
        for phrase, record in queries[query_id].instances.items():
            existing = pooled.instances.get(phrase)
            if existing is None:
                pooled.instances[phrase] = record
            else:
                pooled.instances[phrase] = replace(
                    existing, frequency=existing.frequency + record.frequency
                )
    return pooled


def rank_vendors(
    queries: Mapping[str, InstanceSet],
    vendors: Mapping[str, InstanceSet],
    t: Taxonomy,
    cfg: Thresholds,
) -> MatchReport:
    """Score every vendor against the pooled queries and rank them.

    A query phrase's best vendor phrase does not depend on which query it
    came from, so each per-query percentage reuses the pooled pairs,
    restricted to that query's phrases (in sorted order).
    """
    pooled = pool_queries(queries)
    query_phrases = {qid: sorted(queries[qid].instances) for qid in sorted(queries)}
    scores: dict[str, dict[str, float]] = {}
    results = []
    for vendor_id in sorted(vendors):
        vendor = vendors[vendor_id]
        pairs = semantic_match(pooled, vendor, t, cfg, scores)
        best = {p.query_phrase: p for p in pairs}
        per_query = {
            query_id: match_percentage(
                queries[query_id], [best[p] for p in phrases if p in best]
            )
            for query_id, phrases in query_phrases.items()
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
