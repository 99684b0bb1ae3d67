"""Pair query instances with vendor instances and rank the vendors.

Each query instance is matched to its best-scoring vendor instance; pairs
at or above the similarity threshold count toward a frequency- and
score-weighted match percentage. Ranking reads ``{phrase: frequency}``
maps; the queries are pooled into one, with a per-query breakdown kept for
the report. Each pooled query phrase is scored once against every vendor
phrase of the run and its vendor phrases are ranked once; a vendor's best
match is the first ranked phrase it holds. One loop over a vendor's pairs
adds up its pooled and its per-query percentages. All tie-breaks are
lexicographic so reports are reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping

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


def rank_phrases(
    query_phrases: Iterable[str],
    vendor_phrases: Collection[str],
    t: Taxonomy,
    cfg: Thresholds,
) -> dict[str, list[tuple[float, str]]]:
    """Each query phrase's vendor phrases that clear the threshold, best first.

    Every query phrase is scored once against every vendor phrase. Its
    ``(-score, vendor phrase)`` entries with a score of at least
    ``cfg.wup_threshold`` are sorted, so equal scores list the
    lexicographically smallest vendor phrase first.
    """
    return {
        q: sorted(
            (-score, v)
            for v in vendor_phrases
            if (score := phrase_score(t, q, v)) >= cfg.wup_threshold
        )
        for q in query_phrases
    }


def semantic_match(
    query: Mapping[str, int],
    vendor: Mapping[str, int],
    ranked: Mapping[str, list[tuple[float, str]]],
) -> list[MatchPair]:
    """Best vendor match per query phrase, kept if it clears the threshold.

    ``query`` and ``vendor`` map phrase -> frequency; ``ranked`` is
    :func:`rank_phrases` of the query's phrases against vendor phrases that
    include the vendor's. A query phrase pairs with the first ranked phrase
    the vendor holds, so ties break to the lexicographically smallest vendor
    phrase. At most one pair per query phrase, so a vendor phrase is never
    double-counted into the percentage.
    """
    pairs: list[MatchPair] = []
    for q in sorted(query):
        for neg_score, v in ranked[q]:
            if v in vendor:
                pairs.append(MatchPair(q, v, -neg_score, query[q], vendor[v]))
                break
    return pairs


def _percentage(matched: float, total: int) -> float:
    """100 * matched / total, and 0.0 for a map with no frequency mass."""
    return 100.0 * matched / total if total else 0.0


def pool_queries(queries: Mapping[str, Mapping[str, int]]) -> dict[str, int]:
    """One phrase-sorted ``{phrase: frequency}`` map, summed over the queries."""
    pooled: Counter[str] = Counter()
    for query in queries.values():
        pooled.update(query)
    return dict(sorted(pooled.items()))


def rank_vendors(
    queries: Mapping[str, InstanceSet],
    vendors: Mapping[str, InstanceSet],
    t: Taxonomy,
    cfg: Thresholds,
) -> MatchReport:
    """Score every vendor against the pooled queries and rank them.

    Each set is read into a phrase-sorted frequency map. The pooled phrases
    are ranked once against the union of the vendors' phrases. A query
    phrase's best vendor phrase does not depend on its query, so one loop
    over the vendor's pooled pairs gives both percentages: each pair adds
    its score, times the phrase's frequency, to the pooled sum and to each
    query that holds the phrase. A percentage is 100 exactly only when
    every phrase matched at score 1.0. Products add left to right in phrase
    order, from 0.0, since builtin ``sum()`` of floats rounds differently
    from Python 3.12 on.
    """
    def frequencies(s: InstanceSet) -> dict[str, int]:
        return {p: rec.frequency for p, rec in sorted(s.instances.items())}

    query_freqs = {qid: frequencies(queries[qid]) for qid in sorted(queries)}
    totals = {qid: sum(f.values()) for qid, f in query_freqs.items()}
    holders: dict[str, list[tuple[str, int]]] = {}  # phrase -> (query id, frequency)
    for qid, f in query_freqs.items():
        for phrase, frequency in f.items():
            holders.setdefault(phrase, []).append((qid, frequency))
    pooled = pool_queries(query_freqs)
    pooled_total = sum(pooled.values())
    vendor_phrases = sorted({p for s in vendors.values() for p in s.instances})
    ranked = rank_phrases(pooled, vendor_phrases, t, cfg)
    results = []
    for vendor_id in sorted(vendors):
        pairs = semantic_match(pooled, frequencies(vendors[vendor_id]), ranked)
        # pairs come in pooled phrase order, which is each query's own order
        pooled_matched = 0.0
        matched = dict.fromkeys(query_freqs, 0.0)
        for p in pairs:
            pooled_matched += p.query_freq * p.score
            for qid, frequency in holders[p.query_phrase]:
                matched[qid] += frequency * p.score
        results.append(
            VendorResult(
                vendor_id=vendor_id,
                pairs=tuple(pairs),
                match_percentage=_percentage(pooled_matched, pooled_total),
                per_query={
                    qid: _percentage(matched[qid], total)
                    for qid, total in totals.items()
                },
            )
        )
    results.sort(key=lambda r: (-r.match_percentage, r.vendor_id))
    winner = None
    if results and results[0].match_percentage > 0:
        winner = results[0].vendor_id
    return MatchReport(results=tuple(results), winner=winner)
