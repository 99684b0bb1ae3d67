"""Pair query instances with vendor instances and rank the vendors.

Each query instance is matched to its best-scoring vendor instance; pairs
at or above the similarity threshold count toward a frequency- and
score-weighted match percentage. Ranking reads ``{phrase: frequency}``
maps; the queries are pooled into one, with a per-query breakdown kept for
the report. Each pooled query phrase is scored once against the vendor
phrases of the run that can reach the threshold t: those sharing a token
pair with it that scores above 0 and at least ``tau = 2t - 1``. When
``tau <= 0`` this skips only pairs that score 0. Each query phrase's vendor
phrases are ranked once; a vendor's best match is the first ranked phrase
it holds. One loop over a vendor's pairs adds up its pooled and its
per-query percentages. All tie-breaks are lexicographic so reports are
reproducible.
"""

from __future__ import annotations

from collections import Counter
from typing import Collection, Iterable, Mapping, NamedTuple

from .config import Thresholds
from .extraction import InstanceSet
from .taxonomy import Taxonomy, _tokens, phrase_score, wup_score


class MatchPair(NamedTuple):
    query_phrase: str
    vendor_phrase: str
    score: float
    query_freq: int
    vendor_freq: int


class VendorResult(NamedTuple):
    vendor_id: str
    pairs: tuple[MatchPair, ...]
    match_percentage: float
    per_query: dict[str, float]


class MatchReport(NamedTuple):
    """Vendors sorted by match percentage (desc), then id; winner first.

    ``winner`` is None when every vendor scored zero: electing an arbitrary
    vendor in that case would be meaningless.
    """

    results: tuple[VendorResult, ...]
    winner: str | None


# A pair (q, v) scores t = wup_threshold only if its largest token-pair
# score M reaches tau = 2t - 1, less this slack. Every token-pair score lies
# in [0, 1]; let u = 2**-53 and n, m be the token counts of q and v.
# phrase_score is fl(A + B) / 2, and the / 2 is exact:
# - B = fsum(m best scores) / m <= 1 exactly: fsum and the division are
#   correctly rounded, so neither rounds past m or 1;
# - A = fsum(n best scores) / n: their exact sum is at most n M, so after
#   two correctly rounded steps A <= M (1 + u)**2 <= M + 3u;
# - fl(A + B) <= (M + 1 + 3u)(1 + u) < M + 1 + 6u.
# A score of t or more needs fl(A + B) >= 2t, so M > 2t - 1 - 6u. For t in
# [0.5, 1], 2t - 1 is exact (Sterbenz) and subtracting 8u rounds by at most
# u / 4, so no pair that scores t is dropped; below 0.5 every Wu-Palmer
# score reaches tau. In exact arithmetic the bound is tight only at t = 1.0:
# a pair at t then has both means 1, so a token score of exactly 1. Below
# that the slack covers rounding alone.
_TAU_SLACK = 8 * 2.0**-53


def rank_phrases(
    query_phrases: Iterable[str],
    vendor_phrases: Collection[str],
    t: Taxonomy,
    cfg: Thresholds,
) -> dict[str, list[tuple[float, str]]]:
    """Each query phrase's vendor phrases that clear the threshold, best first.

    A query phrase is scored, once, only against the vendor phrases that
    can reach ``t = cfg.wup_threshold``. Each side's best-match mean is at
    most 1, so a pair reaches t > 0 only if one of its token pairs scores
    above 0 and at least ``tau = 2t - 1``. An untaxonomized token scores
    above 0 only against itself; a taxonomized one is compared by
    :func:`wup_score` with the taxonomized vendor tokens alone. When
    ``tau <= 0`` (t at most 0.5) every Wu-Palmer score reaches it, so only
    pairs that score 0 are skipped. A phrase of stopwords only is scored
    against those of the same lowercase form. The ``(-score, vendor
    phrase)`` entries with a score of at least t are sorted, so equal scores
    list the lexicographically smallest vendor phrase first.
    """
    tau = 2.0 * cfg.wup_threshold - 1.0 - _TAU_SLACK
    holders: dict[str, set[str]] = {}  # vendor token -> vendor phrases holding it
    bare: dict[str, list[str]] = {}  # lowercase form -> vendor phrases of stopwords
    for v in vendor_phrases:
        tokens = _tokens(t, v)
        for token in tokens:
            holders.setdefault(token, set()).add(v)
        if not tokens:
            bare.setdefault(v.lower(), []).append(v)
    concepts = [y for y in holders if y in t]
    near: dict[str, set[str]] = {}  # query token -> vendor phrases within tau

    def reach(x: str) -> set[str]:
        if x in t:
            ys = [y for y in concepts if wup_score(t, x, y) >= tau]
        else:
            ys = [x] if x in holders else []
        return set().union(*(holders[y] for y in ys))

    def candidates(q: str) -> Collection[str]:
        tokens = _tokens(t, q)
        if not tokens:
            return bare.get(q.lower(), [])
        found: set[str] = set()
        for x in tokens:
            if x not in near:
                near[x] = reach(x)
            found |= near[x]
        return found

    return {
        q: sorted(
            (-score, v)
            for v in candidates(q)
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
