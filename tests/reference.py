"""Plain reference paths that the library's ranking is checked against.

They share no code with what they check: every phrase pair is scored
afresh through ``lcs`` and the taxonomy's depths, with no memo, and every
sum adds left to right. Only the result dataclasses come from
``vendormatch.matchmaker``.
"""

import math

from vendormatch.matchmaker import MatchPair, MatchReport, VendorResult
from vendormatch.stopwords import DEFAULT_STOPWORDS
from vendormatch.taxonomy import lcs


def plain_phrase_score(t, a, b):
    """phrase_score as two directed passes, each token pair scored afresh."""

    def token_score(x, y):
        if x in t and y in t:
            return 2.0 * t.depth(lcs(t, x, y)) / (t.depth(x) + t.depth(y))
        if x not in t and y not in t and x == y:
            return 1.0
        return 0.0

    tokens_a = [w for w in a.lower().split() if w not in DEFAULT_STOPWORDS]
    tokens_b = [w for w in b.lower().split() if w not in DEFAULT_STOPWORDS]
    if not tokens_a or not tokens_b:
        return 1.0 if a.lower() == b.lower() else 0.0

    def directed(src, dst):
        best = (max(token_score(x, y) for y in dst) for x in src)
        return math.fsum(best) / len(src)

    return (directed(tokens_a, tokens_b) + directed(tokens_b, tokens_a)) / 2.0


def reference_rank_vendors(queries, vendors, t, cfg):
    """Ranking as V x (Q+1) independent best-match scans.

    Every vendor is matched against the pooled queries and then again
    against each query on its own, with no score shared between scans.
    """

    def as_map(found):
        return {p: rec.frequency for p, rec in found.instances.items()}

    def best_pairs(query, vendor):
        pairs = []
        for query_phrase in sorted(query):
            best_score, best_vendor_phrase = -1.0, None
            for vendor_phrase in sorted(vendor):
                score = plain_phrase_score(t, query_phrase, vendor_phrase)
                if score > best_score:
                    best_score, best_vendor_phrase = score, vendor_phrase
            if best_vendor_phrase is not None and best_score >= cfg.wup_threshold:
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

    def percentage(query, pairs):
        total = 0
        for frequency in query.values():
            total += frequency
        if total == 0:
            return 0.0
        matched = 0.0
        for p in pairs:
            matched += query[p.query_phrase] * p.score
        return 100.0 * matched / total

    queries = {query_id: as_map(s) for query_id, s in queries.items()}
    pooled = {}
    for query in queries.values():
        for phrase, frequency in query.items():
            pooled[phrase] = pooled.get(phrase, 0) + frequency
    results = []
    for vendor_id in sorted(vendors):
        vendor = as_map(vendors[vendor_id])
        pairs = best_pairs(pooled, vendor)
        per_query = {
            query_id: percentage(queries[query_id], best_pairs(queries[query_id], vendor))
            for query_id in sorted(queries)
        }
        results.append(
            VendorResult(
                vendor_id=vendor_id,
                pairs=tuple(pairs),
                match_percentage=percentage(pooled, pairs),
                per_query=per_query,
            )
        )
    results.sort(key=lambda r: (-r.match_percentage, r.vendor_id))
    winner = None
    if results and results[0].match_percentage > 0:
        winner = results[0].vendor_id
    return MatchReport(results=tuple(results), winner=winner)
