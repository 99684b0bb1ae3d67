"""Every plain reference path that the library is checked against.

They share no code with what they check: text is tokenized afresh from the
documented contract, relatedness is evaluated term by term, LCS comes from
a brute-force ancestor closure, and every phrase pair is scored through
``lcs`` and the taxonomy's depths with no memo. From ``vendormatch`` come
only the result records, the stopword list, ``lcs`` and ``ObjectVector``,
which :func:`vector_from_codes` fills with given codes.
:func:`as_dict_tree` turns a report into the dict tree the JSON report
writes, read through the records' field names alone.
"""

import math
from collections import Counter, defaultdict

from vendormatch.matchmaker import MatchPair, MatchReport, VendorResult
from vendormatch.taxonomy import lcs
from vendormatch.textstats import DEFAULT_STOPWORDS, ObjectVector

# ------------------------------------------------------------- extraction


def vector_from_codes(codes):
    """An ``ObjectVector`` of the given codes, with no phrase behind them."""
    vec = ObjectVector.__new__(ObjectVector)
    vec.codes = tuple(map(float, codes))
    return vec


def direct_var(xs):
    """Population variance by two plain left-to-right passes."""
    total = 0.0
    for x in xs:
        total += x
    mu = total / len(xs)
    total = 0.0
    for x in xs:
        total += (x - mu) ** 2
    return total / len(xs)


def exact_moments(phrase):
    """Code points, their sum and ``sqrt(n Q - S**2) / (127 n)``, by plain loops."""
    points = list(map(ord, phrase))
    total = squares = 0
    for p in points:
        total += p
        squares += p * p
    n = len(points)
    return points, total, math.sqrt(n * squares - total * total) / (127.0 * n)


def oracle_relatedness(a: str, b: str) -> float:
    """Term-by-term evaluation of the composite metric on two phrases."""
    ca = [ord(ch) / 127.0 for ch in a]
    cb = [ord(ch) / 127.0 for ch in b]
    length = max(len(ca), len(cb))
    ca = ca + [0.0] * (length - len(ca))
    cb = cb + [0.0] * (length - len(cb))
    dist = math.sqrt(sum((y - x) ** 2 for x, y in zip(ca, cb))) / math.sqrt(length)
    sig_a = math.sqrt(direct_var([ord(ch) / 127.0 for ch in a]))
    sig_b = math.sqrt(direct_var([ord(ch) / 127.0 for ch in b]))
    diff = [y - x for x, y in zip(ca, cb)]
    return dist + abs(sig_a - sig_b) + direct_var(diff)


def reference_tokenize(text):
    """Tokens by the contract: non-ASCII replaced, then lowercased, [a-z0-9]+."""
    seven_bit = "".join(ch if ord(ch) < 128 else "?" for ch in text)
    tokens, token = [], ""
    for ch in seven_bit.lower() + " ":
        if "a" <= ch <= "z" or "0" <= ch <= "9":
            token += ch
        elif token:
            tokens.append(token)
            token = ""
    return tokens


def reference_candidates(tokens):
    """Every 1-3-gram with no stopword at an edge, counted in first-occurrence order."""
    grams = []
    for start in range(len(tokens)):
        for n in (1, 2, 3):
            gram = tokens[start : start + n]
            if len(gram) < n or {gram[0], gram[-1]} & DEFAULT_STOPWORDS:
                continue
            grams.append(" ".join(gram))
    return dict(Counter(grams))


def reference_extract(documents, marking, thresholds):
    """Plain extraction: documents in sorted order, every marked object scanned.

    ``marking`` is an insertion-ordered {phrase: frequency} dict, updated in
    place. Returns {doc_id: {phrase: (frequency, best_r, matched, via_fallback)}}.
    """
    out = {}
    for doc_id in sorted(documents):
        found = out[doc_id] = {}
        words = reference_tokenize(documents[doc_id])
        for phrase, frequency in reference_candidates(words).items():
            best_r, matched = None, None
            for marked in marking:
                r = oracle_relatedness(marked, phrase)
                if best_r is None or r < best_r:  # first minimum wins
                    best_r, matched = r, marked
            if best_r is None:
                continue
            if best_r < thresholds.r_threshold:
                via_fallback = False
            elif best_r < thresholds.fallback_threshold:
                via_fallback = True
            else:
                continue
            marking[phrase] = marking.get(phrase, 0) + frequency
            found[phrase] = (frequency, best_r, matched, via_fallback)
    return out


# --------------------------------------------------------------- taxonomy


def oracle_lcs_and_depth(edges, a, b):
    """Independent ancestor enumeration: recursive closure + longest-path depth."""
    parents = defaultdict(set)
    for child, parent in edges:
        parents[child].add(parent)

    depth_memo, anc_memo = {}, {}

    def depth(x):
        if x not in depth_memo:
            ps = parents.get(x, set())
            depth_memo[x] = 1 if not ps else 1 + max(depth(p) for p in ps)
        return depth_memo[x]

    def ancestors(x):
        if x not in anc_memo:
            closure = {x}
            for p in parents.get(x, set()):
                closure |= ancestors(p)
            anc_memo[x] = closure
        return anc_memo[x]

    common = ancestors(a) & ancestors(b)
    best_depth = max(depth(c) for c in common)
    winner = min(c for c in common if depth(c) == best_depth)
    return winner, depth(a), depth(b), best_depth


def random_rooted_dag(rng, max_nodes=50):
    n = rng.randint(2, max_nodes)
    ids = [f"c{i:02d}" for i in range(n)]
    edges = []
    for i in range(1, n):
        for p in rng.sample(range(i), rng.randint(1, min(2, i))):
            edges.append((ids[i], ids[p]))
    return edges, ids


def random_rooted_tree(rng, max_nodes=50):
    n = rng.randint(2, max_nodes)
    ids = [f"c{i:02d}" for i in range(n)]
    edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, n)]
    return edges, ids


# ---------------------------------------------------------------- ranking


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


def reference_rank_phrases(query_phrases, vendor_phrases, t, cfg):
    """rank_phrases as a full scan: every query phrase against every vendor phrase."""
    return {
        q: sorted(
            (-score, v)
            for v in vendor_phrases
            if (score := plain_phrase_score(t, q, v)) >= cfg.wup_threshold
        )
        for q in query_phrases
    }


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


# ----------------------------------------------------------------- report


def as_dict_tree(value):
    """``value`` with each record a dict of its fields, all the way down.

    Tuples and dicts keep their type and scalars stay as they are: the tree
    ``json.dumps`` writes the JSON report from.
    """
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: as_dict_tree(item) for name, item in zip(value._fields, value)}
    if isinstance(value, tuple):
        return tuple(map(as_dict_tree, value))
    if isinstance(value, dict):
        return {key: as_dict_tree(item) for key, item in value.items()}
    return value
