"""Pairing, match percentages, and vendor ranking."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    random_rooted_dag,
    random_rooted_tree,
    reference_rank_phrases,
    reference_rank_vendors,
)
from synth_corpus import fresh_marking, make_corpus
from vendormatch import matchmaker
from vendormatch.config import Thresholds
from vendormatch.extraction import InstanceRecord, InstanceSet, extract_corpus
from vendormatch.matchmaker import (
    MatchPair,
    pool_queries,
    rank_phrases,
    rank_vendors,
    semantic_match,
)
from vendormatch.taxonomy import Taxonomy, phrase_score

DEFAULTS = Thresholds()


def instance_set(**freqs):
    return InstanceSet(
        instances={
            phrase: InstanceRecord(frequency=freq, via_fallback=False)
            for phrase, freq in freqs.items()
        },
    )


@pytest.fixture(scope="module")
def little_taxonomy():
    # depths: energy 1 ... solar/wind 5, sun 6, so wup(sun, solar) = 10/11
    return Taxonomy.from_edges(
        [
            ("sources", "energy"),
            ("renewable", "sources"),
            ("radiant", "renewable"),
            ("airflow", "renewable"),
            ("solar", "radiant"),
            ("wind", "airflow"),
            ("sun", "solar"),
            ("speed", "energy"),
        ]
    )


# ----------------------------------------------------------- rank_phrases


_QUERY_PHRASES = ["solar", "wind speed"]
_VENDOR_PHRASES = ["wind", "speed wind", "sun", "speed", "speed of wind", "solar"]


def counted_rank_phrases(monkeypatch, t, wup):
    """rank_phrases of the phrases above at ``wup``, and the pairs it scored."""
    calls = []

    def counted(t, a, b):
        calls.append((a, b))
        return phrase_score(t, a, b)

    monkeypatch.setattr(matchmaker, "phrase_score", counted)
    cfg = Thresholds(wup_threshold=wup)
    return rank_phrases(_QUERY_PHRASES, _VENDOR_PHRASES, t, cfg), calls


def test_rank_phrases_scores_each_pair_once_best_first(little_taxonomy, monkeypatch):
    # at t = 0.5 every Wu-Palmer score reaches tau = 2t - 1 = 0, and every
    # token here is taxonomized, so every pair is scored
    ranked, calls = counted_rank_phrases(monkeypatch, little_taxonomy, 0.5)
    assert len(calls) == len(_QUERY_PHRASES) * len(_VENDOR_PHRASES)
    assert set(calls) == set(itertools.product(_QUERY_PHRASES, _VENDOR_PHRASES))
    assert ranked == reference_rank_phrases(
        _QUERY_PHRASES, _VENDOR_PHRASES, little_taxonomy, Thresholds(wup_threshold=0.5)
    )


def test_rank_phrases_ranks_best_first_and_keeps_a_pair_at_the_threshold(
    little_taxonomy,
):
    cfg = Thresholds(wup_threshold=0.6)
    ranked = rank_phrases(_QUERY_PHRASES, _VENDOR_PHRASES, little_taxonomy, cfg)
    # wup(solar, wind) = 2*3/(5+5) is exactly the threshold and is kept
    assert ranked["solar"] == [(-1.0, "solar"), (-10 / 11, "sun"), (-0.6, "wind")]
    # two ties: both permutations score 1.0, and speed and wind score alike
    assert [v for _, v in ranked["wind speed"]] == [
        "speed of wind", "speed wind", "speed", "wind"
    ]
    assert ranked["wind speed"][2][0] == ranked["wind speed"][3][0] > -1.0


def test_rank_phrases_scores_only_pairs_sharing_a_token_pair_within_tau(
    little_taxonomy, monkeypatch
):
    # tau = 0.8: solar reaches solar and sun (10/11), but not wind (0.6) or
    # speed (1/3); wind and speed reach only themselves
    ranked, calls = counted_rank_phrases(monkeypatch, little_taxonomy, 0.9)
    assert len(calls) == len(set(calls))
    assert set(calls) == {
        ("solar", "solar"),
        ("solar", "sun"),
        *(("wind speed", v) for v in ["wind", "speed wind", "speed", "speed of wind"]),
    }
    assert ranked == reference_rank_phrases(
        _QUERY_PHRASES, _VENDOR_PHRASES, little_taxonomy, Thresholds(wup_threshold=0.9)
    )
    assert ranked == {
        "solar": [(-1.0, "solar"), (-10 / 11, "sun")],
        "wind speed": [(-1.0, "speed of wind"), (-1.0, "speed wind")],
    }


def test_rank_phrases_keeps_permutations_exactly_at_one(little_taxonomy):
    # at t = 1.0 tau is 1: a permuted phrase scores exactly 1 and keeps its place
    cfg = Thresholds(wup_threshold=1.0)
    vendor_phrases = ["speed of wind", "wind", "sun", "speed", "wind speed of"]
    ranked = rank_phrases(["wind speed"], vendor_phrases, little_taxonomy, cfg)
    assert ranked == {
        "wind speed": [(-1.0, "speed of wind"), (-1.0, "wind speed of")]
    }
    assert ranked == reference_rank_phrases(
        ["wind speed"], vendor_phrases, little_taxonomy, cfg
    )


# taxonomized on some drawn taxonomies, untaxonomized on others, never
# taxonomized, and stopwords; capitals test the lowercase forms
_TOKENS = st.sampled_from(
    ["c00", "c01", "c02", "c03", "c05", "c08", "c13", "zz", "qq", "of", "the",
     "C01", "ZZ", "Of", "THE"]
)
_RANDOM_PHRASES = st.lists(_TOKENS, min_size=1, max_size=3).map(" ".join)


def as_hex(ranked):
    return {q: [(score.hex(), v) for score, v in pairs] for q, pairs in ranked.items()}


@settings(max_examples=100, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    tree=st.booleans(),
    query_phrases=st.lists(_RANDOM_PHRASES, min_size=1, max_size=8, unique=True),
    vendor_phrases=st.lists(_RANDOM_PHRASES, max_size=12, unique=True),
)
def test_rank_phrases_equals_a_full_scan_on_random_taxonomies(
    rng, tree, query_phrases, vendor_phrases
):
    """The threshold filter drops no pair a full scan keeps, to the bit.

    Besides fixed thresholds around tau = 0 and at 1, every score above 0.5
    that the full scan gives is tried as the threshold, so some pair sits
    exactly at it.
    """
    edges, _ = (random_rooted_tree if tree else random_rooted_dag)(rng, max_nodes=14)
    t = Taxonomy.from_edges(edges)
    scores = {
        -score
        for pairs in reference_rank_phrases(
            query_phrases, vendor_phrases, t, Thresholds(wup_threshold=0.5)
        ).values()
        for score, _ in pairs
    }
    for wup in sorted({0.5, 0.5 + 1e-12, 0.6, 0.9, 1.0} | scores):
        cfg = Thresholds(wup_threshold=wup)
        assert as_hex(rank_phrases(query_phrases, vendor_phrases, t, cfg)) == as_hex(
            reference_rank_phrases(query_phrases, vendor_phrases, t, cfg)
        )


def test_rank_phrases_of_no_vendor_phrases(little_taxonomy):
    assert rank_phrases(["solar"], [], little_taxonomy, DEFAULTS) == {"solar": []}


# --------------------------------------------------------- semantic_match


def match(query, vendor, t, cfg=DEFAULTS):
    """semantic_match of one query against one vendor, ranked for just them."""
    return semantic_match(query, vendor, rank_phrases(query, vendor, t, cfg))


def test_identity_pair(little_taxonomy):
    pairs = match({"solar": 1}, {"solar": 2}, little_taxonomy)
    assert len(pairs) == 1
    assert pairs[0].score == 1.0
    assert (pairs[0].query_freq, pairs[0].vendor_freq) == (1, 2)


def test_empty_query_set(little_taxonomy):
    assert match({}, {"solar": 1}, little_taxonomy) == []


def test_permuted_phrase_matches(little_taxonomy):
    pairs = match({"wind speed": 1}, {"speed of wind": 1}, little_taxonomy)
    assert len(pairs) == 1
    assert pairs[0].score == 1.0


def test_one_pair_per_query_instance(little_taxonomy):
    pairs = match({"solar": 3}, {"solar": 1, "sun": 1}, little_taxonomy)
    assert len(pairs) == 1
    assert pairs[0].vendor_phrase == "solar"  # exact beats the 10/11 sibling


def test_score_tie_breaks_to_smallest_vendor_phrase(little_taxonomy):
    # two vendor phrases that both score 1.0 against the query instance
    pairs = match(
        {"wind speed": 1}, {"speed wind": 1, "speed of wind": 1}, little_taxonomy
    )
    assert pairs[0].vendor_phrase == "speed of wind"


def test_below_threshold_pairs_dropped(little_taxonomy):
    assert match({"sun": 1}, {"wind": 1}, little_taxonomy) == []


def test_semantic_match_skips_ranked_phrases_the_vendor_lacks():
    ranked = {"solar": [(-1.0, "solar"), (-0.95, "sun")], "wind": [(-1.0, "wind")]}
    pairs = semantic_match({"wind": 1, "solar": 2}, {"sun": 4}, ranked)
    assert pairs == [MatchPair("solar", "sun", 0.95, 2, 4)]


# ------------------------------------------------------------ percentages


def percentages(queries, vendor, t, cfg=DEFAULTS):
    """One vendor's pooled and per-query percentages from rank_vendors."""
    (result,) = rank_vendors(queries, {"v1": vendor}, t, cfg).results
    return result.match_percentage, result.per_query


def test_percentage_no_pairs(little_taxonomy):
    assert percentages(
        {"q1": instance_set(solar=3)}, instance_set(quartz=1), little_taxonomy
    ) == (0.0, {"q1": 0.0})


def test_percentage_full_coverage(little_taxonomy):
    assert percentages(
        {"q1": instance_set(solar=3, wind=2)},
        instance_set(solar=1, wind=1),
        little_taxonomy,
    ) == (100.0, {"q1": 100.0})


def test_percentage_weighted_partial_coverage(little_taxonomy):
    # sun: freq 3 matched to solar at 10/11; wind: freq 1 unmatched (0.6)
    pooled, per_query = percentages(
        {"q1": instance_set(sun=3, wind=1)}, instance_set(solar=1), little_taxonomy
    )
    assert pooled == pytest.approx(100 * 3 * (10 / 11) / 4, abs=1e-9)
    assert per_query == {"q1": pooled}


def test_percentage_ignores_scores_of_other_phrases(little_taxonomy):
    # solar ranks v2's exact solar first, but v1 pairs with its own sun; a
    # query counts only its own phrases' pairs, not the pool's
    queries = {"q1": instance_set(solar=1), "q2": instance_set(wind=1)}
    vendors = {"v1": instance_set(sun=1), "v2": instance_set(solar=1, wind=1)}
    report = rank_vendors(queries, vendors, little_taxonomy, DEFAULTS)
    v1 = next(r for r in report.results if r.vendor_id == "v1")
    assert v1.pairs == (MatchPair("solar", "sun", 10 / 11, 1, 1),)
    assert v1.match_percentage == 100.0 * (10 / 11) / 2
    assert v1.per_query == {"q1": 100.0 * (10 / 11), "q2": 0.0}


def test_percentage_adds_left_to_right_on_every_interpreter():
    # two 8-deep chains under root: each query leaf q0..q9 (depth 10, under
    # a8) scores wup 2*1/(10+10) = 0.1 against the vendor leaf v under b8.
    # Ten 0.1 products added in order give 0.9999999999999999; builtin sum()
    # on Python 3.12+ compensates and would give exactly 1.0
    chains = [
        (f"{side}{i}", f"{side}{i - 1}" if i > 1 else "root")
        for side in "ab"
        for i in range(1, 9)
    ]
    leaves = [(f"q{i}", "a8") for i in range(10)] + [("v", "b8")]
    t = Taxonomy.from_edges(chains + leaves)
    phrases = {f"q{i}": 1 for i in range(10)}
    assert {phrase_score(t, q, "v") for q in phrases} == {0.1}
    assert percentages(
        {"q1": instance_set(**phrases)},
        instance_set(v=1),
        t,
        Thresholds(wup_threshold=0.1),
    ) == (9.999999999999998, {"q1": 9.999999999999998})


def test_percentage_empty_query_set(little_taxonomy):
    vendor = instance_set(solar=1)
    assert percentages({}, vendor, little_taxonomy) == (0.0, {})
    assert percentages({"q1": instance_set()}, vendor, little_taxonomy) == (
        0.0, {"q1": 0.0}
    )


# ----------------------------------------------------------- pool_queries


def test_pool_sums_frequencies_across_queries():
    pooled = pool_queries({"q2": {"solar": 2, "wind": 1}, "q1": {"solar": 3}})
    assert pooled == {"solar": 5, "wind": 1}


def test_pool_is_phrase_sorted_not_first_seen():
    pooled = pool_queries({"q1": {"wind": 1}, "q2": {"solar": 1}})
    assert list(pooled) == ["solar", "wind"]


# ----------------------------------------------------------- rank_vendors


def test_single_vendor_with_matches_wins(little_taxonomy):
    report = rank_vendors(
        {"q1": instance_set(solar=1)},
        {"v1": instance_set(solar=1)},
        little_taxonomy,
        DEFAULTS,
    )
    assert report.winner == "v1"
    assert report.results[0].match_percentage == 100.0
    assert report.results[0].per_query == {"q1": 100.0}


def test_percentage_tie_breaks_to_smaller_vendor_id(little_taxonomy):
    queries = {"q1": instance_set(solar=1)}
    vendors = {
        "vb": instance_set(solar=1),
        "va": instance_set(solar=1),
    }
    report = rank_vendors(queries, vendors, little_taxonomy, DEFAULTS)
    assert [r.vendor_id for r in report.results] == ["va", "vb"]
    assert report.winner == "va"


def test_no_matches_means_no_winner(little_taxonomy):
    report = rank_vendors(
        {"q1": instance_set(sun=1)},
        {"v1": instance_set(wind=1)},
        little_taxonomy,
        DEFAULTS,
    )
    assert report.winner is None
    assert report.results[0].match_percentage == 0.0


def test_three_vendor_ranking_matches_hand_table(little_taxonomy):
    # pooled queries: solar x3, wind x1, sun x2  (total mass 6)
    queries = {
        "q1": instance_set(solar=3),
        "q2": instance_set(wind=1, sun=2),
    }
    vendors = {
        "v1": instance_set(solar=1, wind=1),  # sun->solar at 10/11
        "v2": instance_set(wind=1),  # only wind matches
        "v3": instance_set(sun=1),  # sun exact; solar->sun at 10/11
    }
    report = rank_vendors(queries, vendors, little_taxonomy, DEFAULTS)
    # hand table: wup(sun, solar) = 2*5/(5+6) = 10/11 >= 0.9
    v1 = 100 * (3 * 1.0 + 1 * 1.0 + 2 * (10 / 11)) / 6
    v2 = 100 * (1 * 1.0) / 6
    v3 = 100 * (3 * (10 / 11) + 2 * 1.0) / 6
    by_id = {r.vendor_id: r.match_percentage for r in report.results}
    assert by_id["v1"] == pytest.approx(v1, abs=1e-9)
    assert by_id["v2"] == pytest.approx(v2, abs=1e-9)
    assert by_id["v3"] == pytest.approx(v3, abs=1e-9)
    assert [r.vendor_id for r in report.results] == ["v1", "v3", "v2"]
    assert report.winner == "v1"


def test_frequency_scale_invariance(little_taxonomy):
    queries = {
        "q1": instance_set(solar=3, wind=1),
        "q2": instance_set(sun=2),
    }
    vendors = {
        "v1": instance_set(solar=1),
        "v2": instance_set(wind=1, sun=1),
    }
    base = rank_vendors(queries, vendors, little_taxonomy, DEFAULTS)
    scaled_queries = {
        qid: InstanceSet(
            instances={
                p: rec._replace(frequency=rec.frequency * 7)
                for p, rec in qs.instances.items()
            },
        )
        for qid, qs in queries.items()
    }
    scaled = rank_vendors(scaled_queries, vendors, little_taxonomy, DEFAULTS)
    assert [r.vendor_id for r in scaled.results] == [
        r.vendor_id for r in base.results
    ]
    assert scaled.winner == base.winner


def test_raising_wup_threshold_never_raises_percentages(little_taxonomy):
    queries = {"q1": instance_set(solar=2, sun=1, wind=1)}
    vendors = {
        "v1": instance_set(solar=1, wind=1),
        "v2": instance_set(sun=1),
    }
    loose = rank_vendors(queries, vendors, little_taxonomy, DEFAULTS)
    strict = rank_vendors(
        queries, vendors, little_taxonomy, Thresholds(wup_threshold=0.95)
    )
    loose_pct = {r.vendor_id: r.match_percentage for r in loose.results}
    strict_pct = {r.vendor_id: r.match_percentage for r in strict.results}
    for vid in vendors:
        assert strict_pct[vid] <= loose_pct[vid] + 1e-12


def test_report_is_deterministic(little_taxonomy):
    queries = {"q1": instance_set(solar=2, wind=1)}
    vendors = {
        "v1": instance_set(solar=1),
        "v2": instance_set(wind=3),
    }
    a = rank_vendors(queries, vendors, little_taxonomy, DEFAULTS)
    b = rank_vendors(queries, vendors, little_taxonomy, DEFAULTS)
    assert a == b


# ------------------------------------------- rank_vendors vs. reference


@pytest.mark.parametrize("wup", [0.5, 0.9])
@pytest.mark.parametrize("seed", range(4))
def test_rank_vendors_equals_reference_on_synth_corpora(bundled_taxonomy, seed, wup):
    rng = random.Random(seed)
    cfg = Thresholds(wup_threshold=wup)
    marking = fresh_marking()
    vendors = extract_corpus(make_corpus(rng, 6), marking, cfg)
    queries = extract_corpus(make_corpus(rng, 5, words_per_doc=12), marking, cfg)
    expected = reference_rank_vendors(queries, vendors, bundled_taxonomy, cfg)
    assert expected.winner is not None
    assert rank_vendors(queries, vendors, bundled_taxonomy, cfg) == expected


def test_rank_vendors_equals_reference_with_tied_vendor_phrases(little_taxonomy):
    # both vendor phrases score 1.0 against "wind speed"; "solar" and
    # "wind speed" each appear in more than one query
    queries = {
        "q1": instance_set(**{"wind speed": 2, "solar": 1}),
        "q2": instance_set(**{"wind speed": 1, "sun": 3}),
        "q3": instance_set(solar=4, wind=1),
    }
    vendors = {
        "v1": instance_set(**{"speed wind": 5, "speed of wind": 1, "sun": 1}),
        "v2": instance_set(**{"speed of wind": 2, "solar": 2}),
    }
    report = rank_vendors(queries, vendors, little_taxonomy, DEFAULTS)
    assert report == reference_rank_vendors(queries, vendors, little_taxonomy, DEFAULTS)
    v1 = next(r for r in report.results if r.vendor_id == "v1")
    tied = next(p for p in v1.pairs if p.query_phrase == "wind speed")
    assert (tied.vendor_phrase, tied.query_freq, tied.vendor_freq) == (
        "speed of wind", 3, 1
    )


def test_rank_vendors_equals_reference_where_a_query_matches_nothing(little_taxonomy):
    # q0 holds no instance, a total of 0. v1 pairs only with q1's phrase
    # (sun -> solar at 10/11), so q2 shares no phrase with its pairs; v2
    # pairs with nothing. Each of those per-query percentages stays 0.0
    queries = {
        "q0": instance_set(),
        "q1": instance_set(solar=2),
        "q2": instance_set(wind=1),
    }
    vendors = {"v1": instance_set(sun=1), "v2": instance_set(quartz=1)}
    report = rank_vendors(queries, vendors, little_taxonomy, DEFAULTS)
    assert report == reference_rank_vendors(queries, vendors, little_taxonomy, DEFAULTS)
    assert {r.vendor_id: r.per_query for r in report.results} == {
        "v1": {"q0": 0.0, "q1": 100.0 * (2 * (10 / 11)) / 2, "q2": 0.0},
        "v2": {"q0": 0.0, "q1": 0.0, "q2": 0.0},
    }


_WORDS = ["solar", "sun", "wind", "speed", "radiant", "energy", "of", "quartz"]
_PHRASES = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join)
_INSTANCE_SETS = st.dictionaries(_PHRASES, st.integers(1, 5), max_size=6)


@settings(max_examples=60, deadline=None)
@given(
    query_sets=st.lists(_INSTANCE_SETS, min_size=1, max_size=4),
    vendor_sets=st.lists(_INSTANCE_SETS, min_size=1, max_size=4),
    wup=st.sampled_from([0.3, 0.6, 0.9, 1.0]),
)
def test_rank_vendors_equals_reference_on_random_sets(
    little_taxonomy, query_sets, vendor_sets, wup
):
    queries = {f"q{i}": instance_set(**f) for i, f in enumerate(query_sets)}
    vendors = {f"v{i}": instance_set(**f) for i, f in enumerate(vendor_sets)}
    cfg = Thresholds(wup_threshold=wup)
    assert rank_vendors(queries, vendors, little_taxonomy, cfg) == (
        reference_rank_vendors(queries, vendors, little_taxonomy, cfg)
    )


# ------------------------------------------------------------- thresholds


@pytest.mark.parametrize(
    "kwargs",
    [
        {"r_threshold": 0.0},
        {"r_threshold": -0.01},
        {"fallback_threshold": 0.0},
        {"wup_threshold": 0.0},
        {"wup_threshold": 1.5},
    ],
)
def test_threshold_validation(kwargs):
    with pytest.raises(ValueError):
        Thresholds(**kwargs)
    with pytest.raises(ValueError):
        Thresholds(*positional_thresholds(**kwargs))


@pytest.mark.parametrize(
    "name", ["r_threshold", "fallback_threshold", "wup_threshold"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_threshold_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match="finite"):
        Thresholds(**{name: value})
    with pytest.raises(ValueError, match="finite"):
        Thresholds(*positional_thresholds(**{name: value}))


def positional_thresholds(**kwargs):
    """Thresholds' positional arguments: the class defaults, with ``kwargs``."""
    return [kwargs.get(n, getattr(Thresholds, n)) for n in Thresholds.__match_args__]


def test_threshold_defaults():
    cfg = Thresholds()
    assert cfg.r_threshold == 0.01
    assert cfg.fallback_threshold == 0.009
    assert cfg.wup_threshold == 0.9
