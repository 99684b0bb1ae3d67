"""Pairing, match percentage, and vendor ranking."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth_corpus import fresh_marking, make_corpus
from vendormatch.config import Thresholds
from vendormatch.extraction import InstanceRecord, InstanceSet, extract_corpus
from vendormatch.matchmaker import (
    MatchPair,
    MatchReport,
    VendorResult,
    match_percentage,
    pool_queries,
    rank_vendors,
    semantic_match,
)
from vendormatch.taxonomy import Taxonomy

DEFAULTS = Thresholds()


def instance_set(**freqs):
    return InstanceSet(
        instances={
            phrase: InstanceRecord(
                phrase=phrase,
                frequency=freq,
                best_r=0.0,
                matched_marked_phrase=phrase,
                via_fallback=False,
            )
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


# --------------------------------------------------------- semantic_match


def test_identity_pair(little_taxonomy):
    pairs = semantic_match(
        instance_set(solar=1),
        instance_set(solar=2),
        little_taxonomy,
        DEFAULTS,
    )
    assert len(pairs) == 1
    assert pairs[0].score == 1.0
    assert (pairs[0].query_freq, pairs[0].vendor_freq) == (1, 2)


def test_empty_query_set(little_taxonomy):
    assert semantic_match(
        instance_set(), instance_set(solar=1), little_taxonomy, DEFAULTS
    ) == []


def test_permuted_phrase_matches(little_taxonomy):
    pairs = semantic_match(
        instance_set(**{"wind speed": 1}),
        instance_set(**{"speed of wind": 1}),
        little_taxonomy,
        DEFAULTS,
    )
    assert len(pairs) == 1
    assert pairs[0].score == 1.0


def test_one_pair_per_query_instance(little_taxonomy):
    pairs = semantic_match(
        instance_set(solar=3),
        instance_set(solar=1, sun=1),
        little_taxonomy,
        DEFAULTS,
    )
    assert len(pairs) == 1
    assert pairs[0].vendor_phrase == "solar"  # exact beats the 10/11 sibling


def test_score_tie_breaks_to_smallest_vendor_phrase(little_taxonomy):
    # two vendor phrases that both score 1.0 against the query instance
    pairs = semantic_match(
        instance_set(**{"wind speed": 1}),
        instance_set(**{"speed of wind": 1, "speed wind": 1}),
        little_taxonomy,
        DEFAULTS,
    )
    assert pairs[0].vendor_phrase == "speed of wind"


def test_below_threshold_pairs_dropped(little_taxonomy):
    pairs = semantic_match(
        instance_set(sun=1),
        instance_set(wind=1),
        little_taxonomy,
        DEFAULTS,
    )
    assert pairs == []


# ------------------------------------------------------- match_percentage


def test_percentage_no_pairs():
    assert match_percentage(instance_set(solar=3), []) == 0.0


def test_percentage_full_coverage(little_taxonomy):
    query = instance_set(solar=3, wind=2)
    pairs = semantic_match(
        query, instance_set(solar=1, wind=1), little_taxonomy, DEFAULTS
    )
    assert match_percentage(query, pairs) == 100.0


def test_percentage_weighted_partial_coverage():
    # a: freq 3 matched at score 0.9; b: freq 1 unmatched -> 100*2.7/4
    query = instance_set(a=3, b=1)
    pairs = [
        MatchPair(
            query_phrase="a",
            vendor_phrase="a",
            score=0.9,
            query_freq=3,
            vendor_freq=1,
        )
    ]
    assert match_percentage(query, pairs) == pytest.approx(67.5, abs=1e-9)


def test_percentage_empty_query_set():
    assert match_percentage(instance_set(), []) == 0.0


# ----------------------------------------------------------- pool_queries


def test_pool_sums_frequencies_across_queries():
    pooled = pool_queries(
        {
            "q2": instance_set(solar=2, wind=1),
            "q1": instance_set(solar=3),
        }
    )
    assert pooled.instances["solar"].frequency == 5
    assert pooled.instances["wind"].frequency == 1
    assert list(pooled.instances) == ["solar", "wind"]  # ascending query id


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
                p: replace(rec, frequency=rec.frequency * 7)
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


def reference_rank_vendors(queries, vendors, t, cfg):
    """Ranking as V x (Q+1) independent semantic_match calls.

    Every vendor is matched against the pooled queries and then again
    against each query on its own, with no score shared between calls.
    """
    pooled = pool_queries(queries)
    results = []
    for vendor_id in sorted(vendors):
        vendor = vendors[vendor_id]
        pairs = semantic_match(pooled, vendor, t, cfg)
        per_query = {
            query_id: match_percentage(
                queries[query_id], semantic_match(queries[query_id], vendor, t, cfg)
            )
            for query_id in sorted(queries)
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


@pytest.mark.parametrize(
    "name", ["r_threshold", "fallback_threshold", "wup_threshold"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_threshold_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match="finite"):
        Thresholds(**{name: value})


def test_threshold_defaults():
    cfg = Thresholds()
    assert cfg.r_threshold == 0.01
    assert cfg.fallback_threshold == 0.009
    assert cfg.wup_threshold == 0.9
