"""Acceptance suite: every release criterion, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Tolerances are pinned here and nowhere else.
"""

import math
import random
import time

from reference import (
    direct_var,
    oracle_lcs_and_depth,
    oracle_relatedness,
    random_rooted_dag,
    random_rooted_tree,
    vector_from_codes,
)
from repo_paths import DATA_DIR
from synth_corpus import fresh_marking, make_corpus
from vendormatch.cli import emit_report, run
from vendormatch.config import RunConfig, Thresholds
from vendormatch.extraction import InstanceSet, extract_corpus
from vendormatch.marking import load_marking, save_marking
from vendormatch.matchmaker import rank_vendors
from vendormatch.taxonomy import Taxonomy, lcs, phrase_score, wup_score
from vendormatch.textstats import encode, relatedness_terms

DEFAULTS = Thresholds()


def _passed(criterion: str) -> None:
    print(f"ACCEPTANCE PASS: {criterion}")


def bundled_config(marking_path, update_marking):
    return RunConfig(
        vendors_dir=DATA_DIR / "vendors",
        queries_dir=DATA_DIR / "queries",
        marking_path=marking_path,
        taxonomy_path=DATA_DIR / "taxonomy.tsv",
        update_marking=update_marking,
    )


# -------------------------------------------------------------------------
# 1. similarity oracle suite: 100 random rooted DAGs, all concept pairs,
#    score == 2*depth(LCS)/(depth(a)+depth(b)) with brute-force LCS, < 10 s
# -------------------------------------------------------------------------


def test_similarity_oracle_suite_on_random_dags():
    rng = random.Random(42)
    started = time.monotonic()
    pairs_checked = 0
    for _ in range(100):
        edges, ids = random_rooted_dag(rng, max_nodes=50)
        t = Taxonomy.from_edges(edges)
        for i, a in enumerate(ids):
            for b in ids[i:]:
                expected_lcs, depth_a, depth_b, depth_lcs = oracle_lcs_and_depth(
                    edges, a, b
                )
                got = wup_score(t, a, b)
                assert lcs(t, a, b) == expected_lcs
                expected = 2.0 * depth_lcs / (depth_a + depth_b)
                assert abs(got - expected) <= 1e-12
                assert phrase_score(t, a, b) == got
                pairs_checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"
    _passed(
        f"similarity oracle suite: {pairs_checked} pairs over 100 DAGs "
        f"in {elapsed:.1f}s"
    )


# -------------------------------------------------------------------------
# 2. score spot checks: identity equals one, sibling tree equals 2/3 exactly,
#    scores in (0, 1] everywhere (depth is the longest path from the root, so
#    every ancestor is strictly shallower than its descendants, multi-parent
#    DAGs included)
# -------------------------------------------------------------------------


def test_score_spot_checks(bundled_taxonomy):
    for concept in bundled_taxonomy:
        assert wup_score(bundled_taxonomy, concept, concept) == 1.0

    siblings = Taxonomy.from_edges([("a", "root"), ("b", "a"), ("c", "a")])
    assert wup_score(siblings, "b", "c") == 2 / 3

    rng = random.Random(8)
    for _ in range(10):
        edges, ids = random_rooted_dag(rng, max_nodes=40)
        t = Taxonomy.from_edges(edges)
        for a in ids:
            for b in ids:
                assert 0.0 < wup_score(t, a, b) <= 1.0

    concepts = list(bundled_taxonomy)
    for a in concepts:
        for b in concepts:
            assert 0.0 < wup_score(bundled_taxonomy, a, b) <= 1.0

    for _ in range(10):
        edges, ids = random_rooted_tree(rng, max_nodes=40)
        t = Taxonomy.from_edges(edges)
        for a in ids:
            for b in ids:
                assert 0.0 < wup_score(t, a, b) <= 1.0
    _passed(
        "score spot checks: identity 1, sibling tree 2/3, in (0, 1] on DAGs, "
        "trees and the bundled taxonomy"
    )


# -------------------------------------------------------------------------
# 3. statistics oracle: 1000 random vectors match direct summation to 1e-12;
#    relatedness(v, v) == 0 exactly for 1000 random phrases
# -------------------------------------------------------------------------


def test_statistics_against_direct_summation():
    rng = random.Random(1234)
    vectors = []
    for _ in range(1000):
        codes = [rng.random() for _ in range(rng.randint(1, 64))]
        vectors.append(codes)
        v = vector_from_codes(codes)
        assert abs(v.stddev - math.sqrt(direct_var(codes))) <= 1e-12
    for first, second in zip(vectors, vectors[1:]):
        length = max(len(first), len(second))
        pa = first + [0.0] * (length - len(first))
        pb = second + [0.0] * (length - len(second))
        diff = [y - x for x, y in zip(pa, pb)]
        got = relatedness_terms(vector_from_codes(first), vector_from_codes(second))[2]
        assert abs(got - direct_var(diff)) <= 1e-12

    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 "
    for _ in range(1000):
        phrase = "".join(rng.choices(alphabet, k=rng.randint(1, 30))).strip() or "x"
        v = encode(phrase)
        assert sum(relatedness_terms(v, v)) == 0.0
    _passed("statistics oracle: 1000 vectors at 1e-12; relatedness(v, v) == 0")


# -------------------------------------------------------------------------
# 4. metric properties: symmetry and triangle inequality on 1000 equal-length
#    triples (1e-9); threshold sweep {0.005, 0.01, 0.02} gives nested
#    instance sets on a 50-document random corpus
# -------------------------------------------------------------------------


def test_metric_symmetry_and_triangle_inequality():
    rng = random.Random(555)
    for _ in range(1000):
        n = rng.randint(1, 32)
        u, v, w = (vector_from_codes([rng.random() for _ in range(n)]) for _ in range(3))
        uv, vu, uw, vw = (
            relatedness_terms(x, y)[0] for x, y in ((u, v), (v, u), (u, w), (v, w))
        )
        assert uv == vu
        assert uw <= uv + vw + 1e-9
    _passed("metric properties: symmetry exact, triangle inequality at 1e-9")


def test_threshold_sweep_yields_nested_instance_sets():
    rng = random.Random(31337)
    docs = make_corpus(rng, 50)
    sweep = {}
    for r_threshold in (0.005, 0.01, 0.02):
        sets = extract_corpus(
            docs, fresh_marking(), Thresholds(r_threshold=r_threshold)
        )
        sweep[r_threshold] = {doc: set(s.instances) for doc, s in sets.items()}
    for doc_id in docs:
        assert sweep[0.005][doc_id] <= sweep[0.01][doc_id] <= sweep[0.02][doc_id]
    counts = {thr: sum(len(v) for v in by_doc.values()) for thr, by_doc in sweep.items()}
    assert counts[0.005] <= counts[0.01] <= counts[0.02]
    _passed(
        "threshold sweep on 50 random documents: nested instance sets "
        f"(totals {counts[0.005]}/{counts[0.01]}/{counts[0.02]})"
    )


# -------------------------------------------------------------------------
# 5. pinned phrase behavior: "wind speed" vs "speed of wind" scores exactly 1
# -------------------------------------------------------------------------


def test_permuted_phrase_scores_exactly_one(bundled_taxonomy):
    score = phrase_score(bundled_taxonomy, "wind speed", "speed of wind")
    assert score == 1.0
    _passed('phrase score("wind speed", "speed of wind") == 1.0 exactly')


# -------------------------------------------------------------------------
# 6. exact-hit extraction: every seed-table term planted verbatim scores
#    0.0 against itself and is admitted under r_threshold, not the fallback
# -------------------------------------------------------------------------


def test_seed_table_terms_extracted_exactly(tmp_path):
    table = {
        "energy sources": 24,
        "energy": 165,
        "resources": 51,
        "sun": 37,
        "wind": 33,
    }
    marking_path = tmp_path / "marking.tsv"
    marking_path.write_text(
        "".join(f"{p}\t{f}\n" for p, f in table.items()), encoding="utf-8"
    )
    marking = load_marking(marking_path)
    doc = (
        "Clean energy sources such as the sun and the wind count among the "
        "renewable resources we track; energy demand keeps growing."
    )
    out = extract_corpus({"doc": doc}, marking, DEFAULTS)["doc"]
    for term in table:
        assert oracle_relatedness(term, term) == 0.0
        assert not out.instances[term].via_fallback
    _passed("exact-hit extraction: all five seed-table terms at r == 0, none via fallback")


# -------------------------------------------------------------------------
# 7. adaptive marking: instance coverage after a corpus run, monotone
#    frequencies across runs, byte-identical save/load round-trip
# -------------------------------------------------------------------------


def test_adaptive_marking_on_bundled_corpus(tmp_marking, bundled_corpus):
    def one_run():
        marking = load_marking(tmp_marking)
        vendor_sets, query_sets = (
            extract_corpus(bundled_corpus[kind], marking, DEFAULTS)
            for kind in ("vendors", "queries")
        )
        save_marking(marking, tmp_marking)
        return vendor_sets, query_sets

    vendor_sets, query_sets = one_run()
    saved = load_marking(tmp_marking)
    for sets in (vendor_sets, query_sets):
        for instance_set in sets.values():
            for phrase in instance_set.instances:
                assert phrase in saved

    one_run()
    second = load_marking(tmp_marking)
    assert set(saved) <= set(second)
    for phrase, freq in saved.items():
        assert second[phrase] >= freq

    save_marking(second, tmp_marking)
    first_bytes = tmp_marking.read_bytes()
    save_marking(load_marking(tmp_marking), tmp_marking)
    assert tmp_marking.read_bytes() == first_bytes
    _passed(
        "adaptive marking: coverage, monotone frequencies across runs, "
        "byte-identical round-trip"
    )


# -------------------------------------------------------------------------
# 8. end-to-end determinism on the bundled 10-vendor / 30-query corpus:
#    byte-identical reports without updates, one unambiguous winner, < 30 s
# -------------------------------------------------------------------------


def test_end_to_end_determinism_at_corpus_scale():
    assert len(list((DATA_DIR / "vendors").glob("*.txt"))) == 10
    assert len(list((DATA_DIR / "queries").glob("*.txt"))) == 30
    started = time.monotonic()
    first = emit_report(
        run(bundled_config(DATA_DIR / "marking.tsv", update_marking=False)), "json"
    )
    second = emit_report(
        run(bundled_config(DATA_DIR / "marking.tsv", update_marking=False)), "json"
    )
    elapsed = time.monotonic() - started
    assert first == second
    report = run(bundled_config(DATA_DIR / "marking.tsv", update_marking=False))
    assert report.winner is not None
    assert report.results[0].match_percentage > report.results[1].match_percentage
    assert elapsed < 30.0, f"two full runs took {elapsed:.1f}s"
    _passed(
        f"end-to-end determinism: byte-identical reports, winner "
        f"{report.winner}, two runs in {elapsed:.1f}s"
    )


# -------------------------------------------------------------------------
# 9. ranking properties: query-frequency scale invariance (x7) and
#    match-threshold monotonicity (0.9 -> 0.95)
# -------------------------------------------------------------------------


def test_ranking_scale_invariance(bundled_taxonomy, bundled_instance_sets):
    vendor_sets, query_sets = bundled_instance_sets
    base = rank_vendors(query_sets, vendor_sets, bundled_taxonomy, DEFAULTS)
    scaled_queries = {
        qid: InstanceSet(
            instances={
                p: rec._replace(frequency=rec.frequency * 7)
                for p, rec in qs.instances.items()
            },
        )
        for qid, qs in query_sets.items()
    }
    scaled = rank_vendors(scaled_queries, vendor_sets, bundled_taxonomy, DEFAULTS)
    assert [r.vendor_id for r in scaled.results] == [
        r.vendor_id for r in base.results
    ]
    assert scaled.winner == base.winner
    _passed("ranking scale invariance: x7 query frequencies keep the ranking")


def test_ranking_threshold_monotonicity(bundled_taxonomy, bundled_instance_sets):
    vendor_sets, query_sets = bundled_instance_sets
    loose = rank_vendors(query_sets, vendor_sets, bundled_taxonomy, DEFAULTS)
    strict = rank_vendors(
        query_sets, vendor_sets, bundled_taxonomy, Thresholds(wup_threshold=0.95)
    )
    loose_pct = {r.vendor_id: r.match_percentage for r in loose.results}
    strict_pct = {r.vendor_id: r.match_percentage for r in strict.results}
    for vendor_id in loose_pct:
        assert strict_pct[vendor_id] <= loose_pct[vendor_id] + 1e-12
    _passed("ranking threshold monotonicity: 0.95 never beats 0.9 percentages")
