"""Instance extraction against the marking file, including adaptive updates."""

import random

import pytest

from synth_corpus import fresh_marking, make_corpus
from vendormatch.config import Thresholds
from vendormatch.extraction import _MarkedIndex, extract_corpus, extract_instances
from vendormatch.marking import MarkedObject, MarkingFile
from vendormatch.stopwords import DEFAULT_STOPWORDS
from vendormatch.textstats import candidates, encode, relatedness, tokenize

from test_textstats import oracle_relatedness

DEFAULTS = Thresholds()


def marking_of(*pairs):
    return MarkingFile(entries=[MarkedObject(p, f) for p, f in pairs])


def test_exact_marked_phrase_extracted_with_zero_r():
    mf = marking_of(("energy", 165))
    out = extract_instances("energy energy, energy; energy!", mf, DEFAULTS)
    rec = out.instances["energy"]
    assert rec.frequency == 4
    assert rec.best_r == 0.0
    assert rec.matched_marked_phrase == "energy"
    assert not rec.via_fallback
    assert mf.get("energy").frequency == 165 + 4


def test_empty_document_changes_nothing():
    mf = marking_of(("energy", 165))
    out = extract_instances("", mf, DEFAULTS)
    assert len(out) == 0
    assert not mf.dirty
    assert mf.get("energy").frequency == 165


def test_empty_marking_extracts_nothing():
    mf = MarkingFile()
    out = extract_instances("solar wind energy", mf, DEFAULTS)
    assert len(out) == 0


def test_near_variant_decision_agrees_with_oracle():
    # fix the oracle values first, then check the admit/reject decisions
    assert oracle_relatedness("sun", "sunny") > DEFAULTS.r_threshold
    assert oracle_relatedness("turbines", "turbiner") < DEFAULTS.r_threshold

    mf = marking_of(("sun", 37), ("turbines", 12))
    out = extract_instances("sunny turbiner", mf, DEFAULTS)
    assert "sunny" not in out.instances
    rec = out.instances["turbiner"]
    assert rec.matched_marked_phrase == "turbines"
    assert not rec.via_fallback
    assert "turbiner" in mf  # adaptive update appended the new instance


def test_fallback_branch_flags_instances():
    # primary bound tightened below the variant's relatedness, fallback above it
    r_variant = oracle_relatedness("turbines", "turbiner")
    cfg = Thresholds(r_threshold=r_variant / 2, fallback_threshold=0.009)
    mf = marking_of(("turbines", 12))
    out = extract_instances("turbines turbiner", mf, cfg)
    assert not out.instances["turbines"].via_fallback  # exact hit, r == 0
    assert out.instances["turbiner"].via_fallback


def test_instance_record_threshold_invariants():
    rng = random.Random(404)
    mf = fresh_marking()
    for doc in make_corpus(rng, 10).values():
        out = extract_instances(doc, mf, DEFAULTS)
        for rec in out.instances.values():
            bound = (
                DEFAULTS.fallback_threshold
                if rec.via_fallback
                else DEFAULTS.r_threshold
            )
            assert rec.best_r < bound
            assert rec.frequency >= 1


def test_duplicate_occurrences_aggregate_frequency():
    mf = marking_of(("turbines", 12))
    out = extract_instances("turbiner ... turbiner", mf, DEFAULTS)
    assert out.instances["turbiner"].frequency == 2
    assert mf.get("turbiner").frequency == 2


def test_within_document_adaptive_chaining():
    # 'turbinew' is too far from the seed but close to 'turbineu', which the
    # seed admits first; updates mid-document make the chain reachable
    assert oracle_relatedness("turbines", "turbineu") < DEFAULTS.r_threshold
    assert oracle_relatedness("turbines", "turbinew") > DEFAULTS.r_threshold
    assert oracle_relatedness("turbineu", "turbinew") < DEFAULTS.r_threshold

    mf = marking_of(("turbines", 12))
    out = extract_instances("turbineu then turbinew", mf, DEFAULTS)
    assert out.instances["turbineu"].matched_marked_phrase == "turbines"
    assert out.instances["turbinew"].matched_marked_phrase == "turbineu"

    # reversed order: 'turbinew' is scored before the stepping stone exists
    mf2 = marking_of(("turbines", 12))
    out2 = extract_instances("turbinew then turbineu", mf2, DEFAULTS)
    assert "turbinew" not in out2.instances
    assert "turbineu" in out2.instances


def test_tied_marked_objects_match_the_earlier_entry():
    # 'aa' differs from 'ab' and 'ba' by one code point at mirrored positions
    assert oracle_relatedness("ab", "aa") == oracle_relatedness("ba", "aa")
    assert oracle_relatedness("ab", "aa") < DEFAULTS.r_threshold
    for first, second in (("ab", "ba"), ("ba", "ab")):
        out = extract_instances("aa", marking_of((first, 1), (second, 1)), DEFAULTS)
        assert out.instances["aa"].matched_marked_phrase == first


def test_extract_corpus_orders_and_keys():
    mf = marking_of(("energy", 165))
    docs = {"b": "energy", "a": "energy energy", "c": ""}
    out = extract_corpus(docs, mf, DEFAULTS)
    assert list(out) == ["a", "b", "c"]
    assert out["a"].document_id == "a"
    assert out["a"].instances["energy"].frequency == 2
    assert len(out["c"]) == 0


def test_extract_corpus_empty():
    assert extract_corpus({}, MarkingFile(), DEFAULTS) == {}


def test_extraction_is_deterministic():
    rng = random.Random(99)
    docs = make_corpus(rng, 6)

    def run():
        mf = fresh_marking()
        sets = extract_corpus(docs, mf, DEFAULTS)
        return (
            {d: list(s.instances.items()) for d, s in sets.items()},
            [(e.phrase, e.frequency) for e in mf.entries],
        )

    assert run() == run()


def test_threshold_monotonicity_nested_instance_sets():
    rng = random.Random(2718)
    docs = make_corpus(rng, 12)
    results = {}
    for r_threshold in (0.005, 0.01, 0.02):
        sets = extract_corpus(
            docs, fresh_marking(), Thresholds(r_threshold=r_threshold)
        )
        results[r_threshold] = {d: set(s.instances) for d, s in sets.items()}
    for doc_id in docs:
        assert results[0.005][doc_id] <= results[0.01][doc_id]
        assert results[0.01][doc_id] <= results[0.02][doc_id]


def test_marking_covers_every_extracted_instance():
    rng = random.Random(314)
    mf = fresh_marking()
    sets = extract_corpus(make_corpus(rng, 8), mf, DEFAULTS)
    for instance_set in sets.values():
        for phrase in instance_set.instances:
            assert phrase in mf


def test_batch_scoring_agrees_with_scalar_relatedness():
    rng = random.Random(55)
    pool = ["sun", "wind", "solar energy", "turbines", "grid", "storage unit"]
    mf = marking_of(*[(p, 1) for p in pool])
    index = _MarkedIndex(mf)
    words = pool + ["sunny", "turbiner", "zzz", "a", "speed of wind", "xylophone"]
    for _ in range(200):
        phrase = rng.choice(words)
        vec = encode(phrase)
        batch_r, batch_phrase = index.best(vec)
        scalar = {p: relatedness(encode(p), vec) for p in pool}
        assert batch_r == pytest.approx(min(scalar.values()), abs=1e-12)
        assert scalar[batch_phrase] == pytest.approx(batch_r, abs=1e-12)
        # scalar and batch share one kernel; the oracle is the independent check
        oracle = {p: oracle_relatedness(p, phrase) for p in pool}
        assert batch_r == pytest.approx(min(oracle.values()), abs=1e-12)
        assert oracle[batch_phrase] == pytest.approx(batch_r, abs=1e-12)


def test_exact_hit_guarantee_on_random_marked_phrases():
    rng = random.Random(777)

    def word():
        while True:
            w = "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(3, 8)))
            if w not in DEFAULT_STOPWORDS:
                return w

    for _ in range(25):
        phrase = " ".join(word() for _ in range(rng.randint(1, 3)))
        mf = marking_of((phrase, 5))
        out = extract_instances(f"report: {phrase} noted", mf, DEFAULTS)
        assert out.instances[phrase].best_r == 0.0


def reference_extract(documents, marking, thresholds):
    """Plain extraction: documents in sorted order, every marked object scanned.

    ``marking`` is an insertion-ordered {phrase: frequency} dict, updated in
    place. Returns {doc_id: {phrase: (frequency, best_r, matched, via_fallback)}}.
    """
    out = {}
    for doc_id in sorted(documents):
        found = out[doc_id] = {}
        for cand in candidates(tokenize(documents[doc_id])):
            best_r, matched = None, None
            for marked in marking:
                r = oracle_relatedness(marked, cand.phrase)
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
            marking[cand.phrase] = marking.get(cand.phrase, 0) + cand.frequency
            found[cand.phrase] = (cand.frequency, best_r, matched, via_fallback)
    return out


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize(
    "thresholds",
    [
        Thresholds(r_threshold=0.005),  # default fallback 0.009 > r
        Thresholds(r_threshold=0.01),
        Thresholds(r_threshold=0.02),
        Thresholds(r_threshold=0.005, fallback_threshold=0.02),
    ],
    ids=["r0.005", "r0.01", "r0.02", "r0.005-fb0.02"],
)
def test_extract_corpus_equals_reference_on_synth_corpora(seed, thresholds):
    docs = make_corpus(random.Random(seed), 8)
    mf = fresh_marking()
    marking = {e.phrase: e.frequency for e in mf.entries}
    got = extract_corpus(docs, mf, thresholds)
    want = reference_extract(docs, marking, thresholds)

    assert list(got) == list(want)
    for doc_id, expected in want.items():
        records = got[doc_id].instances
        assert list(records) == list(expected)
        for phrase, (frequency, best_r, matched, via_fallback) in expected.items():
            rec = records[phrase]
            assert rec.frequency == frequency
            assert rec.best_r == pytest.approx(best_r, abs=1e-12)
            assert rec.matched_marked_phrase == matched
            assert rec.via_fallback == via_fallback
    assert [(e.phrase, e.frequency) for e in mf.entries] == list(marking.items())


@pytest.mark.parametrize("fallback", [0.009, 0.01])
def test_fallback_at_or_below_r_threshold_admits_nothing_extra(fallback):
    docs = make_corpus(random.Random(8080), 10)

    def extract(thresholds):
        mf = fresh_marking()
        sets = extract_corpus(docs, mf, thresholds)
        return sets, [(e.phrase, e.frequency) for e in mf.entries]

    sets, entries = extract(Thresholds(r_threshold=0.01, fallback_threshold=fallback))
    tiny_sets, tiny_entries = extract(
        Thresholds(r_threshold=0.01, fallback_threshold=1e-9)
    )
    assert {d: s.instances for d, s in sets.items()} == {
        d: s.instances for d, s in tiny_sets.items()
    }
    assert entries == tiny_entries
    assert sum(len(s) for s in sets.values()) > 0
    assert not any(
        rec.via_fallback for s in sets.values() for rec in s.instances.values()
    )
