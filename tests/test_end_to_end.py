"""The whole pipeline against the plain reference paths, and when run() saves."""

import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import reference_extract, reference_rank_vendors
from synth_corpus import JUNK, POOL, SEED_TERMS, make_corpus
from vendormatch.cli import run
from vendormatch.config import RunConfig, Thresholds
from vendormatch.extraction import InstanceRecord, InstanceSet
from vendormatch.taxonomy import Taxonomy


def random_pool_taxonomy(rng):
    """A random rooted DAG over the corpus words plus a chain of inner nodes.

    ``wind`` sits below the whole chain and also directly below the root, a
    shortcut edge: its longest path from the root is four edges, its
    shortest one.
    """
    edges = [
        ("inner1", "root"),
        ("inner2", "inner1"),
        ("inner3", "inner2"),
        ("wind", "inner3"),
        ("wind", "root"),
    ]
    placed = ["root", "inner1", "inner2", "inner3", "wind"]
    others = [w for w in POOL if w != "wind"]
    for word in rng.sample(others, len(others)):
        for parent in rng.sample(placed, rng.randint(1, 2)):
            edges.append((word, parent))
        placed.append(word)
    return edges


def write_corpus(directory, docs):
    directory.mkdir()
    for doc_id, text in docs.items():
        (directory / f"{doc_id}.txt").write_text(text, encoding="utf-8")


def as_instance_sets(extracted):
    return {
        doc_id: InstanceSet(
            instances={phrase: InstanceRecord(*record) for phrase, record in found.items()},
        )
        for doc_id, found in extracted.items()
    }


def marking_text(marking):
    return "".join(f"{p}\t{f}\n" for p, f in marking.items())


def pipeline_config(directory, vendor_docs, query_docs, edges, marking=SEED_TERMS, **kwargs):
    """Write both corpora, a seed marking and a taxonomy; configure a run."""
    write_corpus(directory / "vendors", vendor_docs)
    write_corpus(directory / "queries", query_docs)
    (directory / "marking.tsv").write_text(marking_text(marking), encoding="utf-8")
    (directory / "taxonomy.tsv").write_text(
        "".join(f"{child}\t{parent}\n" for child, parent in edges), encoding="utf-8"
    )
    return RunConfig(
        vendors_dir=directory / "vendors",
        queries_dir=directory / "queries",
        marking_path=directory / "marking.tsv",
        taxonomy_path=directory / "taxonomy.tsv",
        **kwargs,
    )


def assert_run_equals_reference(
    directory,
    seed,
    vendor_docs,
    query_docs,
    wup_threshold,
    marking=SEED_TERMS,
    r_threshold=Thresholds.r_threshold,
):
    """run() on seed's taxonomy, the documents and a seed marking equals the reference path."""
    edges = random_pool_taxonomy(random.Random(seed))
    # pair the shortcut node every time
    vendor_docs, query_docs = (
        {f"d{i:03d}": text for i, text in enumerate(["wind " + docs[0], *docs[1:]])}
        for docs in (vendor_docs, query_docs)
    )
    thresholds = Thresholds(r_threshold=r_threshold, wup_threshold=wup_threshold)
    cfg = pipeline_config(
        directory,
        vendor_docs,
        query_docs,
        edges,
        marking,
        thresholds=thresholds,
        update_marking=False,
    )
    report = run(cfg)
    assert cfg.marking_path.read_text(encoding="utf-8") == marking_text(marking)

    marking = dict(marking)  # shared by both corpora, vendors first
    vendors = as_instance_sets(reference_extract(vendor_docs, marking, thresholds))
    queries = as_instance_sets(reference_extract(query_docs, marking, thresholds))
    t = Taxonomy.from_edges(edges)
    assert report == reference_rank_vendors(queries, vendors, t, thresholds)

    assert any(
        (p.query_phrase, p.vendor_phrase) == ("wind", "wind")
        for r in report.results
        for p in r.pairs
    )
    for result in report.results:
        assert 0.0 <= result.match_percentage <= 100.0
        assert all(0.0 <= pct <= 100.0 for pct in result.per_query.values())
        assert all(0.0 < pair.score <= 1.0 for pair in result.pairs)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_run_equals_reference_pipeline_on_random_taxonomies(tmp_path, seed):
    # the corpora the seed's generator draws after its taxonomy
    rng = random.Random(seed)
    random_pool_taxonomy(rng)
    vendor_docs = list(make_corpus(rng, 6).values())
    query_docs = list(make_corpus(rng, 5, words_per_doc=12).values())
    assert_run_equals_reference(tmp_path, seed, vendor_docs, query_docs, 0.5)


def realistic_text(rng, words):
    """Pool words in mixed case between punctuation, digits and non-ASCII text.

    A word before ``9`` makes one token with it, and U+212A KELVIN SIGN
    lowercases to an ASCII ``k``, but must become ``?`` first.
    """
    cases = (str, str.upper, str.title)
    gaps = [" ", " ", ", ", ". ", "; ", "-", " (", ") ", "!\n", " 2024 ", "9 ", " b1 ", "/10kw "]
    gaps += [" \u00e9t\u00e9 ", "\u20ac", " \u212a", "\u00fcber ", " \u03a9-"]
    return "".join(rng.choice(cases)(w) + rng.choice(gaps) for w in rng.choices(POOL, k=words))


def test_run_equals_reference_pipeline_on_realistic_text(tmp_path):
    # The marking's non-ASCII row takes the code-point path of the index's
    # moments, every other row and candidate the byte path. Its row ending
    # in \x01 has a tail of 1 past length 4, under its length cut, so the
    # index keeps that longer row in play for every 4-character candidate
    marking = {**SEED_TERMS, "\u00e9nergie": 3, "wind\x01": 2}
    rng = random.Random(8)
    vendor_docs = [realistic_text(rng, 40) for _ in range(6)]
    query_docs = [realistic_text(rng, 12) for _ in range(5)]
    text = "".join(vendor_docs + query_docs)
    for piece in ("ENERGY", "Wind", "2024", "9 ", "10kw", "\u212a", "\u20ac", "!\n", "; "):
        assert piece in text
    assert_run_equals_reference(tmp_path, 8, vendor_docs, query_docs, 0.5, marking)


def assert_longer_row_admits_wind(directory, row, r_threshold):
    """The seed-6 run equals the reference with ``row`` in place of 'wind'."""
    marking = {**SEED_TERMS, row: 2}
    del marking["wind"]
    rng = random.Random(6)
    random_pool_taxonomy(rng)
    vendor_docs = list(make_corpus(rng, 6).values())
    query_docs = list(make_corpus(rng, 5, words_per_doc=12).values())
    assert_run_equals_reference(
        directory, 6, vendor_docs, query_docs, 0.5, marking, r_threshold=r_threshold
    )


def test_run_equals_reference_pipeline_when_only_a_longer_row_admits(tmp_path):
    # With 'wind\x01' but no 'wind' in the marking, 'wind' (the first
    # candidate of both corpora) relates under r 0.3 only to that longer
    # row, at 0.2904: a lookup that skipped the longer buckets would not
    # admit it, and the report would hold no ('wind', 'wind') pair
    assert_longer_row_admits_wind(tmp_path, "wind\x01", 0.3)


def test_run_equals_reference_pipeline_when_a_longer_letter_row_admits(tmp_path):
    # 'wind' relates under r 0.5 only to 'winde', at 0.4573 ('solar' is
    # next, at 0.5381). The tail of 'winde' past length 4 is 101**2 = 10,201,
    # under the length-5 cut of 20,161 but over half of it: a cut decided on
    # too little of the tail would drop the one row that admits 'wind'
    assert_longer_row_admits_wind(tmp_path, "winde", 0.5)


documents = st.lists(st.sampled_from(POOL), max_size=30).map(" ".join)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    vendor_docs=st.lists(documents, min_size=1, max_size=6),
    query_docs=st.lists(documents, min_size=1, max_size=5),
    wup_threshold=st.floats(min_value=0.05, max_value=1.0),
)
def test_run_equals_reference_pipeline_on_drawn_corpora(
    seed, vendor_docs, query_docs, wup_threshold
):
    with tempfile.TemporaryDirectory() as workdir:
        assert_run_equals_reference(
            Path(workdir), seed, vendor_docs, query_docs, wup_threshold
        )


def test_run_saves_the_reference_marking_when_it_admits(tmp_path):
    rng = random.Random(21)
    edges = random_pool_taxonomy(rng)
    vendor_docs = make_corpus(rng, 6)
    query_docs = make_corpus(rng, 5, words_per_doc=12)
    cfg = pipeline_config(tmp_path, vendor_docs, query_docs, edges)
    run(cfg)

    marking = dict(SEED_TERMS)
    admitted = [
        phrase
        for docs in (vendor_docs, query_docs)
        for found in reference_extract(docs, marking, cfg.thresholds).values()
        for phrase in found
    ]
    assert admitted
    assert cfg.marking_path.read_bytes() == marking_text(marking).encode("utf-8")


def test_run_that_admits_nothing_leaves_the_marking_file_alone(tmp_path):
    junk = {"d000": " ".join(JUNK)}
    cfg = pipeline_config(tmp_path, junk, junk, random_pool_taxonomy(random.Random(1)))
    os.utime(cfg.marking_path, ns=(10**9, 10**9))  # any rewrite moves the mtime
    before = cfg.marking_path.read_bytes(), cfg.marking_path.stat()

    report = run(cfg)

    after = cfg.marking_path.read_bytes(), cfg.marking_path.stat()
    assert report.winner is None
    assert after[0] == before[0]
    assert after[1].st_mtime_ns == before[1].st_mtime_ns
    assert after[1].st_ino == before[1].st_ino
