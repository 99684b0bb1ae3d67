"""The whole pipeline against the plain reference paths, and when run() saves."""

import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth_corpus import JUNK, POOL, SEED_TERMS, make_corpus
from test_extraction import reference_extract
from test_matchmaker import reference_rank_vendors
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
            instances={
                phrase: InstanceRecord(phrase, frequency, best_r, matched, via_fallback)
                for phrase, (frequency, best_r, matched, via_fallback) in found.items()
            },
        )
        for doc_id, found in extracted.items()
    }


def marking_text(marking):
    return "".join(f"{p}\t{f}\n" for p, f in marking.items())


def pipeline_config(directory, vendor_docs, query_docs, edges, **kwargs):
    """Write both corpora, the seed marking and a taxonomy; configure a run."""
    write_corpus(directory / "vendors", vendor_docs)
    write_corpus(directory / "queries", query_docs)
    (directory / "marking.tsv").write_text(marking_text(SEED_TERMS), encoding="utf-8")
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


def assert_run_equals_reference(directory, seed, vendor_docs, query_docs, wup_threshold):
    """run() on seed's taxonomy and the given documents equals the reference path."""
    edges = random_pool_taxonomy(random.Random(seed))
    # pair the shortcut node every time
    vendor_docs, query_docs = (
        {f"d{i:03d}": text for i, text in enumerate(["wind " + docs[0], *docs[1:]])}
        for docs in (vendor_docs, query_docs)
    )
    thresholds = Thresholds(wup_threshold=wup_threshold)
    cfg = pipeline_config(
        directory,
        vendor_docs,
        query_docs,
        edges,
        thresholds=thresholds,
        update_marking=False,
    )
    report = run(cfg)
    assert cfg.marking_path.read_text(encoding="utf-8") == marking_text(SEED_TERMS)

    marking = dict(SEED_TERMS)  # shared by both corpora, vendors first
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
