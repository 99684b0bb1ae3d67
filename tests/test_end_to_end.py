"""The whole pipeline on random taxonomies against the plain reference paths."""

import random

import pytest

from synth_corpus import POOL, SEED_TERMS, make_corpus
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
            document_id=doc_id,
            instances={
                phrase: InstanceRecord(phrase, frequency, best_r, matched, via_fallback)
                for phrase, (frequency, best_r, matched, via_fallback) in found.items()
            },
        )
        for doc_id, found in extracted.items()
    }


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_run_equals_reference_pipeline_on_random_taxonomies(tmp_path, seed):
    rng = random.Random(seed)
    edges = random_pool_taxonomy(rng)
    vendor_docs = make_corpus(rng, 6)
    query_docs = make_corpus(rng, 5, words_per_doc=12)
    for docs in (vendor_docs, query_docs):  # pair the shortcut node every time
        docs["d000"] = "wind " + docs["d000"]
    thresholds = Thresholds(wup_threshold=0.5)

    write_corpus(tmp_path / "vendors", vendor_docs)
    write_corpus(tmp_path / "queries", query_docs)
    marking_text = "".join(f"{p}\t{f}\n" for p, f in SEED_TERMS.items())
    (tmp_path / "marking.tsv").write_text(marking_text, encoding="utf-8")
    (tmp_path / "taxonomy.tsv").write_text(
        "".join(f"{child}\t{parent}\n" for child, parent in edges), encoding="utf-8"
    )
    cfg = RunConfig(
        vendors_dir=tmp_path / "vendors",
        queries_dir=tmp_path / "queries",
        marking_path=tmp_path / "marking.tsv",
        taxonomy_path=tmp_path / "taxonomy.tsv",
        thresholds=thresholds,
        update_marking=False,
    )
    report = run(cfg)

    marking = dict(SEED_TERMS)  # shared by both corpora, vendors first
    vendors = as_instance_sets(reference_extract(vendor_docs, marking, thresholds))
    queries = as_instance_sets(reference_extract(query_docs, marking, thresholds))
    t = Taxonomy.from_edges(edges)
    assert report == reference_rank_vendors(queries, vendors, t, thresholds)

    assert (tmp_path / "marking.tsv").read_text(encoding="utf-8") == marking_text
    assert any(
        (p.query_phrase, p.vendor_phrase) == ("wind", "wind")
        for r in report.results
        for p in r.pairs
    )
    for result in report.results:
        assert 0.0 <= result.match_percentage <= 100.0
        assert all(0.0 <= pct <= 100.0 for pct in result.per_query.values())
        assert all(0.0 < pair.score <= 1.0 for pair in result.pairs)
