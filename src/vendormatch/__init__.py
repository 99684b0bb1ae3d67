"""Vendor-query matchmaking via instance extraction and taxonomy similarity."""

from .config import RunConfig, RunStats, Thresholds
from .extraction import InstanceRecord, InstanceSet, extract_corpus
from .marking import (
    MarkingFormatError,
    load_marking,
    save_marking,
    update_marking,
)
from .matchmaker import (
    MatchPair,
    MatchReport,
    VendorResult,
    pool_queries,
    rank_phrases,
    rank_vendors,
    semantic_match,
)
from .taxonomy import (
    Taxonomy,
    TaxonomyError,
    lcs,
    load_taxonomy,
    phrase_score,
    wup_score,
)
from .textstats import DEFAULT_STOPWORDS, ObjectVector, candidates, encode, tokenize

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_STOPWORDS",
    "InstanceRecord",
    "InstanceSet",
    "MarkingFormatError",
    "MatchPair",
    "MatchReport",
    "ObjectVector",
    "RunConfig",
    "RunStats",
    "Taxonomy",
    "TaxonomyError",
    "Thresholds",
    "VendorResult",
    "candidates",
    "encode",
    "extract_corpus",
    "lcs",
    "load_marking",
    "load_taxonomy",
    "phrase_score",
    "pool_queries",
    "rank_phrases",
    "rank_vendors",
    "save_marking",
    "semantic_match",
    "tokenize",
    "update_marking",
    "wup_score",
]
