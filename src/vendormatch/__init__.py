"""Vendor-query matchmaking via instance extraction and taxonomy similarity."""

from .config import RunConfig, Thresholds
from .extraction import InstanceRecord, InstanceSet, extract_corpus, extract_instances
from .marking import (
    MarkedObject,
    MarkingFile,
    MarkingFormatError,
    load_marking,
    save_marking,
    update_marking,
)
from .matchmaker import (
    MatchPair,
    MatchReport,
    VendorResult,
    match_percentage,
    pool_queries,
    rank_vendors,
    semantic_match,
)
from .stopwords import DEFAULT_STOPWORDS
from .taxonomy import (
    Taxonomy,
    TaxonomyError,
    lcs,
    load_taxonomy,
    phrase_score,
    wup_score,
)
from .textstats import (
    CandidateObject,
    ObjectVector,
    candidates,
    encode,
    euclidean,
    relatedness,
    tokenize,
    variance_pair,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateObject",
    "DEFAULT_STOPWORDS",
    "InstanceRecord",
    "InstanceSet",
    "MarkedObject",
    "MarkingFile",
    "MarkingFormatError",
    "MatchPair",
    "MatchReport",
    "ObjectVector",
    "RunConfig",
    "Taxonomy",
    "TaxonomyError",
    "Thresholds",
    "VendorResult",
    "candidates",
    "encode",
    "euclidean",
    "extract_corpus",
    "extract_instances",
    "lcs",
    "load_marking",
    "load_taxonomy",
    "match_percentage",
    "phrase_score",
    "pool_queries",
    "rank_vendors",
    "relatedness",
    "save_marking",
    "semantic_match",
    "tokenize",
    "update_marking",
    "variance_pair",
    "wup_score",
]
