"""Dataclass configuration for thresholds and pipeline runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

OUTPUT_FORMATS = ("text", "json")


@dataclass(frozen=True)
class Thresholds:
    """Decision thresholds for extraction and semantic matching.

    Extraction admits a candidate whose best relatedness falls under
    ``max(r_threshold, fallback_threshold)`` and flags it ``via_fallback``
    when it is not under ``r_threshold``, so a fallback at or below
    ``r_threshold`` (the defaults) admits nothing extra;
    ``wup_threshold`` is the minimum phrase similarity that counts as a
    semantic match.
    """

    # defaults established by trial and error in the source experiments
    r_threshold: float = 0.01
    fallback_threshold: float = 0.009
    wup_threshold: float = 0.9

    def __post_init__(self) -> None:
        for name in ("r_threshold", "fallback_threshold", "wup_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
        if self.r_threshold <= 0:
            raise ValueError("r_threshold must be strictly positive")
        if self.fallback_threshold <= 0:
            raise ValueError("fallback_threshold must be strictly positive")
        if not 0 < self.wup_threshold <= 1:
            raise ValueError("wup_threshold must lie in (0, 1]")


@dataclass
class RunConfig:
    """Everything one end-to-end run needs."""

    vendors_dir: Path
    queries_dir: Path
    marking_path: Path
    taxonomy_path: Path
    thresholds: Thresholds = field(default_factory=Thresholds)
    output_format: str = "text"
    update_marking: bool = True

    def __post_init__(self) -> None:
        self.vendors_dir = Path(self.vendors_dir)
        self.queries_dir = Path(self.queries_dir)
        self.marking_path = Path(self.marking_path)
        self.taxonomy_path = Path(self.taxonomy_path)
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"unknown output format: {self.output_format!r}")
