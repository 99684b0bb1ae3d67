"""Configuration for thresholds and pipeline runs.

These classes, like the package's record types, are written out rather
than generated, so that importing the package loads no class generator and
none of ``inspect``, ``ast`` or ``dis``: each run of the CLI pays for every
module it imports.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path

OUTPUT_FORMATS = ("text", "json")


class _Fields:
    """Value equality and a keyword repr over the fields in ``__match_args__``."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class Thresholds(_Fields):
    """Decision thresholds for extraction and semantic matching.

    Extraction admits a candidate whose best relatedness falls under
    ``max(r_threshold, fallback_threshold)`` and flags it ``via_fallback``
    when it is not under ``r_threshold``, so a fallback at or below
    ``r_threshold`` (the defaults) admits nothing extra;
    ``wup_threshold`` is the minimum phrase similarity that counts as a
    semantic match. Read-only and hashable; the class attributes are the
    defaults.
    """

    __match_args__ = ("r_threshold", "fallback_threshold", "wup_threshold")

    # defaults established by trial and error in the source experiments
    r_threshold: float = 0.01
    fallback_threshold: float = 0.009
    wup_threshold: float = 0.9

    def __init__(
        self,
        r_threshold: float = r_threshold,
        fallback_threshold: float = fallback_threshold,
        wup_threshold: float = wup_threshold,
    ) -> None:
        values = (r_threshold, fallback_threshold, wup_threshold)
        for name, value in zip(self.__match_args__, values):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number")
        if r_threshold <= 0:
            raise ValueError("r_threshold must be strictly positive")
        if fallback_threshold <= 0:
            raise ValueError("fallback_threshold must be strictly positive")
        if not 0 < wup_threshold <= 1:
            raise ValueError("wup_threshold must lie in (0, 1]")
        vars(self).update(zip(self.__match_args__, values))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


class RunConfig(_Fields):
    """Everything one end-to-end run needs."""

    __slots__ = __match_args__ = (
        "vendors_dir",
        "queries_dir",
        "marking_path",
        "taxonomy_path",
        "thresholds",
        "output_format",
        "update_marking",
    )

    def __init__(
        self,
        vendors_dir: Path | str,
        queries_dir: Path | str,
        marking_path: Path | str,
        taxonomy_path: Path | str,
        thresholds: Thresholds = Thresholds(),  # read-only, so safe to share
        output_format: str = "text",
        update_marking: bool = True,
    ) -> None:
        self.vendors_dir = Path(vendors_dir)
        self.queries_dir = Path(queries_dir)
        self.marking_path = Path(marking_path)
        self.taxonomy_path = Path(taxonomy_path)
        if output_format not in OUTPUT_FORMATS:
            raise ValueError(f"unknown output format: {output_format!r}")
        self.thresholds = thresholds
        self.output_format = output_format
        self.update_marking = update_marking


class RunStats(_Fields):
    """Counts that :func:`vendormatch.cli.run` adds up when given one.

    ``counts`` holds:

    - ``non_ascii_replaced``: characters above code point 127 in the
      documents read, each of which tokenizing replaced by ``?``;
    - ``vendor_instances`` / ``query_instances``: instances admitted in the
      vendor pass / the query pass.

    One object given to several runs holds their sums.
    """

    __slots__ = __match_args__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
