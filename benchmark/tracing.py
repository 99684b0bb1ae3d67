"""In-memory spans around the module-level names each pipeline layer calls.

Tracing wraps names such as ``vendormatch.extraction.encode`` from outside
the library for the duration of one pass and restores them afterwards, so
untraced passes run the program exactly as shipped. Each call records its
wall time, the time its traced callees took (giving self time) and a few
counts taken from its arguments or result. Calls to the coarse names become
spans with a parent; the hot leaf names (one call per candidate phrase or
per phrase pair) are only summed, which keeps memory flat.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from vendormatch import cli, extraction, matchmaker

#: (module, name, recorded as a span) for every name tracing wraps.
TRACED = (
    (cli, "_read_corpus", True),
    (cli, "load_marking", True),
    (cli, "load_taxonomy", True),
    (cli, "extract_corpus", True),
    (cli, "rank_vendors", True),
    (cli, "save_marking", True),
    (cli, "emit_report", True),
    (extraction, "tokenize", False),
    (extraction, "candidates", False),
    (extraction, "encode", False),
    (extraction, "update_marking", False),
    (matchmaker, "pool_queries", True),
    (matchmaker, "semantic_match", True),
    (matchmaker, "phrase_score", False),
)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        #: (span id, parent id or -1, name, start, end, self seconds)
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self.calls: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self.self_seconds: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.encoded: set[str] = set()
        self.phrase_pairs: set[tuple[str, str]] = set()
        self._markings: list[tuple[Any, int]] = []
        # One [span id, seconds spent in traced callees] per open call.
        self._stack: list[list[Any]] = []

    def _wrap(self, name: str, fn: Callable, as_span: bool) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        observe = getattr(self, "_after_" + name, None)

        def traced(*args, **kwargs):
            span_id = len(self.spans) if as_span else -1
            if as_span:
                self.spans.append((span_id, -1, name, 0.0, 0.0, 0.0))
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                own = elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.seconds[name] += elapsed
                self.self_seconds[name] += own
                if as_span:
                    parent = next((f[0] for f in reversed(stack) if f[0] >= 0), -1)
                    self.spans[span_id] = (span_id, parent, name, start, end, own)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every traced name for the duration of the block."""
        originals = [(module, name, getattr(module, name)) for module, name, _ in TRACED]
        try:
            for module, name, as_span in TRACED:
                setattr(module, name, self._wrap(name, getattr(module, name), as_span))
            yield self
        finally:
            for module, name, fn in originals:
                setattr(module, name, fn)

    # Counters read from the arguments or result of one traced call.

    def _after_tokenize(self, args, result) -> None:
        self.counts["tokens"] += len(result)

    def _after_candidates(self, args, result) -> None:
        self.counts["candidates"] += len(result)

    def _after_encode(self, args, result) -> None:
        self.encoded.add(args[0])

    def _after_phrase_score(self, args, result) -> None:
        self.phrase_pairs.add((args[1], args[2]))

    def _after_extract_corpus(self, args, result) -> None:
        for instances in result.values():
            self.counts["instances_admitted"] += len(instances)
            self.counts["instances_fallback"] += sum(
                rec.via_fallback for rec in instances.instances.values()
            )

    def _after_semantic_match(self, args, result) -> None:
        self.counts["pairs_matched"] += len(result)

    def _after_load_marking(self, args, result) -> None:
        self._markings.append((result, len(result)))

    def _after_save_marking(self, args, result) -> None:
        self.counts["bytes_written"] += os.path.getsize(result)

    def _after_emit_report(self, args, result) -> None:
        self.counts["report_bytes"] += len(result.encode("utf-8"))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass, named after the library modules."""
        s, n, c = self.seconds, self.calls, self.counts
        n_cand = c["candidates"]
        return {
            "textstats.tokenize_s": s["tokenize"],
            "textstats.tokens": c["tokens"],
            "textstats.candidates_s": s["candidates"],
            "textstats.candidates": n_cand,
            "textstats.encode_s": s["encode"],
            "textstats.encode_calls": n["encode"],
            "textstats.encode_distinct_frac": _frac(len(self.encoded), n["encode"]),
            "extraction.extract_s": s["extract_corpus"],
            "extraction.score_self_s": self.self_seconds["extract_corpus"],
            "extraction.index_encodes": n["encode"] - n_cand,
            "extraction.instances_admitted": c["instances_admitted"],
            "extraction.instances_fallback": c["instances_fallback"],
            "extraction.admit_frac": _frac(c["instances_admitted"], n_cand),
            "taxonomy.load_s": s["load_taxonomy"],
            "taxonomy.phrase_score_calls": n["phrase_score"],
            "taxonomy.phrase_score_s": s["phrase_score"],
            "taxonomy.pairs_distinct_frac": _frac(
                len(self.phrase_pairs), n["phrase_score"]
            ),
            "matchmaker.rank_s": s["rank_vendors"],
            "matchmaker.rank_self_s": self.self_seconds["rank_vendors"],
            "matchmaker.semantic_match_calls": n["semantic_match"],
            "matchmaker.pool_s": s["pool_queries"],
            "matchmaker.pairs_matched": c["pairs_matched"],
            "marking.load_s": s["load_marking"],
            "marking.update_calls": n["update_marking"],
            "marking.entries_added": sum(len(mf) - before for mf, before in self._markings),
            "marking.save_s": s["save_marking"],
            "marking.bytes_written": c["bytes_written"],
            "cli.read_s": s["_read_corpus"],
            "cli.emit_s": s["emit_report"],
            "cli.report_bytes": c["report_bytes"],
        }

    def span_records(self, pass_id: int) -> Iterator[dict[str, Any]]:
        """This pass's spans, then one summary record per summed leaf name."""
        for span_id, parent, name, start, end, own in self.spans:
            yield {
                "pass": pass_id, "span": span_id, "parent": parent, "name": name,
                "start": start, "end": end, "self_s": own,
            }
        for _, name, as_span in TRACED:
            if not as_span:
                yield {
                    "pass": pass_id, "name": name, "calls": self.calls[name],
                    "seconds": self.seconds[name],
                }


def _frac(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def unit(name: str) -> str:
    """Unit of a per-layer metric, read from the suffix of its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(("_bytes", "bytes_written")):
        return "B"
    return "count"


def count_metrics(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that are not times: they must repeat exactly every pass."""
    return {k: v for k, v in metrics.items() if unit(k) != "s"}
