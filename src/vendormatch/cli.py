"""Command-line pipeline: ingest corpora, match, rank, emit the report.

Exit codes: 0 success, 1 usage/configuration error, 2 data/parse error.
The JSON report is written from the fixed shape of :class:`MatchReport`,
with no timestamps or absolute paths, so identical inputs serialize to
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import OUTPUT_FORMATS, RunConfig, RunStats, Thresholds
from .extraction import extract_corpus
from .marking import MarkingFormatError, load_marking, read_text, save_marking
from .matchmaker import MatchReport, VendorResult, rank_vendors
from .taxonomy import TaxonomyError, load_taxonomy
from .textstats import count_non_ascii

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class ConfigError(Exception):
    """A run configuration that cannot work: a path missing or of the wrong kind."""


class CorpusError(Exception):
    """A corpus directory with no documents, or a document that is not UTF-8."""


def _read_corpus(directory: Path) -> dict[str, str]:
    """Read every ``*.txt`` file; the file stem is the document id."""
    docs = {
        path.stem: read_text(path, CorpusError)
        for path in sorted(directory.glob("*.txt"))
        if path.is_file()
    }
    if not docs:
        raise CorpusError(f"no .txt documents found in {directory}")
    return docs


def run(cfg: RunConfig, stats: RunStats | None = None) -> MatchReport:
    """Execute the full pipeline and return the ranking report.

    Vendor documents are extracted before query documents, so vendor-domain
    vocabulary discovered adaptively is available to query extraction. The
    grown marking is written back only when ``update_marking`` is set and
    extraction admitted at least one instance. When ``stats`` is given, the
    run adds its counts to it (see :class:`RunStats`); nothing is written to
    stderr either way.
    """
    for path, kind, has_kind, noun in (
        (cfg.vendors_dir, "vendors directory", Path.is_dir, "a directory"),
        (cfg.queries_dir, "queries directory", Path.is_dir, "a directory"),
        (cfg.marking_path, "marking file", Path.is_file, "a regular file"),
        (cfg.taxonomy_path, "taxonomy file", Path.is_file, "a regular file"),
    ):
        if not has_kind(path):
            fault = f"is not {noun}" if path.exists() else "does not exist"
            raise ConfigError(f"{kind} {fault}: {path}")

    marking = load_marking(cfg.marking_path)
    taxonomy = load_taxonomy(cfg.taxonomy_path)
    vendor_docs = _read_corpus(cfg.vendors_dir)
    query_docs = _read_corpus(cfg.queries_dir)

    vendor_sets = extract_corpus(vendor_docs, marking, cfg.thresholds)
    query_sets = extract_corpus(query_docs, marking, cfg.thresholds)
    report = rank_vendors(query_sets, vendor_sets, taxonomy, cfg.thresholds)
    if stats is not None:
        counts = stats.counts
        counts["non_ascii_replaced"] += sum(
            map(count_non_ascii, [*vendor_docs.values(), *query_docs.values()])
        )
        counts["vendor_instances"] += sum(map(len, vendor_sets.values()))
        counts["query_instances"] += sum(map(len, query_sets.values()))

    if cfg.update_marking and any([*vendor_sets.values(), *query_sets.values()]):
        save_marking(marking, cfg.marking_path)
    return report


# json's C encoder for a scalar, and, one item a line, for a result's
# per_query dict (depth 3) and the records of its pairs (depth 4)
_encode = json.JSONEncoder().encode
_encode_per_query = json.JSONEncoder(
    sort_keys=True, separators=(",\n" + "  " * 4, ": ")
).encode
_encode_pairs = json.JSONEncoder(
    sort_keys=True, separators=(",\n" + "  " * 5, ": ")
).encode


def _enclose(brackets: str, body: str, depth: int) -> str:
    """``body``, its items indented for ``depth + 1``, in ``brackets`` at
    ``depth``; just ``brackets`` when it is empty."""
    if not body:
        return brackets
    indent = "  " * depth
    return f"{brackets[0]}\n{indent}  {body}\n{indent}{brackets[1]}"


def _write_result(r: VendorResult) -> str:
    """One result at depth 2: its four keys in sorted order."""
    # The records are encoded one level deeper, then the lines between them
    # put in. "},\n" + indent + "{" occurs only at record boundaries: json
    # escapes every control character inside a string, so a raw newline
    # comes only from a separator, and no scalar's encoding ends in "}".
    records = _encode_pairs([p._asdict() for p in r.pairs])[2:-2].replace(
        "},\n          {", "\n        },\n        {\n          "
    )
    pairs = _enclose("[]", records and _enclose("{}", records, 4), 3)
    per_query = _enclose("{}", _encode_per_query(r.per_query)[1:-1], 3)
    fields = (
        f'"match_percentage": {_encode(r.match_percentage)}',
        f'"pairs": {pairs}',
        f'"per_query": {per_query}',
        f'"vendor_id": {_encode(r.vendor_id)}',
    )
    return _enclose("{}", ",\n      ".join(fields), 2)


def _write_json(report: MatchReport) -> str:
    """``report`` as ``json.dumps`` writes its dict tree, ``indent=2`` and
    ``sort_keys=True``: each record a dict of its fields by ``_asdict()``.

    Laid out from the report's fixed shape, keys in sorted order. A result's
    ``per_query`` dict is one call to json's C encoder, whose item separator
    carries the newline and indent, and so is the list of its ``pairs``.
    At most two copies of the report's text are alive at once.
    """
    results = ",\n    ".join(map(_write_result, report.results))
    results = _enclose("[]", results, 1)
    return f'{{\n  "results": {results},\n  "winner": {_encode(report.winner)}\n}}'


def emit_report(report: MatchReport, output_format: str = "text") -> str:
    """Serialize a report.

    The json bytes are those of ``json.dumps`` on the report's dict tree
    (each record a dict of its fields), ``indent=2`` and ``sort_keys=True``,
    plus a final newline: key-sorted and byte-stable. The writer names the
    six field keys of the report's records and makes 4 encoder calls per
    vendor, plus 1.
    """
    if output_format not in OUTPUT_FORMATS:
        raise ValueError(f"unknown output format: {output_format!r}")
    if output_format == "json":
        return _write_json(report) + "\n"

    lines = [f"{'rank':<6}{'vendor':<16}{'match %':>10}{'pairs':>8}"]
    for rank, r in enumerate(report.results, start=1):
        lines.append(
            f"{rank:<6}{r.vendor_id:<16}{r.match_percentage:>10.2f}{len(r.pairs):>8}"
        )
    if report.winner is not None:
        lines.append(f"winner: {report.winner}")
    else:
        lines.append("winner: none (no vendor matched any query instance)")
    return "\n".join(lines) + "\n"


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this CLI reserves 2 for
    # data errors, so route usage problems to exit 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="vendormatch",
        description=(
            "Extract instances from vendor profiles and customer queries, "
            "match them semantically, and rank the vendors."
        ),
    )
    parser.add_argument("--vendors-dir", required=True, type=Path)
    parser.add_argument("--queries-dir", required=True, type=Path)
    parser.add_argument("--marking", required=True, type=Path)
    parser.add_argument("--taxonomy", required=True, type=Path)
    parser.add_argument("--r-threshold", type=float, default=Thresholds.r_threshold)
    parser.add_argument(
        "--fallback-threshold", type=float, default=Thresholds.fallback_threshold
    )
    parser.add_argument(
        "--wup-threshold", type=float, default=Thresholds.wup_threshold
    )
    parser.add_argument("--output", choices=OUTPUT_FORMATS, default="text")
    parser.add_argument(
        "--no-update-marking",
        action="store_true",
        help="do not write adaptive additions back to the marking file",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            vendors_dir=args.vendors_dir,
            queries_dir=args.queries_dir,
            marking_path=args.marking,
            taxonomy_path=args.taxonomy,
            thresholds=Thresholds(
                r_threshold=args.r_threshold,
                fallback_threshold=args.fallback_threshold,
                wup_threshold=args.wup_threshold,
            ),
            output_format=args.output,
            update_marking=not args.no_update_marking,
        )
    except ValueError as exc:
        print(f"vendormatch: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    stats = RunStats()
    try:
        report = run(cfg, stats)
    except ConfigError as exc:
        print(f"vendormatch: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MarkingFormatError, TaxonomyError, CorpusError, OSError) as exc:
        print(f"vendormatch: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if n := stats.counts["non_ascii_replaced"]:
        print(
            f"vendormatch: warning: replaced {n} non-ascii character(s) with '?'",
            file=sys.stderr,
        )

    try:
        sys.stdout.write(emit_report(report, cfg.output_format))
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader is gone; point fd 1 at devnull so that the interpreter's
        # own flush of what is still buffered at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"vendormatch: error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
