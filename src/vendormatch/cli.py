"""Command-line pipeline: ingest corpora, match, rank, emit the report.

Exit codes: 0 success, 1 usage/configuration error, 2 data/parse error.
The JSON report is schema-stable and free of timestamps or absolute paths,
so identical inputs serialize to identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import RunConfig, Thresholds
from .extraction import extract_corpus
from .marking import MarkingFormatError, load_marking, save_marking
from .matchmaker import MatchReport, rank_vendors
from .taxonomy import TaxonomyError, load_taxonomy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class ConfigError(Exception):
    """A run configuration that cannot work: missing or unreadable paths."""


class CorpusError(Exception):
    """A corpus directory with no documents, or a document that is not UTF-8."""


def _read_corpus(directory: Path) -> dict[str, str]:
    """Read every ``*.txt`` file; the file stem is the document id."""
    docs = {}
    for path in sorted(directory.glob("*.txt")):
        try:
            docs[path.stem] = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(
                f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
            ) from None
    if not docs:
        raise CorpusError(f"no .txt documents found in {directory}")
    return docs


def run(cfg: RunConfig) -> MatchReport:
    """Execute the full pipeline and return the ranking report.

    Vendor documents are extracted before query documents, so vendor-domain
    vocabulary discovered adaptively is available to query extraction. The
    grown marking is written back only when ``update_marking`` is set and
    extraction admitted at least one instance.
    """
    for path, kind in (
        (cfg.vendors_dir, "vendors directory"),
        (cfg.queries_dir, "queries directory"),
    ):
        if not path.is_dir():
            raise ConfigError(f"{kind} does not exist: {path}")
    for path, kind in (
        (cfg.marking_path, "marking file"),
        (cfg.taxonomy_path, "taxonomy file"),
    ):
        if not path.is_file():
            raise ConfigError(f"{kind} does not exist: {path}")

    marking = load_marking(cfg.marking_path)
    taxonomy = load_taxonomy(cfg.taxonomy_path)
    vendor_docs = _read_corpus(cfg.vendors_dir)
    query_docs = _read_corpus(cfg.queries_dir)

    vendor_sets = extract_corpus(vendor_docs, marking, cfg.thresholds)
    query_sets = extract_corpus(query_docs, marking, cfg.thresholds)
    report = rank_vendors(query_sets, vendor_sets, taxonomy, cfg.thresholds)

    if cfg.update_marking and any([*vendor_sets.values(), *query_sets.values()]):
        save_marking(marking, cfg.marking_path)
    return report


def emit_report(report: MatchReport, output_format: str = "text") -> str:
    """Serialize a report; json is key-sorted and byte-stable."""
    if output_format == "json":
        doc = {
            "winner": report.winner,
            "results": [
                {
                    "vendor_id": r.vendor_id,
                    "match_percentage": r.match_percentage,
                    "pairs": [
                        {
                            "query_phrase": p.query_phrase,
                            "vendor_phrase": p.vendor_phrase,
                            "score": p.score,
                            "query_freq": p.query_freq,
                            "vendor_freq": p.vendor_freq,
                        }
                        for p in r.pairs
                    ],
                    "per_query": dict(sorted(r.per_query.items())),
                }
                for r in report.results
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

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
    parser.add_argument("--output", choices=("text", "json"), default="text")
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

    try:
        report = run(cfg)
    except ConfigError as exc:
        print(f"vendormatch: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MarkingFormatError, TaxonomyError, CorpusError, OSError) as exc:
        print(f"vendormatch: error: {exc}", file=sys.stderr)
        return EXIT_DATA

    sys.stdout.write(emit_report(report, cfg.output_format))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
