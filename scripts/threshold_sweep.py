#!/usr/bin/env python3
"""Sweep the extraction threshold over the bundled corpus.

Shows how the admitted-instance count and the final ranking react as the
relatedness bound loosens. Instance sets must be nested across the sweep;
the ranking usually stabilizes early because exact hits dominate.
"""

import argparse
from pathlib import Path

from vendormatch.cli import _read_corpus
from vendormatch.config import Thresholds
from vendormatch.extraction import extract_corpus
from vendormatch.marking import load_marking
from vendormatch.matchmaker import rank_vendors
from vendormatch.taxonomy import load_taxonomy

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--thresholds",
        type=float,
        nargs="+",
        default=[0.005, 0.009, 0.01, 0.02, 0.05],
    )
    args = parser.parse_args()
    try:
        settings = [Thresholds(r_threshold=r) for r in sorted(args.thresholds)]
    except ValueError as exc:
        parser.error(str(exc))

    taxonomy = load_taxonomy(ROOT / "data" / "taxonomy.tsv")
    vendors = _read_corpus(ROOT / "data" / "vendors")
    queries = _read_corpus(ROOT / "data" / "queries")

    print(f"{'r_threshold':>12} {'vendor inst':>12} {'query inst':>11} "
          f"{'top %':>8}  winner")
    for cfg in settings:
        mf = load_marking(ROOT / "data" / "marking.tsv")
        vendor_sets = extract_corpus(vendors, mf, cfg)
        query_sets = extract_corpus(queries, mf, cfg)
        report = rank_vendors(query_sets, vendor_sets, taxonomy, cfg)
        n_vendor = sum(len(s) for s in vendor_sets.values())
        n_query = sum(len(s) for s in query_sets.values())
        top = report.results[0]
        print(
            f"{cfg.r_threshold:>12.4f} {n_vendor:>12} {n_query:>11} "
            f"{top.match_percentage:>8.2f}  {report.winner}"
        )


if __name__ == "__main__":
    main()
