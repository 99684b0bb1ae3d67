#!/usr/bin/env python3
"""Sweep the extraction threshold over the bundled corpus.

Shows how the admitted-instance count and the final ranking react as the
relatedness bound loosens. Instance sets must be nested across the sweep;
the ranking usually stabilizes early because exact hits dominate.
"""

import argparse
from pathlib import Path

from vendormatch import RunConfig, RunStats, Thresholds
from vendormatch.cli import run

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

    data = ROOT / "data"
    print(f"{'r_threshold':>12} {'vendor inst':>12} {'query inst':>11} "
          f"{'top %':>8}  winner")
    for thresholds in settings:
        stats = RunStats()
        report = run(
            RunConfig(
                data / "vendors",
                data / "queries",
                data / "marking.tsv",
                data / "taxonomy.tsv",
                thresholds,
                update_marking=False,
            ),
            stats,
        )
        counts, top = stats.counts, report.results[0]
        print(
            f"{thresholds.r_threshold:>12.4f} {counts['vendor_instances']:>12} "
            f"{counts['query_instances']:>11} "
            f"{top.match_percentage:>8.2f}  {report.winner}"
        )


if __name__ == "__main__":
    main()
