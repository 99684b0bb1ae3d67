#!/usr/bin/env python3
"""Regenerate the golden JSON snapshot for the bundled corpus.

Only rerun this after a deliberate behavior change, then review the diff
before committing: the snapshot is the reference output the CLI tests
compare against byte-for-byte.
"""

import argparse
from pathlib import Path

from vendormatch.cli import emit_report, run
from vendormatch.config import RunConfig

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    report = run(
        RunConfig(
            vendors_dir=ROOT / "data" / "vendors",
            queries_dir=ROOT / "data" / "queries",
            marking_path=ROOT / "data" / "marking.tsv",
            taxonomy_path=ROOT / "data" / "taxonomy.tsv",
            update_marking=False,
        )
    )
    target = ROOT / "tests" / "golden" / "bundled_report.json"
    target.write_text(emit_report(report, "json"), encoding="utf-8")
    print(f"wrote {target}")
    print(f"winner: {report.winner}")


if __name__ == "__main__":
    main()
