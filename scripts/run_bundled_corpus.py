#!/usr/bin/env python3
"""Run the full pipeline on the bundled corpus and print both report formats.

Uses a throwaway copy of the marking file so the checked-in seed stays
untouched while still exercising the adaptive updates.
"""

import argparse
import shutil
import tempfile
from pathlib import Path

from vendormatch.cli import emit_report, run
from vendormatch.config import RunConfig
from vendormatch.marking import load_marking

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    with tempfile.TemporaryDirectory(prefix="vendormatch-") as workdir:
        marking = Path(workdir) / "marking.tsv"
        shutil.copy(ROOT / "data" / "marking.tsv", marking)

        report = run(
            RunConfig(
                vendors_dir=ROOT / "data" / "vendors",
                queries_dir=ROOT / "data" / "queries",
                marking_path=marking,
                taxonomy_path=ROOT / "data" / "taxonomy.tsv",
            )
        )
        print(emit_report(report, "text"))

        seed = load_marking(ROOT / "data" / "marking.tsv")
        grown = load_marking(marking)
    added = [(p, f) for p, f in grown.items() if p not in seed]
    print(f"marking grew from {len(seed)} to {len(grown)} entries")
    if added:
        print("adaptive additions:", ", ".join(f"{p} ({f})" for p, f in added))


if __name__ == "__main__":
    main()
