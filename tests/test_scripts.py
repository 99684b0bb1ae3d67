"""The bundled scripts honour their command line."""

import os
import subprocess
import sys

import pytest

from repo_paths import GOLDEN_DIR, REPO_ROOT


def test_threshold_sweep_help_prints_usage_and_writes_nothing():
    golden = GOLDEN_DIR / "bundled_report.json"
    before = golden.read_bytes(), golden.stat().st_mtime_ns
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "threshold_sweep.py"), "--help"],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
    assert (golden.read_bytes(), golden.stat().st_mtime_ns) == before


# the sweep's table on the bundled data; r 0.02 and 0.05 lie above the
# default fallback, the loose regime where the gazetteer lookup prunes most
SWEEP_TABLE = """\
 r_threshold  vendor inst  query inst    top %  winner
      0.0050          105         109    95.91  v03
      0.0090          105         109    95.91  v03
      0.0100          105         109    95.91  v03
      0.0200          105         109    95.91  v03
      0.0500          165         167    63.93  v03
"""


def test_threshold_sweep_prints_the_known_table():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "threshold_sweep.py")],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == SWEEP_TABLE


@pytest.mark.parametrize(
    ("threshold", "reason"),
    [
        ("0", "r_threshold must be strictly positive"),
        ("-1", "r_threshold must be strictly positive"),
        ("nan", "r_threshold must be a finite number"),
    ],
    ids=["zero", "negative", "nan"],
)
def test_threshold_sweep_rejects_a_bad_threshold_with_usage(threshold, reason):
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "threshold_sweep.py"),
         "--thresholds", "0.01", threshold],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    usage, error = proc.stderr.splitlines()
    assert usage.startswith("usage: threshold_sweep.py")
    assert error == f"threshold_sweep.py: error: {reason}"
