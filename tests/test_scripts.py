"""The bundled scripts honour their command line."""

import os
import subprocess
import sys

import pytest

from repo_paths import GOLDEN_DIR, REPO_ROOT


@pytest.mark.parametrize(
    "script", ["regenerate_golden.py", "run_bundled_corpus.py", "threshold_sweep.py"]
)
def test_script_help_prints_usage_and_writes_nothing(script):
    golden = GOLDEN_DIR / "bundled_report.json"
    before = golden.read_bytes(), golden.stat().st_mtime_ns
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / script), "--help"],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
    assert (golden.read_bytes(), golden.stat().st_mtime_ns) == before
