"""Paths the tests read: the checkout, its bundled data and the golden files.

Kept out of ``conftest.py`` so test modules can import them by a name no
other test directory's conftest shadows.
"""

from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = REPO_ROOT / "data"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
