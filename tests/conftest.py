import pytest

from repo_paths import DATA_DIR
from vendormatch.taxonomy import Taxonomy, load_taxonomy


@pytest.fixture(scope="session")
def bundled_taxonomy() -> Taxonomy:
    return load_taxonomy(DATA_DIR / "taxonomy.tsv")


@pytest.fixture()
def tmp_marking(tmp_path):
    """A throwaway copy of the bundled seed marking file."""
    target = tmp_path / "marking.tsv"
    target.write_bytes((DATA_DIR / "marking.tsv").read_bytes())
    return target
