import pytest

from repo_paths import DATA_DIR
from vendormatch.cli import _read_corpus
from vendormatch.config import Thresholds
from vendormatch.extraction import extract_corpus
from vendormatch.marking import load_marking
from vendormatch.taxonomy import Taxonomy, load_taxonomy


@pytest.fixture(scope="session")
def bundled_taxonomy() -> Taxonomy:
    return load_taxonomy(DATA_DIR / "taxonomy.tsv")


@pytest.fixture(scope="session")
def bundled_corpus() -> dict[str, dict[str, str]]:
    """The bundled documents, {"vendors" | "queries": {doc id: text}}; read-only."""
    return {kind: _read_corpus(DATA_DIR / kind) for kind in ("vendors", "queries")}


@pytest.fixture(scope="session")
def bundled_instance_sets(bundled_corpus):
    """(vendor sets, query sets) as a default run extracts them; read-only."""
    marking = load_marking(DATA_DIR / "marking.tsv")
    return tuple(
        extract_corpus(bundled_corpus[kind], marking, Thresholds())
        for kind in ("vendors", "queries")
    )


@pytest.fixture()
def tmp_marking(tmp_path):
    """A throwaway copy of the bundled seed marking file."""
    target = tmp_path / "marking.tsv"
    target.write_bytes((DATA_DIR / "marking.tsv").read_bytes())
    return target
