"""The reports and counts pinned in ``pinned_reports.py``, checked in-process."""

import hashlib
import importlib.util
import sys

import pytest

from pinned_reports import LOOSE_BUNDLED_SHA256, SYNTH_KERNEL_CALLS, SYNTH_PINS
from repo_paths import DATA_DIR, REPO_ROOT
from vendormatch import extraction
from vendormatch.cli import emit_report, run
from vendormatch.config import RunConfig, Thresholds


def sha256_of_json_report(cfg: RunConfig) -> str:
    return hashlib.sha256(emit_report(run(cfg), "json").encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def workloads():
    """``benchmark/workloads.py``, imported by path and only read."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", REPO_ROOT / "benchmark" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(SYNTH_PINS))
def test_synthetic_report_and_grown_marking_are_pinned(
    workloads, name, tmp_path, tmp_marking, monkeypatch
):
    kernel_calls = 0
    kernel = extraction.relatedness_terms

    def counted(*args):
        nonlocal kernel_calls
        kernel_calls += 1
        return kernel(*args)

    monkeypatch.setattr(extraction, "relatedness_terms", counted)
    vendors_dir, queries_dir = workloads.write_corpus(
        workloads.WORKLOADS[name].corpus, 1, workloads.corpus_words(DATA_DIR), tmp_path
    )
    cfg = RunConfig(
        vendors_dir=vendors_dir,
        queries_dir=queries_dir,
        marking_path=tmp_marking,
        taxonomy_path=DATA_DIR / "taxonomy.tsv",
    )
    report = sha256_of_json_report(cfg)
    rows = tmp_marking.read_bytes().count(b"\n")
    assert (report, rows) == SYNTH_PINS[name]
    assert kernel_calls == SYNTH_KERNEL_CALLS[name]


def test_loose_bundled_report_is_pinned(tmp_marking):
    cfg = RunConfig(
        vendors_dir=DATA_DIR / "vendors",
        queries_dir=DATA_DIR / "queries",
        marking_path=tmp_marking,
        taxonomy_path=DATA_DIR / "taxonomy.tsv",
        thresholds=Thresholds(r_threshold=0.3, fallback_threshold=0.5),
        update_marking=False,
    )
    assert sha256_of_json_report(cfg) == LOOSE_BUNDLED_SHA256
