"""The reports and counts pinned in ``pinned_reports.py``, checked in-process."""

import hashlib
import importlib.util
import sys

import pytest

from pinned_reports import (
    FALLBACK_BUNDLED_MARKING_SHA256,
    FALLBACK_BUNDLED_SHA256,
    LOOSE_BUNDLED_MARKING_SHA256,
    LOOSE_BUNDLED_SHA256,
    R_0_2_BUNDLED_MARKING_SHA256,
    R_0_2_BUNDLED_SHA256,
    STDDEV_VECTORS,
    SYNTH_KERNEL_CALLS,
    SYNTH_PINS,
    WUP_0_6_BUNDLED_SHA256,
    WUP_1_0_BUNDLED_SHA256,
)
from repo_paths import DATA_DIR, GOLDEN_DIR, REPO_ROOT
from vendormatch import extraction
from vendormatch.cli import emit_report, run
from vendormatch.config import RunConfig, Thresholds


def sha256_of_json_report(cfg: RunConfig) -> str:
    return hashlib.sha256(emit_report(run(cfg), "json").encode("utf-8")).hexdigest()


def counted_run(cfg, monkeypatch):
    """The JSON report's sha256, the kernel's calls and the vectors with a stddev."""
    kernel, encode = extraction.relatedness_terms, extraction.encode
    kernel_calls = 0
    vectors = []

    def counted(*args):
        nonlocal kernel_calls
        kernel_calls += 1
        return kernel(*args)

    def kept(phrase):
        vectors.append(encode(phrase))
        return vectors[-1]

    monkeypatch.setattr(extraction, "relatedness_terms", counted)
    monkeypatch.setattr(extraction, "encode", kept)
    report = sha256_of_json_report(cfg)
    return report, kernel_calls, sum("stddev" in vars(v) for v in vectors)


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
    vendors_dir, queries_dir = workloads.write_corpus(
        workloads.WORKLOADS[name].corpus, 1, workloads.corpus_words(DATA_DIR), tmp_path
    )
    cfg = RunConfig(
        vendors_dir=vendors_dir,
        queries_dir=queries_dir,
        marking_path=tmp_marking,
        taxonomy_path=DATA_DIR / "taxonomy.tsv",
    )
    report, kernel_calls, stddevs = counted_run(cfg, monkeypatch)
    rows = tmp_marking.read_bytes().count(b"\n")
    assert (report, rows) == SYNTH_PINS[name]
    assert kernel_calls == SYNTH_KERNEL_CALLS[name]
    assert stddevs == STDDEV_VECTORS[name]


def test_bundled_run_computes_the_pinned_stddevs(tmp_marking, monkeypatch):
    cfg = RunConfig(
        vendors_dir=DATA_DIR / "vendors",
        queries_dir=DATA_DIR / "queries",
        marking_path=tmp_marking,
        taxonomy_path=DATA_DIR / "taxonomy.tsv",
    )
    report, _, stddevs = counted_run(cfg, monkeypatch)
    golden = (GOLDEN_DIR / "bundled_report.json").read_bytes()
    assert report == hashlib.sha256(golden).hexdigest()
    assert stddevs == STDDEV_VECTORS["bundled"]


def bundled_report_sha256(marking_path, thresholds):
    """The bundled corpus's JSON report at ``thresholds``, with no marking update."""
    return sha256_of_json_report(
        RunConfig(
            vendors_dir=DATA_DIR / "vendors",
            queries_dir=DATA_DIR / "queries",
            marking_path=marking_path,
            taxonomy_path=DATA_DIR / "taxonomy.tsv",
            thresholds=thresholds,
            update_marking=False,
        )
    )


def test_loose_bundled_report_is_pinned(tmp_marking):
    thresholds = Thresholds(r_threshold=0.3, fallback_threshold=0.5)
    assert bundled_report_sha256(tmp_marking, thresholds) == LOOSE_BUNDLED_SHA256


def test_fallback_bundled_report_is_pinned(tmp_marking):
    thresholds = Thresholds(fallback_threshold=0.05)
    assert bundled_report_sha256(tmp_marking, thresholds) == FALLBACK_BUNDLED_SHA256


def test_r_0_2_bundled_report_is_pinned(tmp_marking):
    thresholds = Thresholds(r_threshold=0.2)
    assert bundled_report_sha256(tmp_marking, thresholds) == R_0_2_BUNDLED_SHA256


@pytest.mark.parametrize(
    ("thresholds", "pin"),
    [
        (Thresholds(r_threshold=0.3, fallback_threshold=0.5), LOOSE_BUNDLED_MARKING_SHA256),
        (Thresholds(fallback_threshold=0.05), FALLBACK_BUNDLED_MARKING_SHA256),
        (Thresholds(r_threshold=0.2), R_0_2_BUNDLED_MARKING_SHA256),
    ],
    ids=["loose", "fallback", "r0.2"],
)
def test_marking_grown_by_a_bundled_run_is_pinned(tmp_marking, thresholds, pin):
    run(
        RunConfig(
            vendors_dir=DATA_DIR / "vendors",
            queries_dir=DATA_DIR / "queries",
            marking_path=tmp_marking,
            taxonomy_path=DATA_DIR / "taxonomy.tsv",
            thresholds=thresholds,
        )
    )
    assert hashlib.sha256(tmp_marking.read_bytes()).hexdigest() == pin


@pytest.mark.parametrize(
    "wup, pin", [(0.6, WUP_0_6_BUNDLED_SHA256), (1.0, WUP_1_0_BUNDLED_SHA256)]
)
def test_bundled_report_at_a_match_threshold_is_pinned(tmp_marking, wup, pin):
    thresholds = Thresholds(wup_threshold=wup)
    assert bundled_report_sha256(tmp_marking, thresholds) == pin
