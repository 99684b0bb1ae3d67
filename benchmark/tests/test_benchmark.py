"""The benchmark's own contract: inputs, checks, counts and metric names.

Run from the repository root:

    python -m pytest -q benchmark/tests
"""

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import Tracer, count_metrics
from vendormatch import cli
from workloads import WORKLOADS, corpus_words, write_corpus

BENCHMARK_JSON = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GENERATED = [name for name, w in WORKLOADS.items() if w.corpus is not None]


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*.txt"))}


def _bench(name: str, tmp_path: Path, seed: int = 1) -> run.Bench:
    return run.prepare(WORKLOADS[name], seed, tmp_path)


@pytest.mark.parametrize("name", GENERATED)
def test_same_seed_gives_byte_identical_corpora(name, tmp_path):
    words = corpus_words(run.DATA)
    corpus = WORKLOADS[name].corpus
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        write_corpus(corpus, seed, words, tmp_path / label)
    first, again, other = (_tree(tmp_path / label) for label in "abc")
    assert len(first) == corpus.vendors + corpus.queries
    assert first == again
    assert first != other


def test_workloads_match_benchmark_json():
    declared = {w["name"]: w["why"] for w in BENCHMARK_JSON["workloads"]}
    assert declared == {name: w.why for name, w in WORKLOADS.items()}


def test_metric_names_are_valid_and_match_what_runs_print(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path / "out")
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    for key, traced in (("end_to_end", False), ("per_layer", True)):
        declared = [m["name"] for m in BENCHMARK_JSON[key]]
        assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in declared)
        assert len(set(declared)) == len(declared)
        (tmp_path / key).mkdir()
        result = run.measure(WORKLOADS["bundled"], 1, 0, traced, tmp_path / key)
        assert result["correct"], result
        assert list(result["metrics"]) == declared
        units = {m["name"]: m["unit"] for m in BENCHMARK_JSON[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units


@pytest.mark.parametrize(
    "corrupt, problem",
    [
        (lambda d: d["results"][0].update(match_percentage=100.5), "outside [0, 100]"),
        (lambda d: d["results"].reverse(), "not sorted"),
        (lambda d: d.update(winner=d["results"][1]["vendor_id"]), "winner"),
        (lambda d: d.update(winner=None), "winner"),
    ],
)
def test_report_problems_flags_broken_invariants(corrupt, problem):
    report = run.GOLDEN.read_text(encoding="utf-8")
    assert run.report_problems(report, None) == []
    doc = json.loads(report)
    corrupt(doc)
    problems = run.report_problems(json.dumps(doc), None)
    assert len(problems) == 1 and problem in problems[0]


def test_corrupted_report_is_counted_as_failed(tmp_path, monkeypatch):
    bench = _bench("bundled", tmp_path)
    tally = run.Tally(bench.golden)
    run.checked_pass(bench, tally)
    assert (tally.attempted, tally.failed) == (1, 0)

    emit = cli.emit_report
    monkeypatch.setattr(cli, "emit_report", lambda *a: emit(*a).replace("v", "w", 1))
    plain, _ = run.timed_passes(bench, tally, 0, traced=False)
    assert len(plain) == run.MIN_PASSES
    assert tally.failed == tally.attempted - 1 == run.MIN_PASSES
    assert "report differs from the golden bytes" in tally.problems


def test_report_changing_between_passes_is_counted_as_failed(tmp_path, monkeypatch):
    bench = _bench("bundled", tmp_path)
    bench.golden = None  # only the cross-pass check can catch this
    tally = run.Tally(None)
    emit = cli.emit_report
    passes = itertools.count()
    monkeypatch.setattr(cli, "emit_report", lambda *a: emit(*a) + " " * next(passes))
    for _ in range(3):
        run.checked_pass(bench, tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "report differs from the first pass's" in tally.problems


@pytest.mark.parametrize("name", ["bundled", "extract_growth"])
def test_traced_counts_repeat_exactly(name, tmp_path):
    bench = _bench(name, tmp_path)
    tally = run.Tally(bench.golden)
    first, second = (run.checked_pass(bench, tally, Tracer()) for _ in range(2))
    assert (tally.attempted, tally.failed) == (2, 0), tally.problems
    counts = count_metrics(first.tracer.layer_metrics())
    assert counts == count_metrics(second.tracer.layer_metrics())
    assert counts["taxonomy.phrase_score_calls"] > 0
    assert counts["extraction.index_encodes"] > 0
    rows_after = tally.marking.count(b"\n")
    assert counts["marking.entries_added"] == rows_after - bench.seed_marking.count(b"\n") > 0


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    bench_copy = tmp_path / "benchmark"
    bench_copy.mkdir()
    for path in run.BENCH_DIR.glob("*.py"):
        (bench_copy / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "bundled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
