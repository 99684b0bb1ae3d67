"""The reports and counts pinned in ``pinned_reports.py``, checked in-process
and, in a child per fixed string-hash seed, through the CLI."""

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

from pinned_reports import BUNDLED_PINS, STDDEV_VECTORS, SYNTH_KERNEL_CALLS, SYNTH_PINS
from repo_paths import DATA_DIR, GOLDEN_DIR, REPO_ROOT
from vendormatch import extraction
from vendormatch.cli import EXIT_OK, emit_report, main, run
from vendormatch.config import RunConfig

BUNDLED = (DATA_DIR / "vendors", DATA_DIR / "queries")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_argv(corpus, marking, *flags):
    """``main``'s arguments for a JSON report over ``corpus``, a (vendors
    dir, queries dir) pair; ``flags`` come last, so they can override."""
    vendors_dir, queries_dir = corpus
    return [
        "--vendors-dir", str(vendors_dir),
        "--queries-dir", str(queries_dir),
        "--marking", str(marking),
        "--taxonomy", str(DATA_DIR / "taxonomy.tsv"),
        "--output", "json",
        *flags,
    ]


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
    report = sha256_hex(emit_report(run(cfg), "json").encode("utf-8"))
    return report, kernel_calls, sum("stddev" in vars(v) for v in vectors)


@pytest.fixture(scope="module")
def synth_corpora(tmp_path_factory):
    """Each ``SYNTH_PINS`` corpus at seed 1, written by ``benchmark/workloads.py``
    (imported by path and only read), as (vendors dir, queries dir); read-only."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", REPO_ROOT / "benchmark" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # @dataclass looks its module up there
    spec.loader.exec_module(workloads)
    words = workloads.corpus_words(DATA_DIR)
    return {
        name: workloads.write_corpus(
            workloads.WORKLOADS[name].corpus, 1, words, tmp_path_factory.mktemp(name)
        )
        for name in SYNTH_PINS
    }


@pytest.mark.parametrize("name", sorted(SYNTH_PINS))
def test_synthetic_report_and_grown_marking_are_pinned(
    synth_corpora, name, tmp_marking, monkeypatch
):
    vendors_dir, queries_dir = synth_corpora[name]
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
    assert report == sha256_hex(golden)
    assert stddevs == STDDEV_VECTORS["bundled"]


@pytest.mark.parametrize("name", BUNDLED_PINS)
def test_bundled_report_is_pinned(name, tmp_marking, capsys):
    flags, report, _ = BUNDLED_PINS[name]
    assert main(cli_argv(BUNDLED, tmp_marking, *flags)) == EXIT_OK
    assert sha256_hex(capsys.readouterr().out.encode("utf-8")) == report


@pytest.mark.parametrize("name", [name for name, pins in BUNDLED_PINS.items() if pins[2]])
def test_marking_grown_by_a_bundled_run_is_pinned(name, tmp_marking):
    flags, _, grown = BUNDLED_PINS[name]
    assert main(cli_argv(BUNDLED, tmp_marking, *flags)) == EXIT_OK
    assert sha256_hex(tmp_marking.read_bytes()) == grown


#: The hash-seed test's child. With numpy made unimportable, since the
#: library needs nothing beyond the standard library, it runs ``main`` on
#: each argument list of the JSON list on stdin and prints the sha256 of
#: each run's stdout, one a line.
_CHILD = """\
import contextlib, hashlib, io, json, sys
sys.modules["numpy"] = None
from vendormatch.cli import main
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    if code:
        sys.exit(f"exit {code}: {argv}")
    print(hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())
"""


@pytest.mark.parametrize("seed", ["0", "1"])
def test_pinned_runs_ignore_string_hashing(seed, synth_corpora, tmp_path):
    # fixed string-hash seeds, so a dependence on hash order fails every run
    # instead of now and then: the golden reports, every bundled pin and
    # both synthetic pins, each marking grown from its own seed copy
    runs, want = {}, {}
    for output, golden in (("json", "bundled_report.json"), ("text", "bundled_report.txt")):
        runs[output] = cli_argv(
            BUNDLED, DATA_DIR / "marking.tsv", "--no-update-marking", "--output", output
        )
        want[output] = sha256_hex((GOLDEN_DIR / golden).read_bytes())
    markings = {name: tmp_path / f"{name}.tsv" for name in [*BUNDLED_PINS, *SYNTH_PINS]}
    for marking in markings.values():
        shutil.copyfile(DATA_DIR / "marking.tsv", marking)
    for name, (flags, report, _) in BUNDLED_PINS.items():
        runs[name], want[name] = cli_argv(BUNDLED, markings[name], *flags), report
    for name, (report, _) in SYNTH_PINS.items():
        runs[name], want[name] = cli_argv(synth_corpora[name], markings[name]), report

    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        input=json.dumps(list(runs.values())),
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert dict(zip(runs, proc.stdout.split())) == want
    grown = {name: pins[2] for name, pins in BUNDLED_PINS.items() if pins[2]}
    assert {name: sha256_hex(markings[name].read_bytes()) for name in grown} == grown
    rows = {name: markings[name].read_bytes().count(b"\n") for name in SYNTH_PINS}
    assert rows == {name: pins[1] for name, pins in SYNTH_PINS.items()}
