"""End-to-end CLI behavior: orchestration, serialization, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from repo_paths import DATA_DIR, GOLDEN_DIR, REPO_ROOT
from vendormatch.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    emit_report,
    main,
    run,
)
from vendormatch.config import RunConfig
from vendormatch.extraction import extract_corpus
from vendormatch.marking import load_marking, save_marking
from vendormatch.matchmaker import MatchPair, MatchReport, VendorResult

GOLDEN_REPORT = GOLDEN_DIR / "bundled_report.json"


def bundled_config(marking_path=None, **kwargs):
    return RunConfig(
        vendors_dir=DATA_DIR / "vendors",
        queries_dir=DATA_DIR / "queries",
        marking_path=marking_path or DATA_DIR / "marking.tsv",
        taxonomy_path=DATA_DIR / "taxonomy.tsv",
        **kwargs,
    )


def cli_args(tmp_marking, *extra):
    return [
        "--vendors-dir", str(DATA_DIR / "vendors"),
        "--queries-dir", str(DATA_DIR / "queries"),
        "--marking", str(tmp_marking),
        "--taxonomy", str(DATA_DIR / "taxonomy.tsv"),
        *extra,
    ]


# ------------------------------------------------------------------- run


def test_bundled_corpus_names_one_winner():
    report = run(bundled_config(update_marking=False))
    assert report.winner is not None
    assert len(report.results) == 10
    assert report.results[0].match_percentage > report.results[1].match_percentage


def test_repeated_runs_are_byte_identical_without_updates():
    first = emit_report(run(bundled_config(update_marking=False)), "json")
    second = emit_report(run(bundled_config(update_marking=False)), "json")
    assert first == second


def test_golden_report_snapshot():
    report = run(bundled_config(update_marking=False))
    assert emit_report(report, "json") == GOLDEN_REPORT.read_text(encoding="utf-8")


def test_golden_report_without_numpy(tmp_marking):
    # the library needs nothing beyond the standard library: with numpy
    # made unimportable the CLI still prints the golden report
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from vendormatch.cli import main\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    args = cli_args(tmp_marking, "--no-update-marking", "--output", "json")
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr.decode()
    assert proc.stdout == GOLDEN_REPORT.read_bytes()


def test_run_without_updates_leaves_marking_untouched(tmp_marking):
    before = tmp_marking.read_bytes()
    run(bundled_config(marking_path=tmp_marking, update_marking=False))
    assert tmp_marking.read_bytes() == before


def test_run_with_updates_grows_marking(tmp_marking):
    before = tmp_marking.read_bytes()
    run(bundled_config(marking_path=tmp_marking))
    after = tmp_marking.read_bytes()
    assert after != before
    assert len(after.splitlines()) >= len(before.splitlines())


def test_second_run_admits_superset_of_instances(tmp_marking):
    docs = {
        p.stem: p.read_text(encoding="utf-8")
        for p in sorted((DATA_DIR / "vendors").glob("*.txt"))
    }

    def run_extraction():
        marking = load_marking(tmp_marking)
        sets = extract_corpus(docs, marking, bundled_config().thresholds)
        save_marking(marking, tmp_marking)
        return {d: set(s.instances) for d, s in sets.items()}

    first = run_extraction()
    second = run_extraction()
    for doc_id, phrases in first.items():
        assert phrases <= second[doc_id]


# ------------------------------------------------------------ emit_report


def test_emit_empty_report_json():
    doc = json.loads(emit_report(MatchReport(results=(), winner=None), "json"))
    assert doc == {"results": [], "winner": None}
    with pytest.raises(ValueError, match="unknown output format: 'JSON'"):
        emit_report(MatchReport(results=(), winner=None), "JSON")


def test_emit_single_vendor_report():
    pairs = (
        MatchPair(
            query_phrase="solar",
            vendor_phrase="solar",
            score=1.0,
            query_freq=2,
            vendor_freq=1,
        ),
        MatchPair(
            query_phrase="wind turbine",
            vendor_phrase="turbines",
            score=0.75,
            query_freq=1,
            vendor_freq=3,
        ),
    )
    report = MatchReport(
        results=(
            VendorResult(
                vendor_id="v1",
                pairs=pairs,
                match_percentage=87.5,
                # out of key order: the report must sort it
                per_query={"q2": 75.0, "q1": 100.0},
            ),
        ),
        winner="v1",
    )
    # the whole text, so a dropped or renamed field or an unsorted key fails
    assert emit_report(report, "json") == """\
{
  "results": [
    {
      "match_percentage": 87.5,
      "pairs": [
        {
          "query_freq": 2,
          "query_phrase": "solar",
          "score": 1.0,
          "vendor_freq": 1,
          "vendor_phrase": "solar"
        },
        {
          "query_freq": 1,
          "query_phrase": "wind turbine",
          "score": 0.75,
          "vendor_freq": 3,
          "vendor_phrase": "turbines"
        }
      ],
      "per_query": {
        "q1": 100.0,
        "q2": 75.0
      },
      "vendor_id": "v1"
    }
  ],
  "winner": "v1"
}
"""
    text = emit_report(report, "text")
    assert "winner: v1" in text
    assert "87.50" in text


def test_emit_text_for_empty_report():
    text = emit_report(MatchReport(results=(), winner=None), "text")
    assert "winner: none" in text


def test_json_schema_is_stable():
    report = run(bundled_config(update_marking=False))
    doc = json.loads(emit_report(report, "json"))
    assert set(doc) == {"results", "winner"}
    for result in doc["results"]:
        assert set(result) == {"vendor_id", "match_percentage", "pairs", "per_query"}
        for pair in result["pairs"]:
            assert set(pair) == {
                "query_phrase",
                "vendor_phrase",
                "score",
                "query_freq",
                "vendor_freq",
            }
        assert len(result["per_query"]) == 30


# ------------------------------------------------------------------ main


def test_main_success_writes_report(tmp_marking, capsys):
    code = main(cli_args(tmp_marking, "--no-update-marking", "--output", "json"))
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["winner"] is not None


def test_main_text_output(tmp_marking, capsys):
    code = main(cli_args(tmp_marking, "--no-update-marking"))
    assert code == EXIT_OK
    assert "winner:" in capsys.readouterr().out


def test_main_missing_vendors_dir(tmp_path, tmp_marking, capsys):
    code = main(
        [
            "--vendors-dir", str(tmp_path / "absent"),
            "--queries-dir", str(DATA_DIR / "queries"),
            "--marking", str(tmp_marking),
            "--taxonomy", str(DATA_DIR / "taxonomy.tsv"),
        ]
    )
    assert code == EXIT_USAGE
    assert "vendors directory" in capsys.readouterr().err


def test_main_empty_queries_dir(tmp_path, tmp_marking, capsys):
    empty = tmp_path / "queries"
    empty.mkdir()
    code = main(
        [
            "--vendors-dir", str(DATA_DIR / "vendors"),
            "--queries-dir", str(empty),
            "--marking", str(tmp_marking),
            "--taxonomy", str(DATA_DIR / "taxonomy.tsv"),
        ]
    )
    assert code == EXIT_DATA
    assert "no .txt documents" in capsys.readouterr().err


def test_main_malformed_marking(tmp_path, capsys):
    bad = tmp_path / "marking.tsv"
    bad.write_text("sun\tabc\n", encoding="utf-8")
    code = main(cli_args(bad))
    assert code == EXIT_DATA
    assert "line 1" in capsys.readouterr().err


def test_main_invalid_threshold(tmp_marking, capsys):
    code = main(cli_args(tmp_marking, "--r-threshold", "-1"))
    assert code == EXIT_USAGE
    assert "r_threshold" in capsys.readouterr().err


def test_main_unknown_flag_exits_one(tmp_marking):
    with pytest.raises(SystemExit) as excinfo:
        main(cli_args(tmp_marking, "--bogus"))
    assert excinfo.value.code == EXIT_USAGE


def test_main_malformed_taxonomy(tmp_path, tmp_marking, capsys):
    bad = tmp_path / "taxonomy.tsv"
    for content, message in (
        ("a\tb\nb\ta\n", "cycle"),
        ("solar panel\tenergy\nwind\tenergy\n", "line 1"),  # dead leaf id
    ):
        bad.write_text(content, encoding="utf-8")
        code = main(
            [
                "--vendors-dir", str(DATA_DIR / "vendors"),
                "--queries-dir", str(DATA_DIR / "queries"),
                "--marking", str(tmp_marking),
                "--taxonomy", str(bad),
            ]
        )
        assert code == EXIT_DATA
        assert message in capsys.readouterr().err


def test_main_non_utf8_corpus_file_is_a_data_error(tmp_path, tmp_marking, capsys):
    queries = tmp_path / "queries"
    queries.mkdir()
    bad = queries / "q01.txt"
    bad.write_bytes(b"solar \xff panel\n")
    code = main(
        [
            "--vendors-dir", str(DATA_DIR / "vendors"),
            "--queries-dir", str(queries),
            "--marking", str(tmp_marking),
            "--taxonomy", str(DATA_DIR / "taxonomy.tsv"),
        ]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err == (
        f"vendormatch: error: {bad}: not valid UTF-8 (invalid start byte at byte 6)\n"
    )


@pytest.mark.parametrize("which", ["marking", "taxonomy"])
def test_main_non_utf8_marking_or_taxonomy_is_a_data_error(tmp_path, which, capsys):
    files = {
        "marking": tmp_path / "marking.tsv",
        "taxonomy": tmp_path / "taxonomy.tsv",
    }
    files["marking"].write_bytes((DATA_DIR / "marking.tsv").read_bytes())
    files["taxonomy"].write_bytes((DATA_DIR / "taxonomy.tsv").read_bytes())
    files[which].write_bytes(files[which].read_bytes() + b"\xff\tenergy\n")
    code = main(
        [
            "--vendors-dir", str(DATA_DIR / "vendors"),
            "--queries-dir", str(DATA_DIR / "queries"),
            "--marking", str(files["marking"]),
            "--taxonomy", str(files["taxonomy"]),
        ]
    )
    assert code == EXIT_DATA
    # the same text from the same helper as the corpus reader's
    start = len((DATA_DIR / f"{which}.tsv").read_bytes())
    assert capsys.readouterr().err == (
        f"vendormatch: error: {files[which]}: not valid UTF-8 "
        f"(invalid start byte at byte {start})\n"
    )


@pytest.mark.parametrize(
    "flag", ["--r-threshold", "--fallback-threshold", "--wup-threshold"]
)
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_main_non_finite_threshold_exits_one(tmp_marking, capsys, flag, value):
    code = main(cli_args(tmp_marking, flag, value))
    assert code == EXIT_USAGE
    assert "must be a finite number" in capsys.readouterr().err


def test_main_huge_threshold_exits_zero(tmp_marking, capsys):
    # squaring a bound of 1e200 overflows a float; it must not raise
    code = main(cli_args(tmp_marking, "--r-threshold", "1e200", "--output", "json"))
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["winner"] is not None
