"""End-to-end CLI behavior: orchestration, serialization, exit codes."""

import contextlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from reference import as_dict_tree, random_rooted_dag, random_rooted_tree
from repo_paths import DATA_DIR, GOLDEN_DIR, REPO_ROOT
from synth_corpus import POOL, fresh_marking, make_corpus
from vendormatch import cli
from vendormatch.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    emit_report,
    main,
    run,
)
from vendormatch.config import RunConfig, RunStats, Thresholds
from vendormatch.extraction import extract_corpus
from vendormatch.marking import MarkingFormatError, load_marking, save_marking
from vendormatch.matchmaker import MatchPair, MatchReport, VendorResult, rank_vendors

GOLDEN_REPORT = GOLDEN_DIR / "bundled_report.json"
GOLDEN_TEXT = GOLDEN_DIR / "bundled_report.txt"


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


def test_marking_with_a_byte_order_mark_reads_as_without(tmp_path, tmp_marking, capsys):
    bom = tmp_path / "bom.tsv"
    bom.write_bytes(b"\xef\xbb\xbf" + tmp_marking.read_bytes())
    assert main(cli_args(bom, "--output", "json", "--no-update-marking")) == EXIT_OK
    assert capsys.readouterr().out == GOLDEN_REPORT.read_text(encoding="utf-8")
    # the saved marking is the plain run's, with no mark
    assert main(cli_args(bom)) == main(cli_args(tmp_marking)) == EXIT_OK
    assert bom.read_bytes() == tmp_marking.read_bytes()


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


def test_second_run_admits_superset_of_instances(tmp_marking, bundled_corpus):
    def run_extraction():
        marking = load_marking(tmp_marking)
        sets = extract_corpus(bundled_corpus["vendors"], marking, bundled_config().thresholds)
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


# "},\n" plus an indent and "{" is where the writer splits a result's pairs
_TRAP_TEXT = st.lists(
    st.one_of(
        st.sampled_from(["}", "},", "{", "[", "\n", " ", '"', "a", "\\", "\x00"]),
        st.sampled_from(["é", "€", "😀", "\u2028"]),
        st.characters(),
    ),
    max_size=4,
).map("".join)
_FLOATS = st.one_of(
    st.floats(), st.sampled_from([-0.0, 5e-324, 1e300, math.inf, -math.inf])
)
_FREQS = st.integers(-(2**63), 2**63)
_PAIRS = st.builds(MatchPair, _TRAP_TEXT, _TRAP_TEXT, _FLOATS, _FREQS, _FREQS)
_RESULTS = st.builds(
    VendorResult,
    vendor_id=_TRAP_TEXT,
    pairs=st.lists(_PAIRS, max_size=4).map(tuple),
    match_percentage=_FLOATS,
    per_query=st.dictionaries(_TRAP_TEXT, _FLOATS, max_size=4),
)
_REPORTS = st.builds(
    MatchReport,
    results=st.lists(_RESULTS, max_size=3).map(tuple),
    winner=st.one_of(st.none(), _TRAP_TEXT),
)


@settings(max_examples=300, deadline=None)
@given(_REPORTS)
@example(MatchReport((VendorResult("v1", (), 0.0, {}),), None))
@example(MatchReport((), None))
@example(
    MatchReport(
        (
            VendorResult(
                "v1",
                (
                    MatchPair("q", "},\n          {", 1.0, 1, 2),
                    MatchPair("r", "},\n          {", 0.5, 3, 4),
                ),
                62.5,
                {"q": 62.5},
            ),
        ),
        "v1",
    )
)
def test_json_report_equals_indented_json_dumps(report):
    expected = json.dumps(as_dict_tree(report), indent=2, sort_keys=True) + "\n"
    assert emit_report(report, "json") == expected


def counted_emit_report(monkeypatch, report):
    """The json report, and how many calls it made to json's C encoder."""
    calls = 0

    def counted(encode):
        def call(value):
            nonlocal calls
            calls += 1
            return encode(value)

        return call

    for name in ("_encode", "_encode_per_query", "_encode_pairs"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
    return emit_report(report, "json"), calls


def test_json_report_of_the_bundled_run_takes_four_encoder_calls_a_vendor(monkeypatch):
    # a vendor's match_percentage, pairs, per_query and vendor_id, then winner
    report = run(bundled_config(update_marking=False))
    text, calls = counted_emit_report(monkeypatch, report)
    assert text == GOLDEN_REPORT.read_text(encoding="utf-8")
    assert len(report.results) == 10
    assert calls == 4 * len(report.results) + 1 == 41


def test_json_report_of_a_synth_ranking_is_indented_json_dumps(
    bundled_taxonomy, monkeypatch
):
    rng = random.Random(5)
    cfg = Thresholds()
    marking = fresh_marking()
    vendors = extract_corpus(make_corpus(rng, 100), marking, cfg)
    queries = extract_corpus(make_corpus(rng, 100, words_per_doc=12), marking, cfg)
    report = rank_vendors(queries, vendors, bundled_taxonomy, cfg)
    assert sum(len(r.pairs) for r in report.results) > 100
    assert all(r.pairs for r in report.results)
    expected = json.dumps(as_dict_tree(report), indent=2, sort_keys=True) + "\n"
    text, calls = counted_emit_report(monkeypatch, report)
    assert text == expected
    assert calls == 4 * len(report.results) + 1 == 401


def test_readme_schema_example_is_the_head_of_the_golden_report():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## JSON report schema\n", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert example.count("\n") > 10
    assert GOLDEN_REPORT.read_text(encoding="utf-8").startswith(example)


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
    # text is the default format
    code = main(cli_args(tmp_marking, "--no-update-marking"))
    assert code == EXIT_OK
    assert capsys.readouterr().out == GOLDEN_TEXT.read_text(encoding="utf-8")


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


@pytest.mark.parametrize(
    "option, kind, noun",
    [
        ("--vendors-dir", "vendors directory", "a directory"),
        ("--queries-dir", "queries directory", "a directory"),
        ("--marking", "marking file", "a regular file"),
        ("--taxonomy", "taxonomy file", "a regular file"),
    ],
    ids=["vendors", "queries", "marking", "taxonomy"],
)
def test_main_names_a_path_that_is_missing_or_of_the_wrong_kind(
    tmp_path, tmp_marking, capsys, option, kind, noun
):
    args = cli_args(tmp_marking, "--no-update-marking")
    at = args.index(option) + 1
    # a directory where a file belongs, and a file where a directory does
    wrong_kind = tmp_path if noun == "a regular file" else tmp_marking
    for path, fault in (
        (tmp_path / "absent", "does not exist"),
        (wrong_kind, f"is not {noun}"),
    ):
        args[at] = str(path)
        assert main(args) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"vendormatch: error: {kind} {fault}: {path}\n"
        assert captured.out == ""


def test_main_reads_only_regular_files_of_a_corpus(tmp_path, tmp_marking, capsys):
    args = cli_args(tmp_marking, "--no-update-marking", "--output", "json")
    for option in ("--vendors-dir", "--queries-dir"):
        at = args.index(option) + 1
        corpus = shutil.copytree(args[at], tmp_path / option.strip("-"))
        (corpus / "notes.txt").mkdir()
        args[at] = str(corpus)
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == GOLDEN_REPORT.read_text(encoding="utf-8")


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


@pytest.mark.parametrize(
    "phrase, freq",
    [
        ("solar", "1" * 5000),  # too long for int() to parse
        ("energy", "9" * 4300),  # parses, but the run's sum would not print
    ],
    ids=["unparsable", "unprintable"],
)
def test_main_frequency_too_long_is_a_data_error(tmp_marking, capsys, phrase, freq):
    rows = tmp_marking.read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, row in enumerate(rows, 1) if row.startswith(phrase + "\t"))
    rows[lineno - 1] = f"{phrase}\t{freq}"
    tmp_marking.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    before = tmp_marking.read_bytes()
    code = main(cli_args(tmp_marking))
    assert code == EXIT_DATA
    assert capsys.readouterr().err == (
        f"vendormatch: error: {tmp_marking}: line {lineno}: "
        "frequency has more than 18 digits\n"
    )
    assert tmp_marking.read_bytes() == before


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


def test_main_huge_threshold_exits_zero(tmp_path, tmp_marking, capsys):
    # squaring a bound of 1e200 overflows a float; it must not raise. Every
    # candidate is admitted, so a two-file corpus keeps the run short
    corpus = {"vendors": "solar panels and wind turbines", "queries": "solar wind"}
    for kind, text in corpus.items():
        (tmp_path / kind).mkdir()
        (tmp_path / kind / "d.txt").write_text(text, encoding="utf-8")
    code = main(
        [
            "--vendors-dir", str(tmp_path / "vendors"),
            "--queries-dir", str(tmp_path / "queries"),
            "--marking", str(tmp_marking),
            "--taxonomy", str(DATA_DIR / "taxonomy.tsv"),
            "--r-threshold", "1e200",
            "--output", "json",
        ]
    )
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["winner"] is not None


def test_main_prints_a_non_ascii_warning_once_with_its_prefix(tmp_path, tmp_marking):
    vendors = tmp_path / "vendors"
    vendors.mkdir()
    (vendors / "v1.txt").write_text("solar énergie and wind turbines", encoding="utf-8")
    args = [
        "--vendors-dir", str(vendors),
        *cli_args(tmp_marking, "--output", "json", "--no-update-marking")[2:],
    ]
    warning = "vendormatch: warning: replaced 1 non-ascii character(s) with '?'\n"
    cfg = RunConfig(
        vendors,
        DATA_DIR / "queries",
        tmp_marking,
        DATA_DIR / "taxonomy.tsv",
        update_marking=False,
    )
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        expected = emit_report(run(cfg), "json")
    assert err.getvalue() == ""  # run() only counts; main() prints the count
    for _ in range(2):  # the second main() in one process prints it once too
        assert main_output(args) == (EXIT_OK, expected, warning)
    proc = subprocess.run(  # a fresh interpreter prints the same one line
        [sys.executable, "-m", "vendormatch.cli", *args],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_OK, expected.encode(), warning.encode()
    )


def test_main_prints_one_warning_with_the_non_ascii_count_of_every_document(
    tmp_path, tmp_marking
):
    corpus = {
        "vendors": {
            "v1": "solar énergie and wind turbines",  # 1
            "v2": "wind power \u2014 über turbines",  # 2
            "v3": "solar panels",
        },
        "queries": {"q1": "naïve solar \U0001f31e wind", "q2": "solar"},  # 2
    }
    for kind, docs in corpus.items():
        (tmp_path / kind).mkdir()
        for doc_id, text in docs.items():
            (tmp_path / kind / f"{doc_id}.txt").write_text(text, encoding="utf-8")
    cfg = RunConfig(
        tmp_path / "vendors",
        tmp_path / "queries",
        tmp_marking,
        DATA_DIR / "taxonomy.tsv",
        update_marking=False,
    )
    stats = RunStats()
    expected = emit_report(run(cfg, stats), "json")
    assert emit_report(run(cfg), "json") == expected
    assert stats.counts["non_ascii_replaced"] == 5
    args = [
        "--vendors-dir", str(tmp_path / "vendors"),
        "--queries-dir", str(tmp_path / "queries"),
        *cli_args(tmp_marking, "--output", "json", "--no-update-marking")[4:],
    ]
    warning = "vendormatch: warning: replaced 5 non-ascii character(s) with '?'\n"
    assert main_output(args) == (EXIT_OK, expected, warning)


def test_run_stats_sum_the_instances_each_pass_admits(bundled_instance_sets):
    vendor_sets, query_sets = bundled_instance_sets
    stats = RunStats()
    for _ in range(2):  # one RunStats given to two runs holds their sums
        report = run(bundled_config(update_marking=False), stats)
    assert emit_report(report, "json") == GOLDEN_REPORT.read_text(encoding="utf-8")
    assert dict(stats.counts) == {
        "non_ascii_replaced": 0,
        "vendor_instances": 2 * sum(map(len, vendor_sets.values())),
        "query_instances": 2 * sum(map(len, query_sets.values())),
    }


@pytest.mark.parametrize("output", ["text", "json"])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_main_exits_two_quietly_when_the_reader_of_stdout_is_gone(
    tmp_marking, output, unbuffered
):
    # buffered, the text report fits the stdout buffer and fails on the
    # flush, the json report on the write; unbuffered, both fail on the write
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "vendormatch.cli",
             *cli_args(tmp_marking, "--output", output, "--no-update-marking")],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == EXIT_DATA, err
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("vendormatch: error: ") and err.count("\n") == 1


# --------------------------------------------------------- hostile inputs

# any text, non-ASCII included, or a corpus word; either may end in NULs,
# which zero padding gives the codes of the phrase without them
_ROW_TEXT = st.tuples(
    st.one_of(
        st.text(
            st.characters(codec="utf-8", exclude_characters="\t\n\r"), min_size=1, max_size=12
        ),
        st.sampled_from(POOL),
    ),
    st.sampled_from(["", "\x00", "\x00" * 3]),
).map("".join)
_ROWS = st.lists(st.tuples(_ROW_TEXT, st.integers(1, 10**18 - 1).map(str)), max_size=4)


@st.composite
def _taxonomies(draw):
    """Taxonomy file bytes: a random rooted DAG or tree of up to 20 concepts,
    most named after corpus words, the rest ``cNN``."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges, ids = draw(st.sampled_from([random_rooted_dag, random_rooted_tree]))(rng, 20)
    names = dict(zip(ids, rng.sample(POOL, min(len(ids), len(POOL)))))
    return "".join(f"{names.get(c, c)}\t{names.get(p, p)}\n" for c, p in edges).encode()


_DOCS = st.lists(
    st.one_of(
        st.binary(max_size=40),
        st.text(max_size=40).map(str.encode),
        st.lists(st.sampled_from(POOL), max_size=20).map(" ".join).map(str.encode),
    ),
    min_size=1,
    max_size=3,
)
_THRESHOLD = st.sampled_from([None, "5e-324", "1e300"])
# "0.5" and "1" put the ranking filter's tau = 2 wup - 1 at 0 and at 1
_WUP = st.sampled_from([None, "5e-324", "1e300", "0.5", "1"])


def main_output(args):
    """main(args)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def is_utf8(data):
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def non_ascii_count(data):
    """Characters above U+007F in a document's text; one leading BOM is not
    part of it."""
    return sum(ord(ch) > 127 for ch in data.decode("utf-8").removeprefix("\ufeff"))


@settings(max_examples=200, deadline=None)
@given(
    taxonomy=_taxonomies(),
    rows=_ROWS,
    vendor_docs=_DOCS,
    query_docs=_DOCS,
    r=_THRESHOLD,
    fallback=_THRESHOLD,
    wup=_WUP,
)
@example(
    taxonomy=(DATA_DIR / "taxonomy.tsv").read_bytes(),
    rows=[("zebra", "1" * 5000)],  # too long for int() to parse
    vendor_docs=[b"solar panels"],
    query_docs=[b"solar"],
    r=None,
    fallback=None,
    wup=None,
)
def test_main_keeps_its_exit_codes_and_percentages_on_hostile_inputs(
    taxonomy, rows, vendor_docs, query_docs, r, fallback, wup
):
    """main() on a drawn taxonomy, any marking rows, corpus bytes and
    extreme thresholds.

    Exit 0 reports percentages in [0, 100] and prints at most the one
    non-ASCII warning; exit 1 or 2 prints one error line and leaves the
    marking alone. A second run on the marking the first left exits the
    same way.
    """
    with tempfile.TemporaryDirectory() as workdir:
        directory = Path(workdir)
        for kind, docs in (("vendors", vendor_docs), ("queries", query_docs)):
            (directory / kind).mkdir()
            for i, data in enumerate(docs):
                (directory / kind / f"d{i}.txt").write_bytes(data)
        (directory / "taxonomy.tsv").write_bytes(taxonomy)
        marking = directory / "marking.tsv"
        marking.write_bytes(
            (DATA_DIR / "marking.tsv").read_bytes()
            + "".join(f"{phrase}\t{freq}\n" for phrase, freq in rows).encode("utf-8")
        )
        try:
            load_marking(marking)
            expected = EXIT_OK if all(map(is_utf8, vendor_docs + query_docs)) else EXIT_DATA
        except MarkingFormatError:  # a duplicate phrase once lowercased
            expected = EXIT_DATA
        if wup == "1e300":  # the only drawn value outside a threshold's range
            expected = EXIT_USAGE
        thresholds = {
            "--r-threshold": r, "--fallback-threshold": fallback, "--wup-threshold": wup
        }
        args = [
            "--vendors-dir", str(directory / "vendors"),
            "--queries-dir", str(directory / "queries"),
            "--marking", str(marking),
            "--taxonomy", str(directory / "taxonomy.tsv"),
            "--output", "json",
            *(arg for flag, value in thresholds.items() if value for arg in (flag, value)),
        ]
        event(f"exit {expected}")
        before = marking.read_bytes()
        for _ in range(2):  # the second run reads the marking the first grew
            code, out, err = main_output(args)
            assert code == expected, err
            if code == EXIT_OK:
                n = sum(map(non_ascii_count, vendor_docs + query_docs))
                event(f"non-ascii characters: {'some' if n else 'none'}")
                warning = f"replaced {n} non-ascii character(s) with '?'"
                assert err == (f"vendormatch: warning: {warning}\n" if n else "")
                for result in json.loads(out)["results"]:
                    assert 0.0 <= result["match_percentage"] <= 100.0
                    assert all(0.0 <= p <= 100.0 for p in result["per_query"].values())
            else:
                assert out == ""
                assert err.startswith("vendormatch: error: ") and err.count("\n") == 1
                assert marking.read_bytes() == before
