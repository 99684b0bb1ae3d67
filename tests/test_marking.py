"""Marking file load/update/save contracts."""

import os
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vendormatch.marking import (
    MarkedObject,
    MarkingFile,
    MarkingFormatError,
    load_marking,
    save_marking,
    update_marking,
)


def write_marking(tmp_path, text, name="marking.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_table_sample(tmp_path):
    path = write_marking(tmp_path, "energy\t165\nsun\t37\n")
    mf = load_marking(path)
    assert [(e.phrase, e.frequency) for e in mf.entries] == [
        ("energy", 165),
        ("sun", 37),
    ]
    assert not mf.dirty


def test_load_lowercases_phrases(tmp_path):
    mf = load_marking(write_marking(tmp_path, "Energy Sources\t24\n"))
    assert mf.entries[0].phrase == "energy sources"


def test_load_empty_file_is_valid(tmp_path):
    mf = load_marking(write_marking(tmp_path, ""))
    assert len(mf) == 0


def test_load_crlf_reads_as_lf(tmp_path):
    path = tmp_path / "marking.tsv"
    path.write_bytes(b"energy\t165\r\nsun\t37\r\n")
    mf = load_marking(path)
    assert [(e.phrase, e.frequency) for e in mf.entries] == [
        ("energy", 165),
        ("sun", 37),
    ]


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_marking(tmp_path / "absent.tsv")


@pytest.mark.parametrize(
    "content, lineno",
    [
        ("sun\tabc\n", 1),
        ("energy\t165\nsun 37\n", 2),
        ("energy\t165\nsun\t0\n", 2),
        ("energy\t165\nsun\t-3\n", 2),
        ("energy\t165\n\nsun\t37\n", 2),
        ("energy\t165\n\t7\n", 2),
        # only LF ends a line: another separator stays inside its record
        ("energy\t165\nsun\t37\x1cwind\t2\n", 2),
        ("energy\t165\u2028sun\t37\n", 1),
    ],
)
def test_load_malformed_line_names_line_number(tmp_path, content, lineno):
    path = write_marking(tmp_path, content)
    with pytest.raises(MarkingFormatError, match=f"line {lineno}"):
        load_marking(path)


def test_load_duplicate_phrase_rejected(tmp_path):
    path = write_marking(tmp_path, "sun\t37\nSun\t12\n")
    with pytest.raises(MarkingFormatError, match="duplicate"):
        load_marking(path)


def test_update_appends_new_phrase():
    mf = MarkingFile()
    update_marking(mf, "turbine", 3)
    assert [e.frequency for e in mf.entries if e.phrase == "turbine"] == [3]
    assert mf.dirty


def test_update_accumulates_existing_frequency():
    mf = MarkingFile(entries=[MarkedObject("sun", 37)])
    update_marking(mf, "sun", 5)
    assert [e.frequency for e in mf.entries if e.phrase == "sun"] == [42]


def test_update_rejects_zero_frequency():
    mf = MarkingFile()
    with pytest.raises(ValueError):
        update_marking(mf, "sun", 0)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["sun", "wind", "solar", "grid", "storage"]),
            st.integers(min_value=1, max_value=9),
        ),
        max_size=30,
    )
)
def test_update_replay_matches_counting_oracle(updates):
    mf = MarkingFile(entries=[MarkedObject("sun", 37)])
    expected = Counter({"sun": 37})
    seen_order = ["sun"]
    for phrase, freq in updates:
        if phrase not in expected:
            seen_order.append(phrase)
        expected[phrase] += freq
        update_marking(mf, phrase, freq)
    assert [(e.phrase, e.frequency) for e in mf.entries] == [
        (p, expected[p]) for p in seen_order
    ]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["sun", "wind", "solar"]),
            st.integers(min_value=1, max_value=9),
        ),
        max_size=20,
    )
)
def test_update_growth_is_monotone(updates):
    mf = MarkingFile(entries=[MarkedObject("sun", 37), MarkedObject("wind", 33)])
    for phrase, freq in updates:
        before = {e.phrase: e.frequency for e in mf.entries}
        update_marking(mf, phrase, freq)
        after = {e.phrase: e.frequency for e in mf.entries}
        assert set(before) <= set(after)
        assert all(after[p] >= f for p, f in before.items())


def test_save_round_trip_is_byte_identical(tmp_path):
    original = "energy sources\t24\nenergy\t165\nsun\t37\n"
    path = write_marking(tmp_path, original)
    mf = load_marking(path)
    save_marking(mf)
    assert path.read_bytes() == original.encode()


def test_save_after_update_reloads_with_update(tmp_path):
    path = write_marking(tmp_path, "sun\t37\n")
    mf = load_marking(path)
    update_marking(mf, "turbine", 3)
    update_marking(mf, "sun", 5)
    save_marking(mf)
    assert not mf.dirty
    reloaded = load_marking(path)
    assert [(e.phrase, e.frequency) for e in reloaded.entries] == [
        ("sun", 42),
        ("turbine", 3),
    ]


def test_save_to_unwritable_location_leaves_source_intact(tmp_path):
    path = write_marking(tmp_path, "sun\t37\n")
    mf = load_marking(path)
    update_marking(mf, "turbine", 3)
    # parent of the target is a regular file, so the temp file cannot exist
    bogus = path / "nested.tsv"
    with pytest.raises(OSError):
        save_marking(mf, bogus)
    assert path.read_text(encoding="utf-8") == "sun\t37\n"
    assert mf.dirty  # failed save keeps the dirty flag


def test_save_fsyncs_temp_file_before_rename(tmp_path, monkeypatch):
    path = write_marking(tmp_path, "sun\t37\n")
    mf = load_marking(path)
    update_marking(mf, "turbine", 3)
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", st.st_ino, st.st_size))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino, os.fspath(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    save_marking(mf)
    payload = b"sun\t37\nturbine\t3\n"
    # the whole payload is flushed and synced on the temp file, then renamed
    assert [e[0] for e in events] == ["fsync", "replace"]
    assert events[0][1] == events[1][1]
    assert events[0][2] == len(payload)
    assert events[1][2] == os.fspath(path)
    assert path.read_bytes() == payload


def test_save_load_save_is_stable(tmp_path):
    path = write_marking(tmp_path, "Wind\t33\nsun\t37\n")
    mf = load_marking(path)
    save_marking(mf)
    first = path.read_bytes()
    save_marking(load_marking(path))
    assert path.read_bytes() == first


def test_constructor_rejects_duplicates():
    with pytest.raises(ValueError):
        MarkingFile(entries=[MarkedObject("sun", 1), MarkedObject("SUN", 2)])
