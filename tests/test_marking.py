"""Marking file load/update/save contracts."""

import os
import stat
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vendormatch.marking import (
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
    marking = load_marking(path)
    assert list(marking.items()) == [("energy", 165), ("sun", 37)]


def test_load_lowercases_phrases(tmp_path):
    marking = load_marking(write_marking(tmp_path, "Energy Sources\t24\n"))
    assert marking == {"energy sources": 24}


def test_load_empty_file_is_valid(tmp_path):
    assert load_marking(write_marking(tmp_path, "")) == {}


def test_load_crlf_reads_as_lf(tmp_path):
    path = tmp_path / "marking.tsv"
    path.write_bytes(b"energy\t165\r\nsun\t37\r\n")
    marking = load_marking(path)
    assert list(marking.items()) == [("energy", 165), ("sun", 37)]


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


def test_load_bounds_frequency_digits(tmp_path):
    # int() of more than 4,300 digits raises a plain ValueError, and a count
    # a run grows past that limit would not print on save
    ok = "9" * 18
    assert load_marking(write_marking(tmp_path, f"sun\t{ok}\n")) == {"sun": int(ok)}
    for freq in ("1" + "0" * 18, "0" * 19 + "1", "1" * 5000, "9" * 4300):
        path = write_marking(tmp_path, f"energy\t165\nsun\t{freq}\n")
        with pytest.raises(
            MarkingFormatError, match="line 2: frequency has more than 18 digits$"
        ):
            load_marking(path)


def test_load_duplicate_phrase_rejected(tmp_path):
    # phrases are compared after lowercasing
    path = write_marking(tmp_path, "sun\t37\nwind\t5\nSun\t12\n")
    with pytest.raises(MarkingFormatError, match="line 3: duplicate phrase 'sun'"):
        load_marking(path)


def test_update_appends_new_phrase():
    marking = {"sun": 37}
    update_marking(marking, "Turbine", 3)
    assert list(marking.items()) == [("sun", 37), ("turbine", 3)]


def test_update_accumulates_existing_frequency():
    marking = {"sun": 37}
    update_marking(marking, "sun", 5)
    assert marking == {"sun": 42}


def test_update_rejects_zero_frequency():
    marking = {}
    with pytest.raises(ValueError):
        update_marking(marking, "sun", 0)
    assert marking == {}


@pytest.mark.parametrize("phrase", ["", "solar\tpanel", "wind\nturbine", "hydro\r"])
def test_update_rejects_phrase_the_file_cannot_hold(phrase):
    # Saved, each would make a line that load_marking rejects.
    marking = {"sun": 37}
    with pytest.raises(ValueError, match="phrase is empty or has a tab"):
        update_marking(marking, phrase, 2)
    assert list(marking.items()) == [("sun", 37)]


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
    marking = {"sun": 37}
    expected = Counter({"sun": 37})
    seen_order = ["sun"]
    for phrase, freq in updates:
        if phrase not in expected:
            seen_order.append(phrase)
        expected[phrase] += freq
        update_marking(marking, phrase, freq)
    assert list(marking.items()) == [(p, expected[p]) for p in seen_order]


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
    marking = {"sun": 37, "wind": 33}
    for phrase, freq in updates:
        before = dict(marking)
        update_marking(marking, phrase, freq)
        after = marking
        assert set(before) <= set(after)
        assert all(after[p] >= f for p, f in before.items())


def test_save_round_trip_is_byte_identical(tmp_path):
    original = "energy sources\t24\nenergy\t165\nsun\t37\n"
    path = write_marking(tmp_path, original)
    assert save_marking(load_marking(path), path) == path
    assert path.read_bytes() == original.encode()


def test_save_after_update_reloads_with_update(tmp_path):
    path = write_marking(tmp_path, "sun\t37\n")
    marking = load_marking(path)
    update_marking(marking, "turbine", 3)
    update_marking(marking, "sun", 5)
    save_marking(marking, path)
    assert list(load_marking(path).items()) == [("sun", 42), ("turbine", 3)]


def test_save_keeps_the_file_mode(tmp_path):
    path = write_marking(tmp_path, "sun\t37\n")
    path.chmod(0o640)
    marking = load_marking(path)
    update_marking(marking, "turbine", 3)
    save_marking(marking, path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


@pytest.mark.parametrize(
    ("umask", "mode"), [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"]
)
def test_save_gives_a_new_file_the_umask_mode(tmp_path, umask, mode):
    path = tmp_path / "new.tsv"
    old = os.umask(umask)
    try:
        save_marking({"sun": 1}, path)
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_bytes() == b"sun\t1\n"


def test_save_through_symlink_writes_the_file_it_names(tmp_path):
    target = write_marking(tmp_path, "sun\t37\n")
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    marking = load_marking(link)
    update_marking(marking, "turbine", 3)
    save_marking(marking, link)
    assert link.is_symlink()
    assert target.read_bytes() == b"sun\t37\nturbine\t3\n"


def test_save_to_unwritable_location_leaves_source_intact(tmp_path):
    path = write_marking(tmp_path, "sun\t37\n")
    marking = load_marking(path)
    update_marking(marking, "turbine", 3)
    # parent of the target is a regular file, so the temp file cannot exist
    bogus = path / "nested.tsv"
    with pytest.raises(OSError):
        save_marking(marking, bogus)
    assert path.read_text(encoding="utf-8") == "sun\t37\n"
    assert list(tmp_path.iterdir()) == [path]  # no temp file left behind


def test_save_fsyncs_temp_file_before_rename(tmp_path, monkeypatch):
    path = write_marking(tmp_path, "sun\t37\n")
    marking = load_marking(path)
    update_marking(marking, "turbine", 3)
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
    save_marking(marking, path)
    payload = b"sun\t37\nturbine\t3\n"
    # the whole payload is flushed and synced on the temp file, then renamed
    assert [e[0] for e in events] == ["fsync", "replace"]
    assert events[0][1] == events[1][1]
    assert events[0][2] == len(payload)
    assert events[1][2] == os.fspath(path)
    assert path.read_bytes() == payload


def test_save_load_save_is_stable(tmp_path):
    path = write_marking(tmp_path, "Wind\t33\nsun\t37\n")
    save_marking(load_marking(path), path)
    first = path.read_bytes()
    save_marking(load_marking(path), path)
    assert path.read_bytes() == first
