"""Instance extraction against the marking file, including adaptive updates."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import exact_moments, oracle_relatedness, reference_extract
from synth_corpus import POOL, SEED_TERMS, fresh_marking, make_corpus
from vendormatch import extraction
from vendormatch.config import Thresholds
from vendormatch.extraction import InstanceRecord, _MarkedIndex, extract_corpus
from vendormatch.marking import load_marking
from vendormatch.textstats import (
    DEFAULT_STOPWORDS,
    candidates,
    encode,
    relatedness_terms,
    tokenize,
)

DEFAULTS = Thresholds()
#: An index's (r_threshold, bound), bound = max(r_threshold,
#: fallback_threshold), at the defaults, at fallback 0.05, at r 0.2 and at
#: fallback 0.5, where the code-sum window and the distance check prune rows
#: of another length
SETTINGS = [
    (t.r_threshold, max(t.r_threshold, t.fallback_threshold))
    for t in (
        DEFAULTS,
        Thresholds(fallback_threshold=0.05),
        Thresholds(r_threshold=0.2),
        Thresholds(fallback_threshold=0.5),
    )
]


def extract_one(text, marking, thresholds):
    return extract_corpus({"doc": text}, marking, thresholds)["doc"]


def test_exact_marked_phrase_extracted_with_zero_r():
    assert oracle_relatedness("energy", "energy") == 0.0
    marking = {"energy": 165}
    out = extract_one("energy energy, energy; energy!", marking, DEFAULTS)
    assert out.instances["energy"] == InstanceRecord(frequency=4, via_fallback=False)
    assert marking["energy"] == 165 + 4


def test_empty_document_changes_nothing():
    marking = {"energy": 165}
    out = extract_one("", marking, DEFAULTS)
    assert len(out) == 0
    assert marking == {"energy": 165}


def test_empty_marking_extracts_nothing():
    marking = {}
    out = extract_one("solar wind energy", marking, DEFAULTS)
    assert len(out) == 0


def test_near_variant_decision_agrees_with_oracle():
    # fix the oracle values first, then check the admit/reject decisions
    assert oracle_relatedness("sun", "sunny") > DEFAULTS.r_threshold
    assert oracle_relatedness("turbines", "turbiner") < DEFAULTS.r_threshold

    marking = {"sun": 37, "turbines": 12}
    out = extract_one("sunny turbiner", marking, DEFAULTS)
    assert "sunny" not in out.instances
    assert not out.instances["turbiner"].via_fallback
    assert "turbiner" in marking  # adaptive update appended the new instance


def test_fallback_branch_flags_instances():
    # primary bound tightened below the variant's relatedness, fallback above it
    r_variant = oracle_relatedness("turbines", "turbiner")
    cfg = Thresholds(r_threshold=r_variant / 2, fallback_threshold=0.009)
    marking = {"turbines": 12}
    out = extract_one("turbines turbiner", marking, cfg)
    assert not out.instances["turbines"].via_fallback  # exact hit, r == 0
    assert out.instances["turbiner"].via_fallback


def test_instance_record_threshold_invariants():
    # each document's instances are its admitted candidates in lookup order,
    # so the rows each one was looked up against can be rebuilt: the
    # marking before the document and the new instances before it
    docs = make_corpus(random.Random(404), 10)
    for thresholds in (DEFAULTS, Thresholds(fallback_threshold=0.05)):
        marking = fresh_marking()
        for doc in docs.values():
            rows = list(marking)
            out = extract_one(doc, marking, thresholds)
            for phrase, rec in out.instances.items():
                best = min(oracle_relatedness(row, phrase) for row in rows)
                assert best < max(thresholds.r_threshold, thresholds.fallback_threshold)
                assert rec.via_fallback == (best >= thresholds.r_threshold)
                assert rec.frequency >= 1
                if phrase not in rows:
                    rows.append(phrase)


def test_duplicate_occurrences_aggregate_frequency():
    marking = {"turbines": 12}
    out = extract_one("turbiner ... turbiner", marking, DEFAULTS)
    assert out.instances["turbiner"].frequency == 2
    assert marking["turbiner"] == 2


def test_within_document_adaptive_chaining():
    # 'turbinew' is too far from the seed but close to 'turbineu', which the
    # seed admits first; updates mid-document make the chain reachable
    assert oracle_relatedness("turbines", "turbineu") < DEFAULTS.r_threshold
    assert oracle_relatedness("turbines", "turbinew") > DEFAULTS.r_threshold
    assert oracle_relatedness("turbineu", "turbinew") < DEFAULTS.r_threshold

    r = DEFAULTS.r_threshold
    assert _MarkedIndex({"turbines": 12}, r, r).admit(encode("turbinew")) is None
    marking = {"turbines": 12}
    out = extract_one("turbineu then turbinew", marking, DEFAULTS)
    assert out.instances["turbineu"] == out.instances["turbinew"] == InstanceRecord(1, False)
    assert list(marking) == ["turbines", "turbineu", "turbinew"]

    # reversed order: 'turbinew' is scored before the stepping stone exists
    marking2 = {"turbines": 12}
    out2 = extract_one("turbinew then turbineu", marking2, DEFAULTS)
    assert "turbinew" not in out2.instances
    assert "turbineu" in out2.instances


def searched_phrases(monkeypatch):
    """The phrases whose lookups reach a search.

    A search reads the candidate's code points and their sum S
    (``_points``); a remembered miss and an early miss return before that.
    Calls from append, for the new row, are not counted.
    """
    searched = []
    points = extraction._points

    def counted_points(phrase):
        if sys._getframe(1).f_code is _MarkedIndex.admit.__code__:
            searched.append(phrase)
        return points(phrase)

    monkeypatch.setattr(extraction, "_points", counted_points)
    return searched


def test_a_missed_phrase_is_looked_up_once_per_gazetteer_state(monkeypatch):
    looked_up = searched_phrases(monkeypatch)
    # nothing is admitted, so the second document makes no lookup. A far row
    # of each candidate's own length takes every first lookup past the
    # early miss, so each one is searched
    text = "solau wind solau and turbinew"
    marking = {"solar": 1}
    marking.update((" " * len(phrase), 1) for phrase in candidates(tokenize(text)))
    out = extract_corpus({"a": text, "b": text}, marking, DEFAULTS)
    assert not out["a"].instances and not out["b"].instances
    assert looked_up == list(candidates(tokenize(text)))

    # 'b' admits 'solat', a new row that brings 'solau' under the bound
    looked_up.clear()
    out = extract_corpus({"a": "solau", "b": "solat", "c": "solau"}, marking, DEFAULTS)
    assert looked_up == ["solau", "solat", "solau"]
    assert not out["a"].instances
    assert out["b"].instances["solat"] == out["c"].instances["solau"] == InstanceRecord(1, False)


@pytest.mark.parametrize(
    ("row", "candidate", "searched", "hit"),
    [
        ("a", "ba", False, False),
        ("a", "aba", True, False),
        ("sun\x00", "sun", True, True),
        ("sun", "sun\x01", True, True),
    ],
)
def test_a_lookup_no_row_can_answer_returns_before_its_moments(
    monkeypatch, row, candidate, searched, hit
):
    # At 0.5 the length cut of n characters is n * (127 * 0.5)**2, about
    # 4,032 n. No candidate here has a row of its own length. 'ba' ends in
    # 'a', whose square, 9,409, reaches the cut at n = 2, so the shorter rows
    # are cut. 'aba' ends in the same 'a', inside [2, 3) cuts: its search
    # reaches length 2, which has no row, and misses. 'sun' has no
    # shorter row in play ('n' squared is 12,100), but 'sun\x00' is a longer
    # row with no tail past 3; 'sun\x01' ends low enough to keep 'sun' in
    # play. Those two score 0.37 and lie in the code-sum window
    looked_up = searched_phrases(monkeypatch)
    vec = encode(candidate)
    got = _MarkedIndex({row: 1}, 0.5, 0.5).admit(vec)
    assert got == scan_admit([row], vec, 0.5, 0.5)
    assert (got is not None) == hit
    assert looked_up == [candidate] * searched


def test_tied_marked_objects_admit_the_candidate():
    # 'aa' differs from 'ab' and 'ba' by one code point at mirrored positions
    assert oracle_relatedness("ab", "aa") == oracle_relatedness("ba", "aa")
    assert oracle_relatedness("ab", "aa") < DEFAULTS.r_threshold
    # exact kernel ties also between rows of one length but different
    # stddevs and code sums (a bucket sorted by code sum lists them the other
    # way round) and between rows of different lengths (in different
    # buckets). The non-ASCII rows differ from the candidate by one code
    # point, up and down. At thresholds one step above the tied score either
    # row answers; at the score itself neither does
    for phrase, tied in (
        ("aa", ("ab", "ba")),
        ("ab", ("ac", "aa")),
        ("\x02\x01", ("\x02", "\x01\x01")),
        ("\u06bb\u030d", ("\u06bc\u030d", "\u06ba\u030d")),
    ):
        vec = encode(phrase)
        r = scan(list(tied), vec)
        assert r[0] == r[1] < DEFAULTS.r_threshold
        up = math.nextafter(r[0], math.inf)
        for order in (tied, tied[::-1]):
            for threshold, bound, expected in (
                (DEFAULTS.r_threshold, DEFAULTS.r_threshold, False),
                (up, up, False),
                (r[0], up, True),
                (r[0], r[0], None),
            ):
                index = _MarkedIndex(dict.fromkeys(order, 1), threshold, bound)
                assert index.admit(vec) is scan_admit(order, vec, threshold, bound) is expected
            if phrase.isalpha():
                out = extract_one(phrase, dict.fromkeys(order, 1), DEFAULTS)
                assert out.instances[phrase] == InstanceRecord(1, False)


def test_extract_corpus_orders_and_keys():
    marking = {"energy": 165}
    docs = {"b": "energy", "a": "energy energy", "c": ""}
    out = extract_corpus(docs, marking, DEFAULTS)
    assert list(out) == ["a", "b", "c"]
    assert out["a"].instances["energy"].frequency == 2
    assert len(out["c"]) == 0


def test_extract_corpus_empty():
    assert extract_corpus({}, {}, DEFAULTS) == {}


def test_extraction_is_deterministic():
    rng = random.Random(99)
    docs = make_corpus(rng, 6)

    def run():
        marking = fresh_marking()
        sets = extract_corpus(docs, marking, DEFAULTS)
        return (
            {d: list(s.instances.items()) for d, s in sets.items()},
            list(marking.items()),
        )

    assert run() == run()


def test_threshold_monotonicity_nested_instance_sets():
    rng = random.Random(2718)
    docs = make_corpus(rng, 12)
    results = {}
    for r_threshold in (0.005, 0.01, 0.02):
        sets = extract_corpus(
            docs, fresh_marking(), Thresholds(r_threshold=r_threshold)
        )
        results[r_threshold] = {d: set(s.instances) for d, s in sets.items()}
    for doc_id in docs:
        assert results[0.005][doc_id] <= results[0.01][doc_id]
        assert results[0.01][doc_id] <= results[0.02][doc_id]


def test_marking_covers_every_extracted_instance():
    rng = random.Random(314)
    marking = fresh_marking()
    sets = extract_corpus(make_corpus(rng, 8), marking, DEFAULTS)
    for instance_set in sets.values():
        for phrase in instance_set.instances:
            assert phrase in marking


def test_batch_scoring_agrees_with_oracle():
    # an infinite bound admits every candidate, and the flag tells whether
    # the nearest row lies under r_threshold; no word's lies within 1e-6 of it
    rng = random.Random(55)
    pool = ["sun", "wind", "solar energy", "turbines", "grid", "storage unit"]
    r = DEFAULTS.r_threshold
    index = _MarkedIndex(dict.fromkeys(pool, 1), r, math.inf)
    words = pool + ["sunny", "turbiner", "zzz", "a", "speed of wind", "xylophone"]
    nearest = {w: min(oracle_relatedness(p, w) for p in pool) for w in words}
    assert all(abs(best - r) > 1e-6 for best in nearest.values())
    assert {best < r for best in nearest.values()} == {True, False}
    for _ in range(200):
        phrase = rng.choice(words)
        assert index.admit(encode(phrase)) == (nearest[phrase] >= r)


def scan(phrases, vec):
    """Relatedness of ``vec`` to every row, one pair at a time."""
    r = []
    for phrase in phrases:
        dist, gap, variance = relatedness_terms(encode(phrase), vec)
        r.append(dist + gap + variance)
    return r


def scan_admit(phrases, vec, r_threshold, bound):
    """Plain lookup: every row scored; None when none scores under ``bound``,
    else whether none scores under ``r_threshold`` (admitted via the fallback).
    """
    best = min(scan(phrases, vec))
    if best >= bound:
        return None
    return best >= r_threshold


# control characters have codes near 0, so rows of other lengths and far
# stddevs keep low relatedness and the cheap bounds get little to prune
index_chars = st.sampled_from("\x01\x02\x1f aelnrstz09")
index_phrases = st.text(alphabet=index_chars, min_size=1, max_size=40)


@st.composite
def lookups(draw, rows):
    """A phrase near one of ``rows`` or anywhere, and thresholds to look it up at.

    Returns the phrase's vector, ``r_threshold`` and ``bound``, with
    ``0 < r_threshold <= bound``.
    """
    phrase = draw(st.one_of(index_phrases, st.sampled_from(rows)))
    edit = draw(st.sampled_from(["none", "nudge", "append", "drop"]))
    at = draw(st.integers(min_value=0, max_value=len(phrase) - 1))
    if edit == "nudge":
        nudged = chr(max(1, ord(phrase[at]) + draw(st.sampled_from([-1, 1]))))
        phrase = phrase[:at] + nudged + phrase[at + 1 :]
    elif edit == "append":
        phrase += draw(index_chars)
    elif edit == "drop" and len(phrase) > 1:
        phrase = phrase[:at] + phrase[at + 1 :]
    vec = encode(phrase)
    # just above or below a row's score, where a loose threshold would prune
    # that row: between two scores, r_threshold puts the nearer row under it
    # and the other in the fallback band
    scores = [r for r in scan(rows, vec) if r > 0.0] or [1.0]
    threshold = st.one_of(
        st.floats(min_value=-4.0, max_value=0.0).map(lambda e: 10.0**e),
        st.just(math.inf),
        st.tuples(st.sampled_from(scores), st.floats(min_value=0.9, max_value=1.1)).map(
            lambda pair: pair[0] * pair[1]
        ),
    )
    bound = draw(threshold)
    r_threshold = draw(st.one_of(st.just(bound), threshold))
    return vec, min(r_threshold, bound), bound


def drawn_thresholds(rng, scores, anywhere):
    """``(r_threshold, bound)``, each near a positive score or ``anywhere()``."""
    scores = [r for r in scores if r > 0.0]

    def threshold():
        if scores and rng.random() < 0.5:
            return rng.choice(scores) * rng.uniform(0.9, 1.1)
        return anywhere()

    bound = threshold()
    return (bound if rng.random() < 0.3 else min(threshold(), bound)), bound


def setting_indexes(rows):
    """One index of ``rows`` at each of SETTINGS, with its thresholds."""
    return [(_MarkedIndex(dict.fromkeys(rows, 1), r, bound), r, bound) for r, bound in SETTINGS]


def append_row(rows, indexes, phrase):
    rows.append(phrase)
    for index, *_ in indexes:
        index.append(encode(phrase))


@settings(max_examples=150, deadline=None)
@given(
    marking=st.lists(index_phrases, min_size=1, max_size=12, unique=True),
    data=st.data(),
)
def test_pruned_lookup_equals_full_scan(marking, data):
    # the indexes at the setting bounds grow row by row; one at the drawn
    # bound is built for its lookup
    rows = list(marking)
    indexes = setting_indexes(rows)
    for step in range(data.draw(st.integers(min_value=1, max_value=8))):
        if step == 2:  # a row longer than every row so far
            append_row(rows, indexes, max(rows, key=len) + data.draw(index_phrases))
        vec, r, bound = data.draw(lookups(rows))
        drawn = _MarkedIndex(dict.fromkeys(rows, 1), r, bound)
        for index, r, bound in [(drawn, r, bound), *indexes]:
            assert index.admit(vec) == scan_admit(rows, vec, r, bound)
        if data.draw(st.booleans()):
            append_row(rows, indexes, data.draw(index_phrases))


def test_pruned_lookup_equals_full_scan_on_seeded_markings():
    # the same comparison as above in a plain loop: thousands of lookups in
    # well under a second, where off-by-one bounds show up many times over
    rng = random.Random(2024)
    alphabet = "\x01\x02\x1f aelnrstz09"

    def phrase():
        return "".join(rng.choices(alphabet, k=rng.randint(1, rng.choice([3, 8, 40]))))

    for _ in range(500):
        rows = list(dict.fromkeys(phrase() for _ in range(rng.randint(1, 12))))
        indexes = setting_indexes(rows)
        for _ in range(6):
            probe = rng.choice(rows) if rng.random() < 0.7 else phrase()
            at = rng.randrange(len(probe))
            edit = rng.random()
            if edit < 0.25:
                nudged = chr(max(1, ord(probe[at]) + rng.choice([-1, 1])))
                probe = probe[:at] + nudged + probe[at + 1 :]
            elif edit < 0.5:
                probe += rng.choice(alphabet)
            elif edit < 0.75 and len(probe) > 1:
                probe = probe[:at] + probe[at + 1 :]
            vec = encode(probe)
            r, bound = drawn_thresholds(
                rng, scan(rows, vec), lambda: 10.0 ** rng.uniform(-4.0, 0.0)
            )
            drawn = _MarkedIndex(dict.fromkeys(rows, 1), r, bound)
            for index, r, bound in [(drawn, r, bound), *indexes]:
                assert index.admit(vec) == scan_admit(rows, vec, r, bound)
            if rng.random() < 0.5:
                append_row(rows, indexes, phrase())


def test_mean_bound_at_the_edges_of_bound():
    # one code shift keeps the stddev: 'de' and 'bc' share a bucket and a
    # stddev, tie exactly against 'cd' and differ only in their code sums.
    # With a gap of 0 their distance check is their mean term alone
    vec = encode("cd")
    rows = ["de", "bc"]
    assert encode("de").stddev == encode("bc").stddev
    r = scan(rows, vec)[0]
    assert scan(rows, vec) == [r, r]
    # summed in another order than the kernel's, the mean term of 'de',
    # which at a gap of 0 is also its exact distance term, lands 33 ulps
    # above its score: only the slack keeps it in play
    row = encode("de")
    mean = abs(math.fsum(row.codes) - math.fsum(vec.codes)) / 2
    assert mean + abs(row.stddev - vec.stddev) > math.nextafter(r, math.inf)
    just_in = (math.nextafter(r, math.inf), r * (1 + 1e-9), math.inf)
    just_out = (r * (1 - 1e-6), math.nextafter(r, 0.0), r)
    for bound in just_in + just_out:
        for order in (rows, rows[::-1]):
            got = _MarkedIndex(dict.fromkeys(order, 1), bound, bound).admit(vec)
            assert got == scan_admit(order, vec, bound, bound)
            assert (got is None) == (bound in just_out)


@pytest.mark.parametrize(
    ("row", "candidate", "bound"),
    [("0000", "zzzzz", 0.66), ("ca", "ac", 0.015)],
    ids=["other-length", "own-length"],
)
def test_row_bound_alone_keeps_a_row_from_the_kernel(monkeypatch, row, candidate, bound):
    # other length: the tail of 'zzzzz', 122**2 = 14,884, is under the length
    # cut of 5 * (127 * 0.66)**2 = 35,131, and the mean term (5 * 122 - 4 *
    # 48) / (127 * 5) = 0.658 puts '0000' inside the code-sum window at 0.66:
    # only the distance check, its exact distance term sqrt(4 * 74**2 +
    # 122**2) / (127 sqrt(5)) = 0.675, prunes the row.
    # Own length: 'ca' mirrors 'ac', so their code sums are equal and their
    # stddev gap is 0; their distance term, 2 / 127 = 0.0157, is 98% of the
    # pair's score, 0.0160, the rest being the variance 4 / 127**2. Only the
    # distance check prunes the row at 0.015
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return relatedness_terms(a, b)

    monkeypatch.setattr(extraction, "relatedness_terms", counted)
    assert _MarkedIndex({row: 1}, bound, bound).admit(encode(candidate)) is None
    assert calls == 0
    assert _MarkedIndex({row: 1}, 0.7, 0.7).admit(encode(candidate)) is not None
    assert calls == 1


@pytest.mark.parametrize(
    ("candidate", "rows"),
    [
        ("#&'", ["%()", "!$%", "%(*", "!$$"]),
        ("\u033e\u043d", ["\u033f\u043e", "\u033d\u043c", "\u033f\u043f", "\u033c\u043c"]),
        ("\x00", ["\x01\x01", "\x02\x01"]),
    ],
    ids=["own-length", "own-length-non-ascii", "other-length"],
)
def test_code_sum_window_at_the_edges_of_bound(candidate, rows):
    # rows[0] is the candidate a few codes up everywhere, padded with that
    # code at another length: a constant difference vector, so its score is
    # the mean term m = |S_row - S_cand| / (127 L) alone, which the kernel's
    # rounding puts a few ulps under m. At a bound just above that score the
    # row lies just inside its code-sum window, and the rows whose code sums
    # lie one further off lie just outside it; at the edge bound the window
    # ends at rows[0]. In the first case the window's float ends, near S,
    # are fine enough that an unwidened window would leave rows[0] out. At
    # the own length rows[1] is the mirror of rows[0], and ties with it in
    # the non-ASCII case
    vec = encode(candidate)
    size = max(len(candidate), len(rows[0]))
    m = abs(sum(map(ord, rows[0])) - sum(map(ord, candidate))) / (127 * size)
    r = scan(rows, vec)[0]
    assert m * (1 - 1e-14) < r < m
    edge = extraction._slack(size) * (m - 2 * extraction._KEY_SLACK)
    for bound in (r, math.nextafter(r, math.inf), edge, math.nextafter(edge, math.inf), 0.5):
        for order in (rows, rows[::-1]):
            got = _MarkedIndex(dict.fromkeys(order, 1), bound, bound).admit(vec)
            assert got == scan_admit(order, vec, bound, bound)
            assert (got is None) == (bound <= r)


def sums_apart(monkeypatch, row, shift):
    """Read ``row``'s code sum ``shift`` high and every other phrase's ``shift`` low."""
    points = extraction._points

    def apart(phrase):
        codes, total = points(phrase)
        return codes, total + (shift if phrase == row else -shift)

    monkeypatch.setattr(extraction, "_points", apart)


@pytest.mark.parametrize("slack", [extraction._KEY_SLACK, 0.01], ids=["slack", "wide-slack"])
@pytest.mark.parametrize(
    ("candidate", "row"), [("de", "ef"), ("\x00", "\x01\x01")], ids=["own-length", "other-length"]
)
def test_code_sums_off_by_half_the_slack_change_no_answer(monkeypatch, slack, candidate, row):
    # the row's score is its mean term alone (above). Code sums moved apart
    # until that term, read from them, is half the slack over the kernel's
    # must still leave the row in its code-sum window
    monkeypatch.setattr(extraction, "_KEY_SLACK", slack)
    sums_apart(monkeypatch, row, 127 * max(len(candidate), len(row)) * slack / 4)
    vec = encode(candidate)
    r = scan([row], vec)[0]
    bounds = (math.nextafter(r, math.inf), r * (1 + 1e-12), r, 0.5, math.inf)
    for threshold, bound in [(b, b) for b in bounds] + SETTINGS:
        got = _MarkedIndex({row: 1}, threshold, bound).admit(vec)
        assert got == scan_admit([row], vec, threshold, bound)


def test_length_cut_at_the_edges_of_bound(monkeypatch):
    # The length bound sqrt(T / L) / 127 is never a real pair's whole score:
    # padding makes the difference vector uneven, and the variance term adds
    # about 1 / (127 L) of it even for one code-1 character against L of
    # them, far outside the slack (1e-9 plus 3 * L * 2**-53) for any phrase
    # of practical length.
    # So a kernel and a code-point distance whose float sums undercut that
    # bound by half the slack stand in (here the distance term is the length
    # bound): the cut must still leave the row in play, whichever side is
    # the longer one
    short, long = "\x01", "\x01" * 40
    edge = math.sqrt(39 / 40) / 127
    assert scan([long], encode(short))[0] > edge * (1 + 1e-4)
    r = edge * (1 - 5e-10)
    monkeypatch.setattr(extraction, "relatedness_terms", lambda a, b: (r, 0.0, 0.0))
    monkeypatch.setattr(extraction, "_distance", lambda p, q: math.dist(p, q) * (1 - 5e-10))
    just_in = (math.nextafter(r, math.inf), r * (1 + 1e-12), edge, math.inf)
    just_out = (r, math.nextafter(r, 0.0), r * (1 - 1e-9))
    for candidate, row in ((short, long), (long, short)):
        for bound in just_in + just_out:
            got = _MarkedIndex({row: 1}, bound, bound).admit(encode(candidate))
            assert got is (None if bound in just_out else False)


def counted_kernel(monkeypatch):
    """A list that grows by one entry per kernel call made from now on."""
    calls = []

    def counted(a, b):
        calls.append((a.phrase, b.phrase))
        return relatedness_terms(a, b)

    monkeypatch.setattr(extraction, "relatedness_terms", counted)
    return calls


@pytest.mark.parametrize(
    ("candidate", "row"),
    [
        ("ac", "hj"),
        ("\u03e8\u044c", "\u044c\u04b0"),
        ("\x00", "\x01\x01"),
        ("\x01\x01", "\x00"),
    ],
    ids=[
        "own-length",
        "own-length-non-ascii",
        "other-length-padded-candidate",
        "other-length-padded-row",
    ],
)
def test_distance_check_at_the_edges_of_bound(monkeypatch, candidate, row):
    # Each row's distance check, d, is its score to a few ulps: at the own
    # length the row is the candidate shifted by 7 or 100 code points, and
    # at other lengths the zero-padded difference vector is constant too, so
    # there is no gap and no variance. So the check alone decides at a
    # bound whose edge, bound / _slack + 2 _KEY_SLACK, is near the score:
    # just inside that widening the row is scored, just outside it is not.
    # At the score and one ulp above it the answers are the scan's
    calls = counted_kernel(monkeypatch)
    vec = encode(candidate)
    r = scan([row], vec)[0]
    widened = extraction._slack(max(len(candidate), len(row))) * (r - 2 * extraction._KEY_SLACK)
    for bound, scored in (
        (r, 1),
        (math.nextafter(r, math.inf), 1),
        (widened * (1 + 1e-12), 1),
        (widened * (1 - 1e-12), 0),
    ):
        calls.clear()
        got = _MarkedIndex({row: 1}, bound, bound).admit(vec)
        assert got == scan_admit([row], vec, bound, bound)
        assert len(calls) == scored


def test_distance_check_keeps_a_row_exactly_at_its_edge(monkeypatch):
    # 'de' is 'cd' one code up: no gap, no variance, a distance term of
    # 1 / 127 and a score under 0.01. A distance read as exactly the edge,
    # 0.01 / _slack + 2 _KEY_SLACK, keeps the row (the check skips only
    # above it), and one read a step past the edge does not. d is D / (127
    # sqrt(2))
    vec = encode("cd")
    index = _MarkedIndex({"de": 1}, 0.01, 0.01)
    edge = index._limit + 2 * extraction._KEY_SLACK
    root = 127 * math.sqrt(2)
    at = edge * root
    while at / root > edge:
        at = math.nextafter(at, 0.0)
    while at / root < edge:
        at = math.nextafter(at, math.inf)
    past = math.nextafter(at, math.inf)
    while past / root == edge:
        past = math.nextafter(past, math.inf)
    assert at / root == edge < past / root
    for distance, expected in ((at, scan_admit(["de"], vec, 0.01, 0.01)), (past, None)):
        monkeypatch.setattr(extraction, "_distance", lambda p, q: distance)
        assert index.admit(vec) is expected


@pytest.mark.parametrize(
    ("candidate", "rows"),
    [("cd", ["ab", "de"]), ("\x01\x01", ["\x03\x03", "\x00"])],
    ids=["same-bucket", "later-bucket"],
)
def test_r_threshold_edge_after_a_fallback_row(monkeypatch, candidate, rows):
    # rows[0] is walked first (a lower code sum, or the candidate's own
    # length) and scores twice rows[1]'s, in the fallback band of a bound of
    # 0.05; from then on the search is narrowed to r_threshold. rows[1]'s
    # difference vector is constant, so its distance check is its score to
    # a few ulps: at r_threshold one step above that score it admits the
    # candidate as primary, at the score it does not. Just inside the
    # widened r_threshold edge it is scored, just outside it is not
    calls = counted_kernel(monkeypatch)
    vec = encode(candidate)
    first, second = scan(rows, vec)
    assert first == pytest.approx(2 * second) and first < 0.05
    widened = extraction._slack(2) * (second - 2 * extraction._KEY_SLACK)
    for r, scored, expected in (
        (math.nextafter(second, math.inf), 2, False),
        (second, 2, True),
        (math.nextafter(second, 0.0), 2, True),
        (widened * (1 + 1e-12), 2, True),
        (widened * (1 - 1e-12), 1, True),
    ):
        calls.clear()
        got = _MarkedIndex(dict.fromkeys(rows, 1), r, 0.05).admit(vec)
        assert got is scan_admit(rows, vec, r, 0.05) is expected
        assert [row for row, _ in calls] == rows[:scored]


def test_distance_check_leaves_room_for_the_variance_loss(monkeypatch):
    # The kernel's variance s2 / n - (s1 / n)**2 cancels, and its float
    # value may fall (3 n + 8) u s2 / n short of the exact one. 100,000 code
    # points alternating 1000 and 1002, against their doubles plus 11,700,
    # make that loss larger than the slack: the difference vector is the
    # candidate shifted by 11,700, so its variance is (1 / 127)**2, and d is
    # about 100. The distance check reads no variance, so a kernel whose
    # variance falls short by the whole loss must still see the row answer
    # at one ulp above that score
    n = 100_000
    candidate = "\u03e8\u03ea" * (n // 2)
    row = "".join(chr(2 * ord(ch) + 11_700) for ch in candidate)
    vec = encode(candidate)
    dist, gap, variance = relatedness_terms(encode(row), vec)
    loss = (3 * n + 8) * 2.0**-53 * dist * dist
    r = dist + gap + (variance - loss)
    assert loss > (1 - extraction._slack(n)) * r + 2 * extraction._KEY_SLACK
    monkeypatch.setattr(extraction, "relatedness_terms", lambda a, b: (dist, gap, variance - loss))
    for bound, expected in ((math.nextafter(r, math.inf), False), (r, None)):
        assert _MarkedIndex({row: 1}, bound, bound).admit(vec) is expected


def test_marked_candidate_after_rows_of_its_length_matches_itself():
    # a candidate that is a row scores 0.0 against it, under any r_threshold
    marking = {"sum": 1, "run": 1, "sup": 1, "sun": 1, "tun": 1}
    for r, bound in [(DEFAULTS.r_threshold, 0.05), (5e-324, math.inf), *SETTINGS]:
        assert _MarkedIndex(marking, r, bound).admit(encode("sun")) is False
        assert scan_admit(list(marking), encode("sun"), r, bound) is False
    out = extract_one("sun", dict(marking), DEFAULTS)
    assert out.instances["sun"] == InstanceRecord(1, False)
    assert_equals_reference({"d": "sun sums run sun"}, dict(marking), DEFAULTS)


def test_nul_padded_row_before_the_candidate_row():
    # zero padding gives 'sun\x00' the codes of 'sun': the distance is 0
    # and only the stddev gap keeps it from scoring 0.0
    marking = {"sun\x00": 1, "sun": 1}
    assert scan(list(marking), encode("sun"))[0] > 0.0
    assert _MarkedIndex(marking, 1.0, 1.0).admit(encode("sun")) is False
    assert_equals_reference({"d": "sun"}, dict(marking), DEFAULTS)
    # 'b1' and 'b1' with 16 NULs have the same stddev to the last bit, so
    # each scores exactly 0.0 against the other, as against itself: either
    # row admits either candidate under any r_threshold, also where the
    # candidate is not a row and a search must find the other. A bound
    # whose square underflows must still keep a tail of NULs only
    padded = "b1" + "\x00" * 16
    assert scan([padded], encode("b1")) == [0.0]
    tiny = Thresholds(r_threshold=1e-200, fallback_threshold=1e-200)
    edges = [(b, b) for b in (DEFAULTS.r_threshold, math.inf, 1e-200, 5e-324)]
    for order in ([padded, "b1"], ["b1", padded], [padded], ["b1"]):
        marking = dict.fromkeys(order, 1)
        for candidate in (padded, "b1"):
            vec = encode(candidate)
            for r, bound in edges + SETTINGS:
                assert _MarkedIndex(marking, r, bound).admit(vec) is False
                assert scan_admit(order, vec, r, bound) is False
        for thresholds in (DEFAULTS, tiny):
            out = extract_one("b1", dict(marking), thresholds)
            assert out.instances["b1"] == InstanceRecord(1, False)


@pytest.mark.parametrize(
    ("thresholds", "most"),
    [
        (DEFAULTS, 4),
        (Thresholds(fallback_threshold=0.05), 268),
        (Thresholds(r_threshold=0.3, fallback_threshold=0.5), 3_290),
    ],
    ids=["defaults", "fb0.05", "loose"],
)
def test_bundled_extraction_scores_few_rows(
    monkeypatch, tmp_marking, bundled_corpus, thresholds, most
):
    # a full scan of the bundled corpus makes 1,326 kernel calls at the
    # defaults and 6,429 at fallback 0.05; pruning and the stop at the first
    # score under r_threshold keep 2 and 268, and the kernel scores each of
    # them in full. At r 0.3 / fallback 0.5 the length cut keeps longer
    # rows, each bucket visited once per lookup: 3,290 calls
    calls = scored = 0

    def counted(a, b):
        nonlocal calls, scored
        calls += 1
        terms = relatedness_terms(a, b)
        scored += terms is not None
        return terms

    monkeypatch.setattr(extraction, "relatedness_terms", counted)
    marking = load_marking(tmp_marking)
    for docs in bundled_corpus.values():
        assert extract_corpus(docs, marking, thresholds)
    assert 0 < calls <= most
    assert scored == calls  # no pair is abandoned part way


@pytest.mark.parametrize(
    ("thresholds", "most", "most_stddevs"),
    [(DEFAULTS, 10, 10), (Thresholds(fallback_threshold=0.05), 222, 222)],
    ids=["defaults", "fb0.05"],
)
def test_bundled_extraction_builds_few_codes(
    monkeypatch, tmp_marking, bundled_corpus, thresholds, most, most_stddevs
):
    # every candidate and marked phrase is encoded (1,412 vectors at the
    # defaults, 1,463 at fallback 0.05), but a vector builds its codes and
    # its fsum stddev, which it then keeps in its __dict__, only when the
    # kernel scores it: 4 and 222 vectors do
    vectors = []

    def kept(phrase):
        vectors.append(encode(phrase))
        return vectors[-1]

    monkeypatch.setattr(extraction, "encode", kept)
    marking = load_marking(tmp_marking)
    for docs in bundled_corpus.values():
        assert extract_corpus(docs, marking, thresholds)
    assert len(vectors) > 1_400
    assert 0 < sum("codes" in vars(v) for v in vectors) <= most
    assert 0 < sum("stddev" in vars(v) for v in vectors) <= most_stddevs


def hostile_phrase(rng, length):
    """Control characters, [a-z0-9 ] or any code point, ``length`` of them."""
    kind = rng.randrange(3)
    if kind == 0:
        return "".join(chr(rng.randint(0, 31)) for _ in range(length))
    if kind == 1:
        return "".join(rng.choices("abcdefghijklmnopqrstuvwxyz0123456789 ", k=length))
    return "".join(chr(rng.randint(0, 0x10FFFF)) for _ in range(length))


def test_integer_moment_keys_stay_far_inside_the_slack():
    # the code sum S stands in for the kernel's float codes in the code-sum
    # window; the gap of S / (127 n) to their mean must stay at least 100x
    # below the slack that widens the bounds
    rng = random.Random(1711)
    phrases = [hostile_phrase(rng, rng.choice([1, 2, 7, 40, 400, 4_000])) for _ in range(300)]
    phrases += [
        chr(0x10FFFF) * 4_000,  # a stddev of exactly 0 from the integer moments
        (chr(0x10FFFF) + "\x00") * 2_000,  # the largest stddev there is
        chr(0x10FFFF) * 3_999 + chr(0x10FFFE),
        "\x01" * 4_000,
        "z",
    ]
    worst_mean = 0.0
    for phrase in phrases:
        _, total = extraction._points(phrase)
        codes = encode(phrase).codes
        worst_mean = max(worst_mean, abs(total / 127 - math.fsum(codes)) / len(phrase))
    assert worst_mean * 100 <= extraction._KEY_SLACK


def test_code_point_distance_stays_within_its_assumed_error():
    # the distance check takes _distance on integer code points to be within
    # 4 u (u = 2**-53) of the exact Euclidean distance, here the square root
    # of the integer sum of squares to 80 bits, from math.isqrt. ASCII, any
    # code point and NUL-padded sides, up to past a million characters
    rng = random.Random(1994)
    for length in (1, 2, 3, 7, 40, 401, 4_000, 1_000_003):
        for top in (127, 0x10FFFF):
            for _ in range(40 if length < 1_000 else 1):
                a = rng.choices(range(top + 1), k=length)
                b = rng.choices(range(top + 1), k=length)
                cut = rng.randint(0, length)
                padded = b[:cut] + [0] * (length - cut)
                near = [min(top, x + (i & 1)) for i, x in enumerate(a)]
                for other in (b, padded, near):
                    got = extraction._distance(a, other)
                    squares = sum((x - y) * (x - y) for x, y in zip(a, other))
                    exact = Fraction(math.isqrt(squares << 160), 1 << 80)
                    err = abs(Fraction(got) - exact)
                    assert err <= Fraction(2**-51) * exact + Fraction(1, 1 << 80)


def test_moments_equal_the_exact_integer_moments():
    # ASCII phrases are read from their bytes, others by code point: both
    # must give the code points and the sum of plain integer loops
    rng = random.Random(2310)
    phrases = [hostile_phrase(rng, rng.choice([1, 2, 7, 40, 400])) for _ in range(300)]
    phrases += [
        "sun", "wind energy", "b1", " ", "\x00", "sun\x00", "b1" + "\x00" * 16,
        "\x01\x1f\x7f", "\x7f\x80", "\u00e9nergie", chr(0x10FFFF), "z" + chr(0x10FFFF) * 3,
    ]
    for phrase in phrases:
        points, total = extraction._points(phrase)
        want_points, want_total = exact_moments(phrase)
        assert list(points) == want_points
        assert total == want_total


@pytest.mark.parametrize("tail", ["\x00", "\x01"])
def test_longer_rows_are_walked_once_a_row_ends_low(tail):
    # Rows ending in letters have tails of 97**2 or more, past any length cut
    # at these bounds, so the index keeps no longer row for any candidate
    # length. A longer row ending in a NUL or \x01 has a tail of 0 or 1 past
    # length 3, and is the candidate's answer: its append must keep it for
    # candidates of length 3. At 0.005 its own length's cut, 4 * 0.635**2 =
    # 1.61, lets a tail of 1 through, and length 1's, 0.40, would not
    rows = ["a", "ab", "sun"]
    settings = [(0.005, 0.005), *SETTINGS]
    indexes = [(_MarkedIndex(dict.fromkeys(rows, 1), r, b), r, b) for r, b in settings]
    vec = encode("\x01\x01\x01")
    for index, r, bound in indexes:
        assert index.admit(vec) is scan_admit(rows, vec, r, bound) is None
    # the lookups above missed: the new row, which scores under 0.005, must
    # end the remembered miss
    append_row(rows, indexes, "\x01\x01\x01" + tail)
    for index, r, bound in indexes:
        assert index.admit(vec) is scan_admit(rows, vec, r, bound) is False


@pytest.mark.parametrize(
    ("slack", "candidate", "rows"),
    [
        (extraction._KEY_SLACK, "sun", ["sun\x00"]),
        (0.01, "sun", ["sun\x00", "snC"]),
        (extraction._KEY_SLACK, "ac", ["`d"]),
        (0.01, "ac", ["`d"]),
        (extraction._KEY_SLACK, "\u03e8\u0bb8", ["\x00\u0fa0"]),
    ],
    ids=[
        "slack",
        "wide-slack-after-a-scored-row",
        "own-length",
        "own-length-wide-slack",
        "own-length-non-ascii",
    ],
)
def test_keys_off_by_half_the_slack_change_no_answer(monkeypatch, slack, candidate, rows):
    # 'sun\x00' pads to the codes of 'sun': its score is the stddev gap alone,
    # a term no check reads. '`d' is 'ac' spread about the same mean: its
    # score is exactly 2 gap + gap**2, of which the distance term is gap;
    # code points 1000 and 3000 against 0 and 4000 put that gap at 7.9. The
    # index's keys, the code sums and the code-point distance, read half the
    # slack apart must still leave rows[0] in play, also once 'snC', in the
    # bucket of the candidate's length and so scored first, has scored a
    # little above it, in the fallback band of a bound of 0.5, and narrowed
    # the search to r_threshold
    monkeypatch.setattr(extraction, "_KEY_SLACK", slack)
    sums_apart(monkeypatch, rows[0], 127 * max(len(candidate), len(rows[0])) * slack / 4)
    monkeypatch.setattr(
        extraction, "_distance", lambda p, q: math.dist(p, q) + 127 * math.sqrt(len(q)) * slack / 2
    )
    vec = encode(candidate)
    r = scan(rows, vec)
    gap = encode(rows[0]).stddev - vec.stddev
    assert gap > 0.0
    assert r[0] == pytest.approx(2 * gap + gap * gap if len(rows[0]) == len(candidate) else gap)
    assert all(r[0] < other < r[0] + slack / 2 for other in r[1:])
    bounds = (math.nextafter(r[0], math.inf), r[0] * (1 + 1e-12), r[0], 0.5, math.inf)
    settings = [(b, b) for b in bounds] + [(b, 0.5) for b in bounds[:3]] + SETTINGS
    for threshold, fallback in settings:
        got = _MarkedIndex(dict.fromkeys(rows, 1), threshold, fallback).admit(vec)
        assert got == scan_admit(rows, vec, threshold, max(threshold, fallback))


def test_pruned_lookup_equals_full_scan_on_hostile_rows():
    # non-ASCII rows and 400-character rows, where the keys stray furthest
    # from the kernel's float codes; near misses of a row and bounds just
    # above or below the answer put rows at the edge of every bound
    rng = random.Random(4242)
    for _ in range(150):
        rows = list(
            dict.fromkeys(
                hostile_phrase(rng, rng.choice([1, 3, 8, 400])) for _ in range(rng.randint(1, 8))
            )
        )
        indexes = setting_indexes(rows)
        for _ in range(4):
            probe = rng.choice(rows) if rng.random() < 0.7 else hostile_phrase(rng, rng.randint(1, 9))
            at = rng.randrange(len(probe))
            if rng.random() < 0.5:
                nudged = chr(min(0x10FFFF, max(0, ord(probe[at]) + rng.choice([-1, 1]))))
                probe = probe[:at] + nudged + probe[at + 1 :]
            vec = encode(probe)
            r, bound = drawn_thresholds(
                rng,
                scan(rows, vec),
                lambda: rng.choice([10.0 ** rng.uniform(-4.0, 4.0), math.inf]),
            )
            drawn = _MarkedIndex(dict.fromkeys(rows, 1), r, bound)
            for index, r, bound in [(drawn, r, bound), *indexes]:
                assert index.admit(vec) == scan_admit(rows, vec, r, bound)
            if rng.random() < 0.3:
                row = hostile_phrase(rng, rng.choice([2, 400]))
                if row not in rows:
                    append_row(rows, indexes, row)


def test_pruned_lookup_equals_full_scan_past_a_million_characters():
    # the relative slack of the length cut and the distance check grows
    # with the pair's length, so pruning stays exact on a row of over a
    # million characters. Each character of the own-length probe is one
    # code above the row's: the difference vector is constant, so in exact
    # arithmetic the stddev gap and variance vanish, and the distance check,
    # the exact distance term 1 / 127, comes within 2e-11 of the score. The probes one
    # character longer and shorter bring the length cut in. At a bound just
    # above each score the row must answer, and at the score itself nothing
    rng = random.Random(11)
    row = encode("".join(rng.choices("aelnrst", k=1_000_003)))
    shifted = row.phrase.translate({c: c + 1 for c in range(ord("a"), ord("z"))})
    for probe in (shifted, shifted + "s", shifted[:-1]):
        vec = encode(probe)
        dist, gap, variance = relatedness_terms(row, vec)
        r = dist + gap + variance
        for bound, expected in ((math.nextafter(r, math.inf), False), (r, None)):
            index = _MarkedIndex({}, bound, bound)
            index.append(row)  # shares the row's codes with the scan above
            assert index.admit(vec) is expected


def test_exact_hit_guarantee_on_random_marked_phrases():
    # only a score of exactly 0.0 lies under the smallest r_threshold there
    # is; anything else would be admitted through the fallback
    exact = Thresholds(r_threshold=5e-324, fallback_threshold=0.5)
    rng = random.Random(777)

    def word():
        while True:
            w = "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(3, 8)))
            if w not in DEFAULT_STOPWORDS:
                return w

    for _ in range(25):
        phrase = " ".join(word() for _ in range(rng.randint(1, 3)))
        marking = {phrase: 5}
        out = extract_one(f"report: {phrase} noted", marking, exact)
        assert not out.instances[phrase].via_fallback


def assert_equals_reference(docs, marking, thresholds):
    expected_marking = dict(marking)
    got = extract_corpus(docs, marking, thresholds)
    want = reference_extract(docs, expected_marking, thresholds)

    assert list(got) == list(want)
    for doc_id, expected in want.items():
        # a record is the tuple (frequency, via_fallback)
        assert list(got[doc_id].instances.items()) == list(expected.items())
    assert list(marking.items()) == list(expected_marking.items())


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize(
    ("thresholds", "extra_rows"),
    [
        (Thresholds(r_threshold=0.005), ()),  # default fallback 0.009 > r
        (Thresholds(r_threshold=0.01), ()),
        (Thresholds(r_threshold=0.02), ()),
        (Thresholds(r_threshold=0.005, fallback_threshold=0.02), ()),
        # weak lower bounds on relatedness: control-character rows (codes
        # near 0) and a wide fallback band keep rows of other lengths in play
        (
            Thresholds(r_threshold=0.005, fallback_threshold=0.5),
            ("\x01\x02\x03", "\x1f\x1f"),
        ),
        # a bound whose square overflows a float admits every candidate
        (Thresholds(r_threshold=0.005, fallback_threshold=1e308), ()),
    ],
    ids=[
        "r0.005", "r0.01", "r0.02", "r0.005-fb0.02", "r0.005-fb0.5-ctrl",
        "r0.005-fb1e308",
    ],
)
def test_extract_corpus_equals_reference_on_synth_corpora(seed, thresholds, extra_rows):
    docs = make_corpus(random.Random(seed), 8)
    marking = {**fresh_marking(), **dict.fromkeys(extra_rows, 1)}
    assert_equals_reference(docs, marking, thresholds)


@pytest.mark.parametrize("fallback", [0.009, 0.01])
def test_fallback_at_or_below_r_threshold_admits_nothing_extra(fallback):
    docs = make_corpus(random.Random(8080), 10)

    def extract(thresholds):
        marking = fresh_marking()
        sets = extract_corpus(docs, marking, thresholds)
        return sets, list(marking.items())

    sets, entries = extract(Thresholds(r_threshold=0.01, fallback_threshold=fallback))
    tiny_sets, tiny_entries = extract(
        Thresholds(r_threshold=0.01, fallback_threshold=1e-9)
    )
    assert {d: s.instances for d, s in sets.items()} == {
        d: s.instances for d, s in tiny_sets.items()
    }
    assert entries == tiny_entries
    assert sum(len(s) for s in sets.values()) > 0
    assert not any(
        rec.via_fallback for s in sets.values() for rec in s.instances.values()
    )


# seed terms one letter short or long are nearest to a row of another length
# whenever the gazetteer holds no closer row of their own length
random_docs = st.lists(
    st.sampled_from(
        [*POOL, *(t[:-1] for t in SEED_TERMS), *(t + "s" for t in SEED_TERMS)]
    ),
    max_size=12,
).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(
    docs=st.lists(random_docs, min_size=1, max_size=3),
    rows=st.lists(
        st.sampled_from([*SEED_TERMS, "\x01\x02\x03", "\x1f\x1f", "\x01"]),
        min_size=1,
        unique=True,
    ),
    r_threshold=st.floats(min_value=1e-3, max_value=0.05),
    fallback=st.floats(min_value=1e-3, max_value=0.5),
)
def test_extract_corpus_equals_reference_on_random_corpora(
    docs, rows, r_threshold, fallback
):
    # a fallback above r_threshold gives bounds up to 0.5, where rows of
    # other lengths survive pruning
    thresholds = Thresholds(r_threshold=r_threshold, fallback_threshold=fallback)
    docs = {f"d{i}": d for i, d in enumerate(docs)}
    assert_equals_reference(docs, dict.fromkeys(rows, 1), thresholds)
