"""Instance extraction against the marking file, including adaptive updates."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repo_paths import DATA_DIR
from synth_corpus import POOL, SEED_TERMS, fresh_marking, make_corpus
from vendormatch import extraction
from vendormatch.config import Thresholds
from vendormatch.extraction import _MarkedIndex, extract_corpus
from vendormatch.marking import load_marking
from vendormatch.stopwords import DEFAULT_STOPWORDS
from vendormatch.textstats import candidates, encode, relatedness_terms, tokenize

from test_textstats import oracle_relatedness

DEFAULTS = Thresholds()
#: The lookup bound, max(r_threshold, fallback_threshold), at the defaults,
#: at fallback 0.05, at r 0.2 and at fallback 0.5, where the row bound of
#: rows of another length, its mean term, prunes rows
SETTING_BOUNDS = [
    max(t.r_threshold, t.fallback_threshold)
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
    marking = {"energy": 165}
    out = extract_one("energy energy, energy; energy!", marking, DEFAULTS)
    rec = out.instances["energy"]
    assert rec.frequency == 4
    assert rec.best_r == 0.0
    assert rec.matched_marked_phrase == "energy"
    assert not rec.via_fallback
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
    rec = out.instances["turbiner"]
    assert rec.matched_marked_phrase == "turbines"
    assert not rec.via_fallback
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
    rng = random.Random(404)
    marking = fresh_marking()
    for doc in make_corpus(rng, 10).values():
        out = extract_one(doc, marking, DEFAULTS)
        for rec in out.instances.values():
            bound = (
                DEFAULTS.fallback_threshold
                if rec.via_fallback
                else DEFAULTS.r_threshold
            )
            assert rec.best_r < bound
            assert rec.frequency >= 1


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

    marking = {"turbines": 12}
    out = extract_one("turbineu then turbinew", marking, DEFAULTS)
    assert out.instances["turbineu"].matched_marked_phrase == "turbines"
    assert out.instances["turbinew"].matched_marked_phrase == "turbineu"

    # reversed order: 'turbinew' is scored before the stepping stone exists
    marking2 = {"turbines": 12}
    out2 = extract_one("turbinew then turbineu", marking2, DEFAULTS)
    assert "turbinew" not in out2.instances
    assert "turbineu" in out2.instances


def test_a_missed_phrase_is_looked_up_once_per_gazetteer_state(monkeypatch):
    looked_up = []
    best = _MarkedIndex.best

    def counted(self, vec, bound):
        looked_up.append(vec.phrase)
        return best(self, vec, bound)

    monkeypatch.setattr(_MarkedIndex, "best", counted)
    # nothing is admitted, so the second document makes no lookup
    text = "solau wind solau and turbinew"
    marking = {"solar": 1}
    out = extract_corpus({"a": text, "b": text}, marking, DEFAULTS)
    assert not out["a"].instances and not out["b"].instances
    assert looked_up == list(candidates(tokenize(text)))

    # 'b' admits 'solat', a new row that brings 'solau' under the bound
    looked_up.clear()
    out = extract_corpus({"a": "solau", "b": "solat", "c": "solau"}, marking, DEFAULTS)
    assert looked_up == ["solau", "solat", "solau"]
    assert not out["a"].instances
    assert out["b"].instances["solat"].matched_marked_phrase == "solar"
    assert out["c"].instances["solau"].matched_marked_phrase == "solat"


def test_tied_marked_objects_match_the_earlier_entry():
    # 'aa' differs from 'ab' and 'ba' by one code point at mirrored positions
    assert oracle_relatedness("ab", "aa") == oracle_relatedness("ba", "aa")
    assert oracle_relatedness("ab", "aa") < DEFAULTS.r_threshold
    # exact kernel ties also between rows of one length but different
    # stddevs (a stddev-sorted bucket lists them the other way round) and
    # between rows of different lengths (in different buckets)
    for phrase, tied in (
        ("aa", ("ab", "ba")),
        ("ab", ("ac", "aa")),
        ("\x02\x01", ("\x02", "\x01\x01")),
    ):
        r = scan(list(tied), encode(phrase))
        assert r[0] == r[1] < DEFAULTS.r_threshold
        for first, second in (tied, tied[::-1]):
            index = _MarkedIndex({first: 1, second: 1})
            assert index.best(encode(phrase), DEFAULTS.r_threshold)[1] == first
            if phrase.isalpha():
                out = extract_one(phrase, {first: 1, second: 1}, DEFAULTS)
                assert out.instances[phrase].matched_marked_phrase == first


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
    rng = random.Random(55)
    pool = ["sun", "wind", "solar energy", "turbines", "grid", "storage unit"]
    index = _MarkedIndex(dict.fromkeys(pool, 1))
    words = pool + ["sunny", "turbiner", "zzz", "a", "speed of wind", "xylophone"]
    for _ in range(200):
        phrase = rng.choice(words)
        vec = encode(phrase)
        batch_r, batch_phrase = index.best(vec, math.inf)
        oracle = {p: oracle_relatedness(p, phrase) for p in pool}
        assert batch_r == pytest.approx(min(oracle.values()), abs=1e-12)
        assert oracle[batch_phrase] == pytest.approx(batch_r, abs=1e-12)


def scan(phrases, vec):
    """Relatedness of ``vec`` to every row, one pair at a time."""
    r = []
    for phrase in phrases:
        dist, gap, variance = relatedness_terms(encode(phrase), vec)
        r.append(dist + gap + variance)
    return r


def scan_best(phrases, vec, bound):
    """Plain lookup: every row scored, first minimum wins, None at ``bound``."""
    r = scan(phrases, vec)
    best_row = r.index(min(r))
    if r[best_row] >= bound:
        return None
    return r[best_row], phrases[best_row]


# control characters have codes near 0, so rows of other lengths and far
# stddevs keep low relatedness and the cheap bounds get little to prune
index_chars = st.sampled_from("\x01\x02\x1f aelnrstz09")
index_phrases = st.text(alphabet=index_chars, min_size=1, max_size=40)


@st.composite
def lookups(draw, rows):
    """A phrase near one of ``rows`` or anywhere, and a bound to look it up at."""
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
    nearest = min(scan(rows, vec))
    bound = draw(
        st.one_of(
            st.floats(min_value=-4.0, max_value=0.0).map(lambda e: 10.0**e),
            st.just(math.inf),
            # just above or below the answer, where a loose bound would prune it
            st.floats(min_value=0.9, max_value=1.1).map(lambda f: nearest * f),
        ).filter(lambda b: b > 0)
    )
    return vec, bound


@settings(max_examples=150, deadline=None)
@given(
    marking=st.lists(index_phrases, min_size=1, max_size=12, unique=True),
    data=st.data(),
)
def test_pruned_lookup_equals_full_scan(marking, data):
    index = _MarkedIndex(dict.fromkeys(marking, 1))
    rows = list(marking)
    for step in range(data.draw(st.integers(min_value=1, max_value=8))):
        if step == 2:  # a row longer than every row so far
            rows.append(max(rows, key=len) + data.draw(index_phrases))
            index.append(encode(rows[-1]))
        vec, bound = data.draw(lookups(rows))
        for bound in (bound, *SETTING_BOUNDS):
            assert index.best(vec, bound) == scan_best(rows, vec, bound)
        if data.draw(st.booleans()):
            rows.append(data.draw(index_phrases))
            index.append(encode(rows[-1]))


def test_pruned_lookup_equals_full_scan_on_seeded_markings():
    # the same comparison as above in a plain loop: thousands of lookups in
    # well under a second, where off-by-one bounds show up many times over
    rng = random.Random(2024)
    alphabet = "\x01\x02\x1f aelnrstz09"

    def phrase():
        return "".join(rng.choices(alphabet, k=rng.randint(1, rng.choice([3, 8, 40]))))

    for _ in range(500):
        rows = list(dict.fromkeys(phrase() for _ in range(rng.randint(1, 12))))
        index = _MarkedIndex(dict.fromkeys(rows, 1))
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
            if rng.random() < 0.5:
                bound = min(scan(rows, vec)) * rng.uniform(1.0, 1.1)
            else:
                bound = 10.0 ** rng.uniform(-4.0, 0.0)
            for bound in (bound, *SETTING_BOUNDS):
                assert index.best(vec, bound) == scan_best(rows, vec, bound)
            if rng.random() < 0.5:
                rows.append(phrase())
                index.append(encode(rows[-1]))


def test_mean_bound_at_the_edges_of_bound():
    # one code shift keeps the stddev: 'de' and 'bc' share a bucket and a
    # stddev, tie exactly against 'cd' and differ only in their code sums.
    # With a gap of 0 their own-length bound is the mean term alone
    vec = encode("cd")
    rows = ["de", "bc"]
    assert encode("de").stddev == encode("bc").stddev
    r = scan(rows, vec)[0]
    assert scan(rows, vec) == [r, r]
    # summed in another order than the kernel's, the row bound of 'de', its
    # mean term at a gap of 0, lands 33 ulps above its score: only the
    # slack keeps it in play
    row = encode("de")
    mean = abs(math.fsum(row.codes) - math.fsum(vec.codes)) / 2
    assert mean + abs(row.stddev - vec.stddev) > math.nextafter(r, math.inf)
    just_in = (math.nextafter(r, math.inf), r * (1 + 1e-9), math.inf)
    just_out = (r * (1 - 1e-6), math.nextafter(r, 0.0), r)
    for bound in just_in + just_out:
        for order in (rows, rows[::-1]):
            index = _MarkedIndex(dict.fromkeys(order, 1))
            assert index.best(vec, bound) == scan_best(order, vec, bound)
            assert (index.best(vec, bound) is None) == (bound in just_out)


@pytest.mark.parametrize(
    ("row", "candidate"), [("0000", "zzzzz"), ("c0", "cc")], ids=["other-length", "own-length"]
)
def test_row_bound_alone_keeps_a_row_from_the_kernel(monkeypatch, row, candidate):
    # other length: both stddev keys are 0, so '0000' is inside the stddev
    # window, and the tail of 'zzzzz', 122**2 = 14,884, is under the length
    # cut of 5 * (127 * 0.5)**2 = 20,161.25: only the row bound, here its
    # mean term (5 * 122 - 4 * 48) / (127 * 5) = 0.658, prunes the row.
    # Own length: 'c0' and 'cc' differ by 51 / 127 in one place, so their
    # stddev gap and mean term are both 51 / 254 = 0.201, inside the own
    # window sqrt(1.5) - 1 = 0.225, and their mean bound is 0.402: only the
    # variance floor lifts the row bound to 0.525, the pair's exact score
    calls = 0

    def counted(a, b, cap):
        nonlocal calls
        calls += 1
        return relatedness_terms(a, b, cap)

    monkeypatch.setattr(extraction, "relatedness_terms", counted)
    assert _MarkedIndex({row: 1}).best(encode(candidate), 0.5) is None
    assert calls == 0
    assert _MarkedIndex({row: 1}).best(encode(candidate), 0.7) is not None
    assert calls == 1


def test_length_cut_at_the_edges_of_bound(monkeypatch):
    # The length bound sqrt(T / L) / 127 is never a real pair's whole score:
    # padding makes the difference vector uneven, and the variance term adds
    # about 1 / (127 L) of it even for one code-1 character against L of
    # them, far outside the 1e-9 slack for any phrase of practical length.
    # So a kernel whose float sums undercut that bound by half the slack
    # stands in: the cut must still leave the row in play, whichever side
    # is the longer one
    short, long = "\x01", "\x01" * 40
    edge = math.sqrt(39 / 40) / 127
    assert scan([long], encode(short))[0] > edge * (1 + 1e-4)
    r = edge * (1 - 5e-10)
    monkeypatch.setattr(extraction, "relatedness_terms", lambda a, b, cap: (r, 0.0, 0.0))
    just_in = (math.nextafter(r, math.inf), r * (1 + 1e-12), edge, math.inf)
    just_out = (r, math.nextafter(r, 0.0), r * (1 - 1e-9))
    for candidate, row in ((short, long), (long, short)):
        for bound in just_in + just_out:
            got = _MarkedIndex({row: 1}).best(encode(candidate), bound)
            assert got == (None if bound in just_out else (r, row))


def test_marked_candidate_after_rows_of_its_length_matches_itself():
    marking = {"sum": 1, "run": 1, "sup": 1, "sun": 1, "tun": 1}
    index = _MarkedIndex(marking)
    for bound in (DEFAULTS.r_threshold, 0.05, math.inf):
        assert index.best(encode("sun"), bound) == (0.0, "sun")
        assert scan_best(list(marking), encode("sun"), bound) == (0.0, "sun")
    out = extract_one("sun", dict(marking), DEFAULTS)
    assert out.instances["sun"].best_r == 0.0
    assert out.instances["sun"].matched_marked_phrase == "sun"
    assert_equals_reference({"d": "sun sums run sun"}, dict(marking), DEFAULTS)


def test_nul_padded_row_before_the_candidate_row():
    # zero padding gives 'sun\x00' the codes of 'sun': the distance is 0
    # and only the stddev gap keeps it from tying the candidate's own row
    marking = {"sun\x00": 1, "sun": 1}
    assert scan(list(marking), encode("sun"))[0] > 0.0
    assert _MarkedIndex(marking).best(encode("sun"), 1.0) == (0.0, "sun")
    assert_equals_reference({"d": "sun"}, dict(marking), DEFAULTS)
    # 'b1' and 'b1' with 16 NULs have the same stddev to the last bit, so
    # the rows tie at exactly 0.0 and the earlier one is the answer
    padded = "b1" + "\x00" * 16
    assert scan([padded], encode("b1")) == [0.0]
    for order in ([padded, "b1"], ["b1", padded]):
        marking = dict.fromkeys(order, 1)
        for bound in (DEFAULTS.r_threshold, math.inf):
            assert _MarkedIndex(marking).best(encode("b1"), bound) == (0.0, order[0])
        out = extract_one("b1", marking, DEFAULTS)
        assert out.instances["b1"].best_r == 0.0
        assert out.instances["b1"].matched_marked_phrase == order[0]


@pytest.mark.parametrize(
    ("thresholds", "most", "most_scored"),
    [(DEFAULTS, 180, 10), (Thresholds(fallback_threshold=0.05), 2_900, 180)],
    ids=["defaults", "fb0.05"],
)
def test_bundled_extraction_scores_few_rows(
    monkeypatch, tmp_marking, thresholds, most, most_scored
):
    # a full scan of the bundled corpus makes 1,326 kernel calls at the
    # defaults and 6,429 at fallback 0.05; pruning keeps 151 and 2,625, and
    # the cap abandons all but 2 and 152 of them before their last element
    calls = scored = 0

    def counted(a, b, cap):
        nonlocal calls, scored
        calls += 1
        terms = relatedness_terms(a, b, cap)
        scored += terms is not None
        return terms

    monkeypatch.setattr(extraction, "relatedness_terms", counted)
    marking = load_marking(tmp_marking)
    for kind in ("vendors", "queries"):
        docs = {p.stem: p.read_text(encoding="utf-8") for p in (DATA_DIR / kind).glob("*.txt")}
        assert extract_corpus(docs, marking, thresholds)
    assert 0 < calls <= most
    assert 0 < scored <= most_scored


@pytest.mark.parametrize(
    ("thresholds", "most"),
    [(DEFAULTS, 220), (Thresholds(fallback_threshold=0.05), 700)],
    ids=["defaults", "fb0.05"],
)
def test_bundled_extraction_builds_few_codes(monkeypatch, tmp_marking, thresholds, most):
    # every candidate and marked phrase is encoded (1,412 vectors at the
    # defaults, 1,463 at fallback 0.05), but a vector builds its codes, which
    # it then keeps in its __dict__, only when a row survives the bounds:
    # 188 and 649 of them do
    vectors = []

    def kept(phrase):
        vectors.append(encode(phrase))
        return vectors[-1]

    monkeypatch.setattr(extraction, "encode", kept)
    marking = load_marking(tmp_marking)
    for kind in ("vendors", "queries"):
        docs = {p.stem: p.read_text(encoding="utf-8") for p in (DATA_DIR / kind).glob("*.txt")}
        assert extract_corpus(docs, marking, thresholds)
    assert len(vectors) > 1_400
    assert 0 < sum("codes" in vars(v) for v in vectors) <= most


def hostile_phrase(rng, length):
    """Control characters, [a-z0-9 ] or any code point, ``length`` of them."""
    kind = rng.randrange(3)
    if kind == 0:
        return "".join(chr(rng.randint(0, 31)) for _ in range(length))
    if kind == 1:
        return "".join(rng.choices("abcdefghijklmnopqrstuvwxyz0123456789 ", k=length))
    return "".join(chr(rng.randint(0, 0x10FFFF)) for _ in range(length))


def test_integer_moment_keys_stay_far_inside_the_slack():
    # the index's keys stand in for the kernel's float statistics; each gap
    # must stay at least 100x below the slack that widens the bounds
    rng = random.Random(1711)
    phrases = [hostile_phrase(rng, rng.choice([1, 2, 7, 40, 400, 4_000])) for _ in range(300)]
    phrases += [
        chr(0x10FFFF) * 4_000,  # a stddev of exactly 0 from the integer moments
        (chr(0x10FFFF) + "\x00") * 2_000,  # the largest stddev there is
        chr(0x10FFFF) * 3_999 + chr(0x10FFFE),
        "\x01" * 4_000,
        "z",
    ]
    worst_sigma = worst_mean = 0.0
    for phrase in phrases:
        _, total, sigma = extraction._moments(phrase)
        vec = encode(phrase)
        worst_sigma = max(worst_sigma, abs(sigma - vec.stddev))
        worst_mean = max(worst_mean, abs(total / 127 - math.fsum(vec.codes)) / len(phrase))
    assert worst_sigma * 100 <= extraction._KEY_SLACK
    assert worst_mean * 100 <= extraction._KEY_SLACK


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
    # the one term the stddev window and the row bound read from the keys.
    # Keys moved apart by half the slack must still leave the row in play,
    # also once 'snC', in the bucket of the candidate's length and so scored
    # first, has set the best score a little above it. '`d' is 'ac' spread
    # about the same mean: its score is exactly 2 gap + gap**2, the edge of
    # the own-length bound and of its stddev window; code points 1000 and
    # 3000 against 0 and 4000 put the same edge at a gap of 7.9
    monkeypatch.setattr(extraction, "_KEY_SLACK", slack)
    moments = extraction._moments

    def apart(phrase):
        points, total, sigma = moments(phrase)
        return points, total, sigma + slack / 4 * (1 if phrase == rows[0] else -1)

    monkeypatch.setattr(extraction, "_moments", apart)
    vec = encode(candidate)
    r = scan(rows, vec)
    gap = encode(rows[0]).stddev - vec.stddev
    assert gap > 0.0
    assert r[0] == pytest.approx(2 * gap + gap * gap if len(rows[0]) == len(candidate) else gap)
    assert all(r[0] < other < r[0] + slack / 2 for other in r[1:])
    bounds = (math.nextafter(r[0], math.inf), r[0] * (1 + 1e-12), r[0], 0.5, math.inf)
    for bound in bounds + tuple(SETTING_BOUNDS):
        assert _MarkedIndex(dict.fromkeys(rows, 1)).best(vec, bound) == scan_best(rows, vec, bound)


def test_pruned_lookup_equals_full_scan_on_hostile_rows():
    # non-ASCII rows and 400-character rows, where the keys stray furthest
    # from the kernel's statistics; near misses of a row and bounds just
    # above or below the answer put rows at the edge of every bound
    rng = random.Random(4242)
    for _ in range(150):
        rows = list(
            dict.fromkeys(
                hostile_phrase(rng, rng.choice([1, 3, 8, 400])) for _ in range(rng.randint(1, 8))
            )
        )
        index = _MarkedIndex(dict.fromkeys(rows, 1))
        for _ in range(4):
            probe = rng.choice(rows) if rng.random() < 0.7 else hostile_phrase(rng, rng.randint(1, 9))
            at = rng.randrange(len(probe))
            if rng.random() < 0.5:
                nudged = chr(min(0x10FFFF, max(0, ord(probe[at]) + rng.choice([-1, 1]))))
                probe = probe[:at] + nudged + probe[at + 1 :]
            vec = encode(probe)
            nearest = min(scan(rows, vec))
            bound = rng.choice(
                [nearest * rng.uniform(1.0, 1.1), 10.0 ** rng.uniform(-4.0, 4.0), math.inf]
            )
            for bound in [b for b in (bound, *SETTING_BOUNDS) if b > 0]:
                assert index.best(vec, bound) == scan_best(rows, vec, bound)
            if rng.random() < 0.3:
                rows.append(hostile_phrase(rng, rng.choice([2, 400])))
                if rows[-1] in rows[:-1]:
                    rows.pop()
                else:
                    index.append(encode(rows[-1]))


def test_exact_hit_guarantee_on_random_marked_phrases():
    rng = random.Random(777)

    def word():
        while True:
            w = "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(3, 8)))
            if w not in DEFAULT_STOPWORDS:
                return w

    for _ in range(25):
        phrase = " ".join(word() for _ in range(rng.randint(1, 3)))
        marking = {phrase: 5}
        out = extract_one(f"report: {phrase} noted", marking, DEFAULTS)
        assert out.instances[phrase].best_r == 0.0


def reference_extract(documents, marking, thresholds):
    """Plain extraction: documents in sorted order, every marked object scanned.

    ``marking`` is an insertion-ordered {phrase: frequency} dict, updated in
    place. Returns {doc_id: {phrase: (frequency, best_r, matched, via_fallback)}}.
    """
    out = {}
    for doc_id in sorted(documents):
        found = out[doc_id] = {}
        for phrase, frequency in candidates(tokenize(documents[doc_id])).items():
            best_r, matched = None, None
            for marked in marking:
                r = oracle_relatedness(marked, phrase)
                if best_r is None or r < best_r:  # first minimum wins
                    best_r, matched = r, marked
            if best_r is None:
                continue
            if best_r < thresholds.r_threshold:
                via_fallback = False
            elif best_r < thresholds.fallback_threshold:
                via_fallback = True
            else:
                continue
            marking[phrase] = marking.get(phrase, 0) + frequency
            found[phrase] = (frequency, best_r, matched, via_fallback)
    return out


def assert_equals_reference(docs, marking, thresholds):
    expected_marking = dict(marking)
    got = extract_corpus(docs, marking, thresholds)
    want = reference_extract(docs, expected_marking, thresholds)

    assert list(got) == list(want)
    for doc_id, expected in want.items():
        records = got[doc_id].instances
        assert list(records) == list(expected)
        for phrase, (frequency, best_r, matched, via_fallback) in expected.items():
            rec = records[phrase]
            assert rec.frequency == frequency
            assert rec.best_r == pytest.approx(best_r, abs=1e-12)
            assert rec.matched_marked_phrase == matched
            assert rec.via_fallback == via_fallback
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
