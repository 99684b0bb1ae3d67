"""Tokenizer, candidate enumeration, and the relatedness metric."""

import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (
    direct_var,
    oracle_relatedness,
    reference_candidates,
    reference_tokenize,
    vector_from_codes,
)
from vendormatch.textstats import (
    candidates,
    count_non_ascii,
    encode,
    relatedness_terms,
    tokenize,
)

PHRASE_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 "

phrases = st.text(alphabet=PHRASE_ALPHABET, min_size=1, max_size=24).filter(
    lambda s: s.strip() != ""
)
code_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=64,
)


# --------------------------------------------------------------- tokenize


def test_tokenize_splits_on_separators():
    assert tokenize("Solar Energy, now!") == [
        "solar",
        "energy",
        "now",
    ]


def test_tokenize_empty_input():
    assert tokenize("") == []


def test_tokenize_separator_only_input():
    assert tokenize("--- ... ---") == []


def test_tokenize_keeps_document_order():
    assert tokenize("one two three") == ["one", "two", "three"]


def test_tokenize_replaces_non_ascii_and_writes_nothing(capsys):
    # the replacement '?' acts as a separator, so 'caf' survives alone
    assert tokenize("café solar") == ["caf", "solar"]
    assert capsys.readouterr() == ("", "")
    assert count_non_ascii("café solar") == 1


@given(st.text())
def test_tokenize_deterministic_and_seven_bit(text):
    first = tokenize(text)
    second = tokenize(text)
    assert first == second
    for token in first:
        assert re.fullmatch(r"[a-z0-9]+", token)
        assert all(ord(ch) <= 127 for ch in token)


# -------------------------------------------------------------- candidates


def test_candidates_enumerates_all_ngrams_with_counts():
    assert candidates(tokenize("wind energy wind")) == {
        "wind": 2,
        "energy": 1,
        "wind energy": 1,
        "energy wind": 1,
        "wind energy wind": 1,
    }


def test_candidates_empty():
    assert candidates([]) == {}


def test_candidates_stopword_edges():
    out = candidates(tokenize("speed of wind"))
    assert "speed" in out and "wind" in out
    assert "speed of wind" in out  # interior stopword is allowed
    assert "of" not in out
    assert "speed of" not in out
    assert "of wind" not in out


def test_candidates_keep_a_trigram_whose_bigram_ends_in_a_stopword():
    # the trigram is built from the bigram, which is not counted itself
    assert list(candidates(tokenize("wind of sun")).items()) == [
        ("wind", 1),
        ("wind of sun", 1),
        ("sun", 1),
    ]


def test_candidates_at_the_end_of_a_document():
    # the last starts have room for fewer than three words
    assert list(candidates(tokenize("sun wind energy sun")).items()) == [
        ("sun", 2),
        ("sun wind", 1),
        ("sun wind energy", 1),
        ("wind", 1),
        ("wind energy", 1),
        ("wind energy sun", 1),
        ("energy", 1),
        ("energy sun", 1),
    ]
    assert candidates(tokenize("solar wind of")) == {"solar": 1, "solar wind": 1, "wind": 1}


def test_candidates_first_occurrence_order():
    ordered = list(candidates(tokenize("sun wind sun")))
    assert ordered == ["sun", "sun wind", "sun wind sun", "wind", "wind sun"]


@given(st.lists(st.sampled_from(["sun", "wind", "energy", "the"]), max_size=8))
def test_candidates_deterministic(words):
    text = " ".join(words)
    first = candidates(tokenize(text))
    assert list(first.items()) == list(candidates(tokenize(text)).items())
    for phrase, frequency in first.items():
        parts = phrase.split(" ")
        assert 1 <= len(parts) <= 3
        assert parts[0] != "the" and parts[-1] != "the"
        assert frequency >= 1


# words in mixed case, digits, stopwords that land at phrase edges, the
# ASCII neighbours of [0-9a-zA-Z], and non-ASCII characters whose lowercase
# is (or starts with) ASCII: U+212A KELVIN SIGN lowercases to 'k', U+0130 to
# 'i' + U+0307
text_pieces = st.sampled_from(
    ["Wind", "wind", "SOLAR", "energy", "quartz", "b1", "1990", "the", "Of", "and"]
    + [" ", " ", ", ", "-", "/:", "@[`{", "\n", "\u212a", "\u0130", "\u00e9", "\u20ac"]
)


@settings(max_examples=300)
@given(st.lists(text_pieces, max_size=16).map("".join))
@example("\u212aelvin wind")  # ['elvin', 'wind']: replaced, then lowercased
def test_candidates_of_tokenize_equal_the_reference_enumeration(text):
    words = tokenize(text)
    assert words == reference_tokenize(text)
    assert count_non_ascii(text) == sum(ord(ch) > 127 for ch in text)
    assert list(candidates(words).items()) == list(reference_candidates(words).items())


# ------------------------------------------------------------------ encode


def test_encode_single_char():
    v = encode("A")
    assert v.codes == (65 / 127,)
    assert v.stddev == 0.0


def test_encode_identical_chars_zero_stddev():
    assert encode("aa").stddev == 0.0


def test_encode_sun_matches_direct_summation():
    v = encode("sun")
    codes = [115 / 127, 117 / 127, 110 / 127]
    assert v.codes == tuple(codes)
    assert v.stddev == pytest.approx(math.sqrt(direct_var(codes)), abs=1e-12)


def test_encode_includes_internal_spaces():
    v = encode("a b")
    assert v.codes[1] == 32 / 127


def test_encode_empty_phrase_rejected():
    with pytest.raises(ValueError):
        encode("")


@given(phrases)
@example("666")
@example("sss")
def test_encode_codes_in_unit_interval(phrase):
    v = encode(phrase)
    assert all(0.0 <= c <= 1.0 for c in v.codes)
    if len(set(v.codes)) > 1:
        assert v.stddev > 0.0
    else:
        # n equal codes c < 1: fsum(n c) / n rounds twice, so the mean is
        # within c (2 u + u**2) < 2**-52 of c (u = 2**-53), and the stddev,
        # the deviations' size rounded a few times more, stays under 2**-52.
        # It need not be 0.0: encode("666").stddev is 2**-54
        assert v.stddev <= 2.0**-52


@given(st.text(alphabet=st.characters(max_codepoint=127), min_size=1, max_size=40))
def test_encode_stddev_is_the_two_pass_fsum_formula(phrase):
    # equal bits, not approx: the stddev enters every reported best_r
    codes = [ord(ch) / 127 for ch in phrase]
    mu = math.fsum(codes) / len(codes)
    var = math.fsum((c - mu) ** 2 for c in codes) / len(codes)
    v = encode(phrase)
    assert v.codes == tuple(codes)
    assert v.stddev == math.sqrt(var)


# ------------------------------------------------------------- statistics


def test_stddev_all_equal_is_zero():
    assert vector_from_codes([0.5] * 10).stddev == 0.0


def test_stddev_population_form():
    v = vector_from_codes([1, 2, 3])
    assert v.stddev == pytest.approx(math.sqrt(2 / 3), abs=1e-12)


@given(code_lists)
def test_statistics_match_direct_summation(codes):
    v = vector_from_codes(codes)
    assert v.stddev == pytest.approx(math.sqrt(direct_var(codes)), abs=1e-12)


# ---------------------------------------------------------- distance term


def test_distance_term_identity():
    v = encode("storage")
    assert relatedness_terms(v, v)[0] == 0.0


def test_distance_term_three_four_five():
    p = vector_from_codes([0.0, 0.0])
    q = vector_from_codes([0.6, 0.8])
    assert relatedness_terms(p, q)[0] == pytest.approx(1.0 / math.sqrt(2), abs=1e-12)


def test_distance_term_pads_shorter_vector():
    # hand expansion: 'sunny' extends 'sun' by two characters vs zeros
    a, b = encode("sun"), encode("sunny")
    expected = math.sqrt((110 / 127) ** 2 + (121 / 127) ** 2) / math.sqrt(5)
    assert relatedness_terms(a, b)[0] == pytest.approx(expected, abs=1e-12)


@given(code_lists, code_lists)
def test_distance_term_symmetric_nonnegative(xs, ys):
    p = vector_from_codes(xs)
    q = vector_from_codes(ys)
    assert relatedness_terms(p, q)[0] == relatedness_terms(q, p)[0]
    assert relatedness_terms(p, q)[0] >= 0.0


@given(
    st.integers(min_value=1, max_value=32).flatmap(
        lambda n: st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=n,
                max_size=n,
            ),
            min_size=3,
            max_size=3,
        )
    )
)
def test_distance_term_triangle_inequality_equal_lengths(triple):
    u, v, w = (vector_from_codes(c) for c in triple)
    uw, uv, vw = (relatedness_terms(x, y)[0] for x, y in ((u, w), (u, v), (v, w)))
    assert uw <= uv + vw + 1e-9


# ----------------------------------------------------------- variance term


def test_variance_term_identity_is_exactly_zero():
    v = encode("renewable")
    assert relatedness_terms(v, v)[2] == 0.0


@given(code_lists, code_lists)
def test_variance_term_sign_invariant(xs, ys):
    a = vector_from_codes(xs)
    b = vector_from_codes(ys)
    assert relatedness_terms(a, b)[2] == pytest.approx(relatedness_terms(b, a)[2], abs=1e-12)
    assert relatedness_terms(a, b)[2] >= 0.0


def test_variance_term_matches_direct_evaluation():
    a, b = encode("sun"), encode("sunny")
    ca = list(a.codes) + [0.0, 0.0]
    diff = [y - x for x, y in zip(ca, b.codes)]
    assert relatedness_terms(a, b)[2] == pytest.approx(direct_var(diff), abs=1e-12)


# ------------------------------------------------------------- relatedness


def test_relatedness_identity_exactly_zero():
    for phrase in ("sun", "energy sources", "a"):
        v = encode(phrase)
        assert sum(relatedness_terms(v, v)) == 0.0


def test_relatedness_matches_oracle_on_reference_pairs():
    # zero-padding makes a length change ('sunny') cost more than same-length
    # character churn ('lock'); the oracle fixes both values, the
    # implementation must agree either way
    for a, b in (("sun", "sunny"), ("sun", "lock")):
        assert sum(relatedness_terms(encode(a), encode(b))) == pytest.approx(
            oracle_relatedness(a, b), abs=1e-12
        )


def test_relatedness_orders_equal_length_near_variant_first():
    r_near = oracle_relatedness("sun", "son")
    r_far = oracle_relatedness("sun", "lock")
    assert r_near < r_far  # fix the oracle ordering first
    lhs = sum(relatedness_terms(encode("sun"), encode("son")))
    rhs = sum(relatedness_terms(encode("sun"), encode("lock")))
    assert lhs == pytest.approx(r_near, abs=1e-12)
    assert rhs == pytest.approx(r_far, abs=1e-12)
    assert lhs < rhs


@settings(max_examples=250)
@given(phrases, phrases)
def test_relatedness_nonnegative_and_matches_oracle(a, b):
    value = sum(relatedness_terms(encode(a), encode(b)))
    assert value >= 0.0
    assert value == pytest.approx(oracle_relatedness(a, b), abs=1e-12)


def test_relatedness_nonnegative_on_thousand_random_pairs():
    rng = random.Random(90210)
    for _ in range(1000):
        a = "".join(rng.choices(PHRASE_ALPHABET.strip() + " ", k=rng.randint(1, 20)))
        b = "".join(rng.choices(PHRASE_ALPHABET.strip() + " ", k=rng.randint(1, 20)))
        assert sum(relatedness_terms(encode(a or "x"), encode(b or "x"))) >= 0.0


# the terms of pinned pairs, bit for bit, which every reported best_r rests
# on: zero padding, NUL-padded rows, non-ASCII and code points up to U+10FFFF
PINNED_TERMS = [
    (("sun", "son"), ("0x1.bee5797875b66p-6", "0x1.946670544b338p-8", "0x1.040c2050c1c46p-11")),
    (("sun", "sunny"), ("0x1.26d433229e269p-1", "0x1.4a36d9fac09b0p-7", "0x1.98123a8cce241p-3")),
    (("sun", "sun\x00"), ("0x0.0p+0", "0x1.76cf8fa8ae428p-2", "0x0.0p+0")),
    (("b1", "b1" + "\x00" * 16), ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0")),
    (("caf\xe9", "cafe"), ("0x1.0a142850a1428p-1", "0x1.c36b0a1814cf9p-2", "0x1.9ed4d80cd3190p-3")),
    (
        ("€\U0010ffff", "sun"),
        ("0x1.3c86d998e1fa9p+12", "0x1.1014fbc2ed88dp+12", "0x1.0300dec0c9046p+24"),
    ),
    (
        ("speed of wind", "wind speed"),
        ("0x1.f3971d9afd5e2p-2", "0x1.1305f73950070p-5", "0x1.ba61dc03e3a98p-3"),
    ),
]


@pytest.mark.parametrize(("pair", "hexes"), PINNED_TERMS, ids=[repr(p) for p, _ in PINNED_TERMS])
def test_relatedness_terms_default_cap_keeps_the_pinned_bits(pair, hexes):
    a, b = map(encode, pair)
    assert tuple(x.hex() for x in relatedness_terms(a, b)) == hexes
