"""Concept graph validation, LCS, and similarity scoring."""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import oracle_lcs_and_depth, plain_phrase_score
from reference import random_rooted_dag, random_rooted_tree
from repo_paths import DATA_DIR, REPO_ROOT
from vendormatch import taxonomy
from vendormatch.taxonomy import (
    Taxonomy,
    TaxonomyError,
    lcs,
    load_taxonomy,
    phrase_score,
    wup_score,
)
from vendormatch.textstats import DEFAULT_STOPWORDS


def tax(*edges):
    return Taxonomy.from_edges(edges)


# ------------------------------------------------------------------- load


def test_load_computes_depths(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("solar\tenergy\nwind\tenergy\n", encoding="utf-8")
    t = load_taxonomy(path)
    assert sorted(t) == ["energy", "solar", "wind"]
    assert {c: t.depth(c) for c in ("energy", "solar", "wind")} == {
        "energy": 1,
        "solar": 2,
        "wind": 2,
    }


def test_load_detects_two_cycle(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("a\tb\nb\ta\n", encoding="utf-8")
    with pytest.raises(TaxonomyError, match="cycle"):
        load_taxonomy(path)


def test_self_loop_is_a_cycle():
    with pytest.raises(TaxonomyError, match="cycle.*'a'"):
        tax(("a", "a"))


def test_cycle_error_names_a_concept_on_the_cycle():
    # 'a' hangs below the b <-> c cycle and sorts first, but is not on it
    with pytest.raises(TaxonomyError, match="^cycle detected involving concept '[bc]'"):
        tax(("b", "c"), ("c", "b"), ("a", "b"), ("x", "r"))


def test_iteration_order_ignores_edge_order():
    rng = random.Random(5)
    for _ in range(50):
        edges, _ = random_rooted_dag(rng)
        shuffled = rng.sample(edges, len(edges))
        assert list(tax(*shuffled)) == list(tax(*edges))
    # parents first, each concept's children in id order
    assert list(tax(("d", "c"), ("d", "b"), ("c", "a"), ("b", "a"))) == list("abcd")


def test_iteration_order_and_cycle_message_ignore_string_hashing():
    script = (
        "from vendormatch.taxonomy import Taxonomy, TaxonomyError\n"
        "edges = [('d', 'b'), ('d', 'c'), ('e', 'c'), ('b', 'a'), ('c', 'a')]\n"
        "print(list(Taxonomy.from_edges(edges)))\n"
        "try:\n"
        "    Taxonomy.from_edges([('p', 'q'), ('q', 'p'), ('s', 't'), ('t', 's'),"
        " ('u', 'q'), ('u', 't')])\n"
        "except TaxonomyError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script],
            env={**env, "PYTHONHASHSEED": seed},
            capture_output=True,
            check=True,
            timeout=60,
        ).stdout
        for seed in ("0", "1", "2", "3")
    }
    assert len(outputs) == 1, outputs


def test_diamond_depth_with_equal_parent_paths():
    t = tax(("d", "b"), ("d", "c"), ("b", "a"), ("c", "a"))
    assert t.depth("d") == 3


def test_multiple_roots_rejected():
    with pytest.raises(TaxonomyError, match="multiple roots"):
        tax(("x", "r1"), ("y", "r2"))


def test_no_concepts_means_no_root():
    with pytest.raises(TaxonomyError, match="no root"):
        Taxonomy.from_edges([])


def test_edge_parent_becomes_a_concept():
    t = tax(("b", "ghost"))
    assert t.depth("ghost") == 1
    assert t.depth("b") == 2


def test_load_malformed_line(tmp_path):
    path = tmp_path / "t.tsv"
    for content, lineno in (
        ("solar energy\n", 1),
        # a leaf whose id is not one token can never be scored; the message
        # names the line of its first edge
        ("solar panel\tenergy\nwind\tenergy\n", 1),
        ("wind\tenergy\nwind-turbine\twind\n", 2),
        ("ré\troot\n", 1),
    ):
        path.write_text(content, encoding="utf-8")
        with pytest.raises(TaxonomyError, match=f"line {lineno}:"):
            load_taxonomy(path)


@pytest.mark.parametrize(
    ("edges", "edge"),
    [
        ([("solar panel", "energy"), ("panel", "energy")], 0),
        ([("wind", "energy"), ("Wind-Turbine", "wind"), ("wind-turbine", "x")], 1),
        ([("ré", "root")], 0),
    ],
)
def test_from_edges_rejects_dead_leaf(edges, edge):
    # the constructor holds the rule, so a taxonomy built in code cannot
    # carry a leaf that no phrase resolves to; ``edge`` is its first edge
    with pytest.raises(TaxonomyError, match="leaf concept") as info:
        Taxonomy.from_edges(edges)
    assert info.value.edge == edge


def test_load_accepts_multi_word_inner_concept(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text(
        "solar\trenewable energy\nwind\trenewable energy\n"
        "renewable energy\tenergy\n",
        encoding="utf-8",
    )
    t = load_taxonomy(path)
    assert lcs(t, "solar", "wind") == "renewable energy"
    assert wup_score(t, "solar", "wind") == 2 / 3


@pytest.mark.parametrize(
    "content",
    [
        "a\troot\n\nb\troot\n",
        # only LF ends a line: another separator stays inside its record
        "a\troot\nb\troot\u2028c\troot\n",
    ],
)
def test_load_blank_line_names_line_number(tmp_path, content):
    # the same rule as the marking file: a blank line is malformed
    path = tmp_path / "t.tsv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(TaxonomyError, match="line 2"):
        load_taxonomy(path)


def test_load_crlf_reads_as_lf(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes(b"solar\tenergy\r\nwind\tenergy\r\n")
    t = load_taxonomy(path)
    assert sorted(t) == ["energy", "solar", "wind"]
    assert t.depth("energy") == 1
    assert t.depth("wind") == 2


def test_load_drops_a_byte_order_mark(tmp_path, bundled_taxonomy):
    path = tmp_path / "t.tsv"
    path.write_bytes(b"\xef\xbb\xbf" + (DATA_DIR / "taxonomy.tsv").read_bytes())
    t = load_taxonomy(path)
    assert list(t) == list(bundled_taxonomy)
    assert [t.depth(c) for c in t] == [bundled_taxonomy.depth(c) for c in t]


def test_load_ids_lowercased(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("Solar\tEnergy\n", encoding="utf-8")
    t = load_taxonomy(path)
    assert "solar" in t and "energy" in t


# -------------------------------------------------------------------- lcs


def test_lcs_of_concept_with_itself():
    t = tax(("a", "root"), ("b", "a"))
    assert lcs(t, "b", "b") == "b"


def test_lcs_of_siblings_is_parent():
    t = tax(("a", "root"), ("b", "a"), ("c", "a"))
    assert lcs(t, "b", "c") == "a"


def test_lcs_equal_depth_tie_breaks_lexicographically():
    # b and c each descend from both m and k, which sit at equal depth
    t = tax(("m", "root"), ("k", "root"), ("b", "m"), ("b", "k"), ("c", "m"), ("c", "k"))
    winner, *_ = oracle_lcs_and_depth(
        [("m", "root"), ("k", "root"), ("b", "m"), ("b", "k"), ("c", "m"), ("c", "k")],
        "b",
        "c",
    )
    assert winner == "k"
    assert lcs(t, "b", "c") == "k"


def test_lcs_unknown_concept():
    t = tax(("a", "root"))
    with pytest.raises(KeyError, match="ghost"):
        lcs(t, "a", "ghost")


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_lcs_agrees_with_oracle_on_random_dags(reverse):
    # Ancestor sets are kept once walked, so no answer may depend on which
    # pairs a fresh taxonomy was asked first.
    rng = random.Random(1105)
    for _ in range(10):
        edges, ids = random_rooted_dag(rng, max_nodes=25)
        t = Taxonomy.from_edges(edges)
        pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i:]]
        if reverse:
            pairs = [(b, a) for a, b in reversed(pairs)]
        for a, b in pairs:
            expected, *_ = oracle_lcs_and_depth(edges, a, b)
            assert lcs(t, a, b) == expected


def test_deep_chain_builds_in_linear_memory():
    # c0 <- c1 <- ... <- c2999. A full ancestor closure would hold ~4.5M
    # entries (over 200 MiB); graph, depths and the two asked sets hold ~10k.
    edges = [(f"c{i}", f"c{i - 1}") for i in range(1, 3000)]
    tracemalloc.start()
    try:
        t = Taxonomy.from_edges(edges)
        assert lcs(t, "c2999", "c1500") == "c1500"
        assert wup_score(t, "c2999", "c1500") == 2 * 1501 / (3000 + 1501)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ------------------------------------------------------------------- wup


def test_wup_identity_is_one():
    t = tax(("a", "root"), ("b", "a"))
    for c in ("root", "a", "b"):
        assert wup_score(t, c, c) == 1.0


def test_wup_sibling_tree_two_thirds():
    t = tax(("a", "root"), ("b", "a"), ("c", "a"))
    score = wup_score(t, "b", "c")
    assert score == 2 / 3
    assert lcs(t, "b", "c") == "a"


def test_wup_never_zero_on_dags():
    rng = random.Random(7)
    edges, ids = random_rooted_dag(rng, max_nodes=30)
    t = Taxonomy.from_edges(edges)
    for a in ids:
        for b in ids:
            assert wup_score(t, a, b) > 0.0


def test_wup_bounded_by_one_on_trees():
    # every ancestor is shallower than its descendants, so the similarity
    # cannot exceed 1 (multi-parent DAGs: see the tests below)
    rng = random.Random(11)
    for _ in range(5):
        edges, ids = random_rooted_tree(rng, max_nodes=30)
        t = Taxonomy.from_edges(edges)
        for a in ids:
            for b in ids:
                assert wup_score(t, a, b) <= 1.0


def test_wup_shortcut_parents_take_the_longest_path_depth():
    # siblings with a shortcut edge to the root and a deep shared ancestor
    t = tax(
        ("x1", "r"),
        ("x2", "x1"),
        ("x3", "x2"),
        ("a", "r"),
        ("a", "x3"),
        ("b", "r"),
        ("b", "x3"),
    )
    assert t.depth("a") == t.depth("b") == 5  # via x3, not via the root
    score = wup_score(t, "a", "b")
    assert lcs(t, "a", "b") == "x3"
    assert score == 2.0 * 4 / (5 + 5) == 0.8


def test_lcs_identity_and_wup_bounds_on_random_dags():
    shortcut = tax(("a", "root"), ("b", "a"), ("c", "b"), ("c", "root"))
    assert shortcut.depth("c") == 4
    assert lcs(shortcut, "c", "c") == "c"
    assert wup_score(shortcut, "c", "c") == 1.0
    rng = random.Random(31)
    for _ in range(20):
        edges, ids = random_rooted_dag(rng, max_nodes=30)
        t = Taxonomy.from_edges(edges)
        for a in ids:
            assert lcs(t, a, a) == a
            for b in ids:
                assert 0.0 < wup_score(t, a, b) <= 1.0


def test_wup_symmetric_exactly():
    rng = random.Random(23)
    edges, ids = random_rooted_dag(rng, max_nodes=30)
    t = Taxonomy.from_edges(edges)
    for _ in range(200):
        a, b = rng.choice(ids), rng.choice(ids)
        assert wup_score(t, a, b) == wup_score(t, b, a)
        assert lcs(t, a, b) == lcs(t, b, a)


def test_wup_reversed_pair_reads_the_cached_score(monkeypatch):
    rng = random.Random(29)
    edges, ids = random_rooted_dag(rng, max_nodes=30)
    t = Taxonomy.from_edges(edges)
    lcs_calls = []
    monkeypatch.setattr(
        taxonomy, "lcs", lambda t, a, b: lcs_calls.append((a, b)) or lcs(t, a, b)
    )
    for a, b in itertools.product(ids, repeat=2):
        first = wup_score(t, a, b)
        calls = len(lcs_calls)
        assert wup_score(t, b, a).hex() == first.hex()
        assert wup_score(t, a, b).hex() == first.hex()
        assert len(lcs_calls) == calls
        _, depth_a, depth_b, depth_lcs = oracle_lcs_and_depth(edges, a, b)
        assert first.hex() == (2.0 * depth_lcs / (depth_a + depth_b)).hex()
    # one lcs per unordered pair, then only cached reads
    assert len(lcs_calls) == len(ids) * (len(ids) + 1) // 2


def test_wup_unknown_concept_raises_on_every_call():
    t = tax(("b", "a"), ("c", "a"))
    for _ in range(2):
        for a, b in (("b", "zz"), ("zz", "b"), ("zz", "zz"), ("a", "")):
            with pytest.raises(KeyError, match="unknown concept"):
                wup_score(t, a, b)
        assert wup_score(t, "b", "c") == 2 / 4
        assert wup_score(t, "c", "b") == 2 / 4


def test_wup_deeper_lcs_scores_higher():
    # both pairs sit at depth 4; only the subsumer depth differs
    t = tax(
        ("a", "root"),
        ("b", "a"),
        ("p", "b"),
        ("q", "b"),
        ("c", "a"),
        ("d", "a"),
        ("r", "c"),
        ("s", "d"),
    )
    near = wup_score(t, "p", "q")  # lcs b at depth 3
    far = wup_score(t, "r", "s")  # lcs a at depth 2
    assert t.depth("p") == t.depth("r") == 4
    assert near > far


# ---------------------------------------------------------- phrase_score


def test_phrase_score_permuted_tokens_equal_one(bundled_taxonomy):
    score = phrase_score(bundled_taxonomy, "wind speed", "speed of wind")
    assert score == 1.0


def test_phrase_score_identical_single_token(bundled_taxonomy):
    assert phrase_score(bundled_taxonomy, "solar", "solar") == 1.0


def test_phrase_score_single_resolvable_tokens_score_wup(bundled_taxonomy):
    score = phrase_score(bundled_taxonomy, "sun", "solar")
    assert score == pytest.approx(10 / 11, abs=1e-12)
    assert lcs(bundled_taxonomy, "sun", "solar") == "solar"


def test_phrase_score_alignment_oracle():
    t = tax(("solar", "power"), ("wind", "power"))
    # exhaustive pair table: wup(solar,wind)=0.5, wup(solar,power)=wup(wind,power)=2/3,
    # wup(power,power)=1; greedy best per token then symmetric mean:
    expected = ((2 / 3 + 1.0) / 2 + (2 / 3 + 1.0) / 2) / 2
    score = phrase_score(t, "solar power", "wind power")
    assert score == pytest.approx(expected, abs=1e-12)
    assert score == pytest.approx(5 / 6, abs=1e-12)


def test_phrase_score_unresolvable_equal_strings(bundled_taxonomy):
    assert "turbines" not in bundled_taxonomy
    assert phrase_score(bundled_taxonomy, "turbines", "turbines") == 1.0


def test_phrase_score_mixed_resolution_contributes_zero(bundled_taxonomy):
    # 'turbine' resolves, 'turbiner' does not: the pair cannot match
    assert phrase_score(bundled_taxonomy, "turbine", "turbiner") == 0.0


def test_phrase_score_stopword_only_fallback(bundled_taxonomy):
    assert phrase_score(bundled_taxonomy, "of", "of") == 1.0
    assert phrase_score(bundled_taxonomy, "of", "the") == 0.0


@given(
    st.lists(
        st.sampled_from(["solar", "wind", "sun", "panels", "quartz", "zebra"]),
        min_size=1,
        max_size=3,
    ),
    st.lists(
        st.sampled_from(["solar", "wind", "sun", "panels", "quartz", "zebra"]),
        min_size=1,
        max_size=3,
    ),
)
def test_phrase_score_symmetric_and_bounded(tokens_a, tokens_b):
    t = tax(
        ("sources", "energy"),
        ("radiant", "sources"),
        ("airflow", "sources"),
        ("solar", "radiant"),
        ("wind", "airflow"),
        ("sun", "solar"),
        ("panels", "solar"),
    )
    a, b = " ".join(tokens_a), " ".join(tokens_b)
    ab = phrase_score(t, a, b)
    ba = phrase_score(t, b, a)
    assert ab == ba
    assert 0.0 <= ab <= 1.0
    if set(tokens_a) == set(tokens_b):
        assert ab == 1.0


def test_phrase_score_uses_default_stopword_list(bundled_taxonomy):
    assert "of" in DEFAULT_STOPWORDS
    score = phrase_score(bundled_taxonomy, "speed of wind", "wind speed")
    assert score == 1.0


# ------------------------------------- phrase_score vs. the plain path


def assert_phrase_scores_equal_plain_path(t, phrases):
    for a, b in itertools.product(phrases, repeat=2):
        assert phrase_score(t, a, b).hex() == plain_phrase_score(t, a, b).hex(), (a, b)


def test_phrase_score_equals_plain_path_on_bundled_instances(bundled_instance_sets):
    phrases = sorted(
        {p for sets in bundled_instance_sets for found in sets.values() for p in found.instances}
    )
    assert len(phrases) > 30
    t = load_taxonomy(DATA_DIR / "taxonomy.tsv")
    assert_phrase_scores_equal_plain_path(t, phrases)


def test_phrase_score_tokenizes_each_phrase_once():
    # a fresh taxonomy, so the token memo starts empty: each phrase keeps its
    # own tokens, stopword-only phrases keep none and still fall back to
    # comparing the whole phrases, case aside
    t = load_taxonomy(DATA_DIR / "taxonomy.tsv")
    phrases = ["Of", "of", "the", "Solar Wind", "solar wind", "speed of wind", "of the sun"]
    for a, b in itertools.product(phrases, repeat=2):
        cold = phrase_score(t, a, b)
        assert cold.hex() == phrase_score(t, a, b).hex() == plain_phrase_score(t, a, b).hex()
    assert t._tokens == {
        "Of": [],
        "of": [],
        "the": [],
        "Solar Wind": ["solar", "wind"],
        "solar wind": ["solar", "wind"],
        "speed of wind": ["speed", "wind"],
        "of the sun": ["sun"],
    }
    assert phrase_score(t, "Of", "of") == 1.0
    assert phrase_score(t, "of", "the") == 0.0


def test_phrase_score_equals_plain_path_on_edge_phrases(bundled_taxonomy):
    assert "turbines" not in bundled_taxonomy and "zebra" not in bundled_taxonomy
    phrases = [
        # stopwords only
        "of", "the", "of the", "Of", "and of",
        # repeated tokens
        "wind wind", "solar solar wind", "sun of sun",
        # untaxonomized, equal or not
        "turbines", "turbines turbines", "zebra", "solar zebra", "turbines of wind",
        # mixed case
        "Solar Wind", "WIND", "sUn",
    ]
    # every ordering of three tokens, with and without a stopword between
    for tokens in itertools.permutations(["sun", "wind", "turbines"]):
        phrases += [" ".join(tokens), " of ".join(tokens)]
    for tokens in itertools.permutations(["solar", "panels", "energy"]):
        phrases.append(" ".join(tokens))
    assert_phrase_scores_equal_plain_path(bundled_taxonomy, phrases)
