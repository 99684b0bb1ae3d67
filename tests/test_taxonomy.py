"""Concept graph validation, LCS, and similarity scoring."""

import random
from collections import defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vendormatch.stopwords import DEFAULT_STOPWORDS
from vendormatch.taxonomy import (
    Taxonomy,
    TaxonomyError,
    lcs,
    load_taxonomy,
    phrase_score,
    wup_score,
)


def tax(*edges):
    return Taxonomy.from_edges(edges)


# ----------------------------------------------------- brute-force oracle


def oracle_lcs_and_depth(edges, a, b):
    """Independent ancestor enumeration: recursive closure + longest-path depth."""
    parents = defaultdict(set)
    nodes = set()
    for child, parent in edges:
        parents[child].add(parent)
        nodes.update((child, parent))

    depth_memo, anc_memo = {}, {}

    def depth(x):
        if x not in depth_memo:
            ps = parents.get(x, set())
            depth_memo[x] = 1 if not ps else 1 + max(depth(p) for p in ps)
        return depth_memo[x]

    def ancestors(x):
        if x not in anc_memo:
            closure = {x}
            for p in parents.get(x, set()):
                closure |= ancestors(p)
            anc_memo[x] = closure
        return anc_memo[x]

    common = ancestors(a) & ancestors(b)
    best_depth = max(depth(c) for c in common)
    winner = min(c for c in common if depth(c) == best_depth)
    return winner, depth(a), depth(b), best_depth


def random_rooted_dag(rng, max_nodes=50):
    n = rng.randint(2, max_nodes)
    ids = [f"c{i:02d}" for i in range(n)]
    edges = []
    for i in range(1, n):
        for p in rng.sample(range(i), rng.randint(1, min(2, i))):
            edges.append((ids[i], ids[p]))
    return edges, ids


def random_rooted_tree(rng, max_nodes=50):
    n = rng.randint(2, max_nodes)
    ids = [f"c{i:02d}" for i in range(n)]
    edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, n)]
    return edges, ids


# ------------------------------------------------------------------- load


def test_load_computes_depths(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("solar\tenergy\nwind\tenergy\n", encoding="utf-8")
    t = load_taxonomy(path)
    assert len(t) == 3
    assert t.root == "energy"
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
    assert t.root == "ghost"
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
    assert len(t) == 3
    assert t.root == "energy"
    assert t.depth("wind") == 2


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


def test_lcs_agrees_with_oracle_on_random_dags():
    rng = random.Random(1105)
    for _ in range(10):
        edges, ids = random_rooted_dag(rng, max_nodes=25)
        t = Taxonomy.from_edges(edges)
        for i, a in enumerate(ids):
            for b in ids[i:]:
                expected, *_ = oracle_lcs_and_depth(edges, a, b)
                assert lcs(t, a, b) == expected


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
