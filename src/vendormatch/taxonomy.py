"""Rooted IS-A concept graph with depth, LCS, and similarity scoring.

The taxonomy is a DAG loaded from an edge-list file (``<child>\\t<parent>``
per line); every id an edge names is a concept, and the unique parentless
concept is the root. Depth counts from 1 at the root along the longest path
down to a concept, so every ancestor is strictly shallower than its
descendants and every similarity score lies in (0, 1]. Scores are plain
floats; :func:`lcs` names the subsumer on demand. Graph and depths are
fixed at construction; each ancestor set is walked on first use and kept,
and so are the Wu-Palmer score of each concept pair scored and the tokens
of each phrase scored.
"""

from __future__ import annotations

import graphlib
import math
from pathlib import Path
from typing import Iterable, Iterator

from .marking import read_records
from .textstats import DEFAULT_STOPWORDS, _TOKEN_RE


class TaxonomyError(ValueError):
    """Malformed taxonomy file, dead leaf, cycle, or root count other than one."""

    def __init__(self, message: str, edge: int | None = None) -> None:
        super().__init__(message)
        #: Position of the offending edge when one edge is at fault, else None.
        self.edge = edge


class Taxonomy:
    """Depths and parent lists of a validated DAG; see :meth:`from_edges`.

    It also keeps each ancestor set it has walked, the :func:`wup_score`
    of each unordered concept pair it has scored and the stopword-filtered
    tokens of each phrase :func:`phrase_score` has read.
    """

    def __init__(self, depths: dict[str, int], parents: dict[str, list[str]]) -> None:
        self._depths = depths
        self._parents = parents
        self._ancestors: dict[str, frozenset[str]] = {}
        self._wup: dict[tuple[str, str], float] = {}
        self._tokens: dict[str, list[str]] = {}

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str]]) -> "Taxonomy":
        """Validate ``(child, parent)`` edges and compute depths.

        Ids are lowercased. Every id named by an edge, child or parent, is a
        concept, so no parent reference can dangle. Raises TaxonomyError for
        a leaf (a concept that is no edge's parent) whose id is not one token
        (``[a-z0-9]+``), since no phrase can resolve to it and it subsumes
        nothing; the error's ``edge`` is the position of the leaf's first
        edge. Inner concepts may have any id. Also raises it for a cycle,
        naming a concept on it, and for a root count other than one.
        Iteration order is ``graphlib.TopologicalSorter``'s: parents first,
        each concept's children in id order.
        """
        edges = [(child.lower(), parent.lower()) for child, parent in edges]
        parents: dict[str, set[str]] = {}
        for child, parent in edges:
            parents.setdefault(child, set()).add(parent)
            parents.setdefault(parent, set())
        inner = {parent for _, parent in edges}
        for position, (child, _) in enumerate(edges):
            if child not in inner and not _TOKEN_RE.fullmatch(child):
                raise TaxonomyError(
                    f"leaf concept {child!r} is not a single token ([a-z0-9]+), "
                    "so no phrase can resolve to it",
                    edge=position,
                )

        # Sorted, so neither edge order nor string hashing changes the result.
        graph = {c: sorted(parents[c]) for c in sorted(parents)}
        try:
            order = list(graphlib.TopologicalSorter(graph).static_order())
        except graphlib.CycleError as exc:
            member = min(exc.args[1])
            raise TaxonomyError(f"cycle detected involving concept {member!r}") from exc

        roots = sorted(c for c, ps in parents.items() if not ps)
        if not roots:
            raise TaxonomyError("taxonomy has no root concept")
        if len(roots) > 1:
            raise TaxonomyError(f"taxonomy has multiple roots: {roots}")

        depth: dict[str, int] = {}
        for c in order:  # parents always precede children
            depth[c] = 1 + max((depth[p] for p in graph[c]), default=0)
        return cls(depths=depth, parents=graph)

    def depth(self, concept_id: str) -> int:
        if concept_id not in self._depths:
            raise KeyError(f"unknown concept: {concept_id!r}")
        return self._depths[concept_id]

    def ancestors(self, concept_id: str) -> frozenset[str]:
        """All concepts subsuming this one, itself included.

        Walked on the first call and kept for this concept alone: keeping
        the sets of those on the way rebuilds the quadratic closure.
        """
        if concept_id not in self._ancestors:
            self.depth(concept_id)  # KeyError for an unknown concept
            seen, stack = {concept_id}, [concept_id]
            while stack:  # no recursion: a chain can outrun the recursion limit
                fresh = set(self._parents[stack.pop()]) - seen
                seen |= fresh
                stack += fresh
            self._ancestors[concept_id] = frozenset(seen)
        return self._ancestors[concept_id]

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self._depths

    def __iter__(self) -> Iterator[str]:
        return iter(self._depths)


def load_taxonomy(path: Path | str) -> Taxonomy:
    """Parse an edge-list file into a validated Taxonomy.

    One edge per line, ``<child>\\t<parent>``, validated by
    :meth:`Taxonomy.from_edges`; records are read by
    :func:`~vendormatch.marking.read_records`. Blank and malformed lines
    raise TaxonomyError with the line number; a file that is not UTF-8
    raises it too, and an error at one edge (a dead leaf) names its line.
    """
    path = Path(path)
    edges: list[tuple[str, str]] = []
    for lineno, line in enumerate(read_records(path, TaxonomyError), start=1):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise TaxonomyError(
                f"{path}: line {lineno}: expected '<child>\\t<parent>', got {line!r}"
            )
        edges.append((parts[0], parts[1]))
    try:
        return Taxonomy.from_edges(edges)
    except TaxonomyError as exc:
        if exc.edge is None:
            raise
        raise TaxonomyError(f"{path}: line {exc.edge + 1}: {exc}", exc.edge) from None


def lcs(t: Taxonomy, a: str, b: str) -> str:
    """Least common subsumer: the deepest concept subsuming both inputs.

    Ancestor sets include the concept itself and every other ancestor is
    strictly shallower, so lcs(x, x) == x. Equal-depth ties break to the
    lexicographically smallest id.
    """
    common = t.ancestors(a) & t.ancestors(b)
    return min(common, key=lambda c: (-t.depth(c), c))


def wup_score(t: Taxonomy, a: str, b: str) -> float:
    """Concept similarity: 2 * depth(LCS) / (depth(a) + depth(b)).

    With the root at depth 1 the value always lies in (0, 1]; it is 1
    exactly when the two concepts coincide. :func:`lcs` names the LCS.
    The score is symmetric to the bit, so ``t`` keeps one per unordered
    pair; an unknown concept raises KeyError and caches nothing.
    """
    key = (a, b) if a < b else (b, a)
    score = t._wup.get(key)
    if score is None:
        score = 2.0 * t.depth(lcs(t, a, b)) / (t.depth(a) + t.depth(b))
        t._wup[key] = score
    return score


def _token_pair_score(t: Taxonomy, x: str, y: str) -> float:
    if x in t and y in t:
        return wup_score(t, x, y)
    if x not in t and y not in t and x == y:
        return 1.0
    return 0.0


def _tokens(t: Taxonomy, phrase: str) -> list[str]:
    tokens = t._tokens.get(phrase)
    if tokens is None:
        tokens = [w for w in phrase.lower().split() if w not in DEFAULT_STOPWORDS]
        t._tokens[phrase] = tokens
    return tokens


def phrase_score(t: Taxonomy, a: str, b: str) -> float:
    """Phrase-level similarity via symmetrized greedy token alignment.

    Words in ``DEFAULT_STOPWORDS`` are removed first; each remaining token resolves to a concept
    by exact id match. A token pair scores its concept similarity when both
    resolve, 1.0 when neither resolves but the strings are equal, and 0
    otherwise. The phrase score averages each side's best-match mean, so
    permutations of the same token set always score 1.0, and two single
    resolvable tokens score exactly their :func:`wup_score`. If either
    phrase is nothing but stopwords, falls back to whole-phrase string
    equality.

    A token pair scores the same both ways round, so each is scored once:
    the rows of one |a| x |b| table give a's best matches and its columns
    give b's. Each phrase is tokenized once per ``t``.
    """
    tokens_a = _tokens(t, a)
    tokens_b = _tokens(t, b)
    if not tokens_a or not tokens_b:
        return 1.0 if a.lower() == b.lower() else 0.0

    rows = [[_token_pair_score(t, x, y) for y in tokens_b] for x in tokens_a]
    a_to_b = math.fsum(map(max, rows)) / len(tokens_a)
    b_to_a = math.fsum(map(max, zip(*rows))) / len(tokens_b)
    return (a_to_b + b_to_a) / 2.0
