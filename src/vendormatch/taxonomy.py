"""Rooted IS-A concept graph with depth, LCS, and similarity scoring.

The taxonomy is a DAG loaded from an edge-list file (``<child>\\t<parent>``
per line); every id an edge names is a concept, and the unique parentless
concept is the root. Depth counts from 1 at the root along the longest path
down to a concept, so every ancestor is strictly shallower than its
descendants and every similarity score lies in (0, 1]. Scores are plain
floats; :func:`lcs` names the subsumer on demand. Immutable after
construction.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from pathlib import Path
from typing import Iterable, Iterator

from .marking import read_records
from .stopwords import DEFAULT_STOPWORDS
from .textstats import _TOKEN_RE

log = logging.getLogger(__name__)


class TaxonomyError(ValueError):
    """Malformed taxonomy file, a cycle, or a root count other than one."""


class Taxonomy:
    """Validated concept graph; use :meth:`from_edges` or :func:`load_taxonomy`."""

    def __init__(
        self,
        depths: dict[str, int],
        root: str,
        ancestors: dict[str, frozenset[str]],
    ) -> None:
        self._depths = depths
        self.root = root
        self._ancestors = ancestors

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str]]) -> "Taxonomy":
        """Validate ``(child, parent)`` edges and compute depths and ancestors.

        Ids are lowercased. Every id named by an edge, child or parent, is a
        concept, so no parent reference can dangle. Raises TaxonomyError for
        cycles (naming a member) and a root count other than one.
        """
        parents: dict[str, set[str]] = {}
        for child, parent in edges:
            child, parent = child.lower(), parent.lower()
            parents.setdefault(child, set()).add(parent)
            parents.setdefault(parent, set())

        # Kahn's algorithm over parent links; leftovers form cycles.
        remaining = {c: len(ps) for c, ps in parents.items()}
        children: dict[str, list[str]] = {c: [] for c in parents}
        for child, ps in parents.items():
            for parent in ps:
                children[parent].append(child)
        queue = deque(sorted(c for c, n in remaining.items() if n == 0))
        order: list[str] = []
        while queue:
            concept = queue.popleft()
            order.append(concept)
            for child in sorted(children[concept]):
                remaining[child] -= 1
                if remaining[child] == 0:
                    queue.append(child)
        if len(order) < len(parents):
            member = min(c for c, n in remaining.items() if n > 0)
            raise TaxonomyError(f"cycle detected involving concept {member!r}")

        roots = sorted(c for c, ps in parents.items() if not ps)
        if not roots:
            raise TaxonomyError("taxonomy has no root concept")
        if len(roots) > 1:
            raise TaxonomyError(f"taxonomy has multiple roots: {roots}")
        root = roots[0]

        depth: dict[str, int] = {}
        ancestors: dict[str, frozenset[str]] = {}
        for concept in order:  # parents always precede children
            ps = parents[concept]
            if not ps:
                depth[concept] = 1
                ancestors[concept] = frozenset({concept})
            else:
                depth[concept] = 1 + max(depth[p] for p in ps)
                merged: set[str] = {concept}
                for p in ps:
                    merged |= ancestors[p]
                ancestors[concept] = frozenset(merged)
        return cls(depths=depth, root=root, ancestors=ancestors)

    def depth(self, concept_id: str) -> int:
        if concept_id not in self._depths:
            raise KeyError(f"unknown concept: {concept_id!r}")
        return self._depths[concept_id]

    def ancestors(self, concept_id: str) -> frozenset[str]:
        """All concepts subsuming this one, itself included."""
        if concept_id not in self._ancestors:
            raise KeyError(f"unknown concept: {concept_id!r}")
        return self._ancestors[concept_id]

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self._depths

    def __iter__(self) -> Iterator[str]:
        return iter(self._depths)

    def __len__(self) -> int:
        return len(self._depths)


def load_taxonomy(path: Path | str) -> Taxonomy:
    """Parse an edge-list file into a validated Taxonomy.

    One edge per line, ``<child>\\t<parent>``; ids are lowercased, and
    records are read by :func:`~vendormatch.marking.read_records`. Blank and
    malformed lines raise TaxonomyError with the line number; a file that
    is not UTF-8 raises it too. So does a leaf (a concept that is no edge's
    parent) whose id is not one token (``[a-z0-9]+``): no phrase can
    resolve to it and it subsumes nothing. The message names the line of
    its first edge. Inner concepts may have any id.
    """
    path = Path(path)
    edges: list[tuple[str, str]] = []
    for lineno, line in enumerate(read_records(path, TaxonomyError), start=1):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise TaxonomyError(
                f"{path}: line {lineno}: expected '<child>\\t<parent>', got {line!r}"
            )
        edges.append((parts[0].lower(), parts[1].lower()))
    parents = {parent for _, parent in edges}
    for lineno, (child, _) in enumerate(edges, start=1):
        if child not in parents and not _TOKEN_RE.fullmatch(child):
            raise TaxonomyError(
                f"{path}: line {lineno}: leaf concept {child!r} is not a single "
                "token ([a-z0-9]+), so no phrase can resolve to it"
            )
    return Taxonomy.from_edges(edges)


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
    """
    return 2.0 * t.depth(lcs(t, a, b)) / (t.depth(a) + t.depth(b))


def _token_pair_score(t: Taxonomy, x: str, y: str) -> float:
    if x in t and y in t:
        return wup_score(t, x, y)
    if x not in t and y not in t and x == y:
        return 1.0
    log.debug("untaxonomized token pair: %r / %r", x, y)
    return 0.0


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
    """
    tokens_a = [w for w in a.lower().split() if w not in DEFAULT_STOPWORDS]
    tokens_b = [w for w in b.lower().split() if w not in DEFAULT_STOPWORDS]
    if not tokens_a or not tokens_b:
        return 1.0 if a.lower() == b.lower() else 0.0

    def directed(src: list[str], dst: list[str]) -> float:
        best = (max(_token_pair_score(t, x, y) for y in dst) for x in src)
        return math.fsum(best) / len(src)

    return (directed(tokens_a, tokens_b) + directed(tokens_b, tokens_a)) / 2.0
