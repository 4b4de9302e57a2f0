"""Catalog of the small pattern graphs and induced-copy search.

One backtracking search (`_induced_copies`) serves both entry points:
`enumerate_induced_copies` collects every copy, `has_induced_copy` stops
at the first.

Canonical pattern numbering (frozen so fixtures stay stable):
  claw       center 0, ends 1..3
  p4..p7     path order 0..k-1
  deer       triangle 0,1,2; pendant paths 0-3-4 and 1-5-6
  hourglass  shared vertex 0, triangles {0,1,2} and {0,3,4}
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graph import Graph, path_graph

ISO_MAX_N = 10


@dataclass(frozen=True)
class Pattern:
    name: str
    graph: Graph


def _claw() -> Graph:
    return Graph(4, [(0, 1), (0, 2), (0, 3)])


def _deer() -> Graph:
    return Graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (1, 5), (5, 6)])


def _hourglass() -> Graph:
    return Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


_CATALOG = {
    "claw": _claw,
    "p4": lambda: path_graph(4),
    "p5": lambda: path_graph(5),
    "p6": lambda: path_graph(6),
    "p7": lambda: path_graph(7),
    "deer": _deer,
    "hourglass": _hourglass,
}

CATALOG_NAMES = tuple(_CATALOG)


def pattern(name: str) -> Pattern:
    key = name.lower()
    if key not in _CATALOG:
        raise ValueError(f"unknown pattern {name!r} (known: {', '.join(CATALOG_NAMES)})")
    return Pattern(key, _CATALOG[key]())


def pattern_from_spec(token: str) -> Pattern:
    """Catalog name, or a graph6 string for a custom pattern."""
    key = token.lower()
    if key in _CATALOG:
        return pattern(key)
    from .graphio import GraphFormatError, decode_graph6
    try:
        return Pattern(f"g6:{token}", decode_graph6(token))
    except GraphFormatError:
        raise ValueError(
            f"unknown pattern {token!r}: not a catalog name "
            f"({', '.join(CATALOG_NAMES)}) and not valid graph6")


def is_isomorphic_small(g1: Graph, g2: Graph) -> bool:
    """Backtracking isomorphism test with degree pruning, for n <= 10."""
    if g1.n > ISO_MAX_N or g2.n > ISO_MAX_N:
        raise ValueError(f"isomorphism test limited to n <= {ISO_MAX_N}")
    if g1.n != g2.n or g1.num_edges() != g2.num_edges():
        return False
    deg1 = [g1.degree(v) for v in range(g1.n)]
    deg2 = [g2.degree(v) for v in range(g2.n)]
    if sorted(deg1) != sorted(deg2):
        return False
    n = g1.n
    # map vertices of g1 in decreasing-degree order; ties by index
    order = sorted(range(n), key=lambda v: (-deg1[v], v))
    image = [-1] * n
    used = 0

    def extend(pos: int) -> bool:
        nonlocal used
        if pos == n:
            return True
        v = order[pos]
        for w in range(n):
            if (used >> w) & 1 or deg2[w] != deg1[v]:
                continue
            ok = True
            for prev in order[:pos]:
                if ((g1.adj[v] >> prev) & 1) != ((g2.adj[w] >> image[prev]) & 1):
                    ok = False
                    break
            if not ok:
                continue
            image[v] = w
            used |= 1 << w
            if extend(pos + 1):
                return True
            used ^= 1 << w
            image[v] = -1
        return False

    return extend(0)


def _search_order(p: Graph) -> list[int]:
    """Pattern-vertex order: max degree first, then always adjacent to a
    mapped vertex when possible (patterns are connected)."""
    if p.n == 0:
        return []
    order = [max(range(p.n), key=lambda v: (p.degree(v), -v))]
    placed = 1 << order[0]
    while len(order) < p.n:
        best = None
        for v in range(p.n):
            if (placed >> v) & 1:
                continue
            anchored = (p.adj[v] & placed).bit_count()
            key = (anchored, p.degree(v), -v)
            if best is None or key > best[0]:
                best = (key, v)
        order.append(best[1])
        placed |= 1 << best[1]
    return order


def _induced_copies(g: Graph, p: Pattern) -> Iterator[tuple[int, ...]]:
    """Yield the sorted host vertex set of every embedding of the pattern.

    Pattern vertices are mapped one at a time in `_search_order`.  The
    candidates of each position are the hosts adjacent to the images of
    its pattern neighbours and non-adjacent to (and distinct from) the
    other mapped images.  An explicit stack holds the untried candidates
    of each position, and the lowest host is tried first.  A copy is
    yielded once per automorphism of the pattern.
    """
    pg = p.graph
    k = pg.n
    if k == 0 or k > g.n:
        return
    order = _search_order(pg)
    # links[pos]: (earlier position, adjacent in the pattern) pairs
    links = [[(j, (pg.adj[order[pos]] >> order[j]) & 1) for j in range(pos)]
             for pos in range(k)]
    adj = g.adj
    full = g.full_mask()
    image = [0] * k
    stack = [full]
    while stack:
        pos = len(stack) - 1
        cands = stack[pos]
        if not cands:
            stack.pop()
            continue
        low = cands & -cands
        stack[pos] = cands ^ low
        image[pos] = low.bit_length() - 1
        if pos + 1 == k:
            yield tuple(sorted(image))
            continue
        mask = full
        for j, adjacent in links[pos + 1]:
            host = image[j]
            mask &= adj[host] if adjacent else ~(adj[host] | (1 << host))
        stack.append(mask)


def enumerate_induced_copies(g: Graph, p: Pattern) -> list[tuple[int, ...]]:
    """All vertex subsets of `g` inducing a copy of the pattern, each once
    as a sorted tuple, in lexicographic order."""
    return sorted(set(_induced_copies(g, p)))


def has_induced_copy(g: Graph, p: Pattern) -> tuple[int, ...] | None:
    """The first copy in search order (not necessarily the
    lexicographically smallest subset), or None when the host is
    pattern-free."""
    return next(_induced_copies(g, p), None)
