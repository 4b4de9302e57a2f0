"""Catalog of the small pattern graphs and induced-copy search.

A `Pattern` derives its copy-search plans once, when it is built, and
keeps them.  The catalog patterns are module constants: `pattern(name)`
returns the shared instance, so no search rebuilds a plan.  A plan
carries lex-leader constraints from the pattern's automorphism group, so
the search meets each copy once, not once per automorphism.

One backtracking search (`_induced_copies`) serves every entry point:
`enumerate_induced_copies` collects every copy, `has_induced_copy` stops
at the first, and `conditions.is_R_f_heavy` walks it lazily and, on
failure, again in its anchored mode.

Canonical pattern numbering (frozen so fixtures stay stable):
  claw       center 0, ends 1..3
  p4..p7     path order 0..k-1
  deer       triangle 0,1,2; pendant paths 0-3-4 and 1-5-6
  hourglass  shared vertex 0, triangles {0,1,2} and {0,3,4}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .graph import Graph, iter_bits, path_graph

ISO_MAX_N = 10


def _search_plan(p: Graph, root: int) -> tuple[tuple, tuple, int]:
    """Map `root` first, then always a vertex adjacent to a mapped one
    when possible.  Returns (links, after, orbit): links[pos] lists the
    (earlier position, adjacent in the pattern) pairs of position pos.

    Let v_i be the vertex of position i and G_i the automorphisms of p
    fixing v_0 .. v_{i-1}.  An embedding is the lexicographically least
    of its Aut(p)-orbit exactly when, for every i, it maps the rest of
    the G_i-orbit of v_i (all at later positions) above v_i: the
    lex-leader rule.  after[pos] is the latest such i for the vertex of
    pos, or -1; the earlier ones follow, as their constraints chain.  Each
    orbit comes from one automorphism search per vertex, never from
    listing the group.  `orbit` is the Aut(p)-orbit of root, a bitmask.
    """
    deg = [row.bit_count() for row in p.adj]
    order = [root]
    placed = 1 << root
    while len(order) < p.n:
        best = None
        for v in range(p.n):
            if (placed >> v) & 1:
                continue
            anchored = (p.adj[v] & placed).bit_count()
            key = (anchored, deg[v], -v)
            if best is None or key > best[0]:
                best = (key, v)
        order.append(best[1])
        placed |= 1 << best[1]
    links = tuple(tuple((j, (p.adj[v] >> order[j]) & 1) for j in range(pos))
                  for pos, v in enumerate(order))
    same = [sum(1 << w for w in range(p.n) if deg[w] == deg[v]) for v in order]
    after = [-1] * p.n
    orbit = 1 << root
    for i, v in enumerate(order):
        fixed = [1 << u for u in order[:i]]
        for q, w in enumerate(order[i + 1:], i + 1):
            # an automorphism fixing v_0 .. v_{i-1} keeps degree and adjacency to them
            if deg[w] != deg[v] or (p.adj[v] ^ p.adj[w]) & sum(fixed):
                continue
            if _isomorphism_exists(p, p, order, fixed + [1 << w] + same[i + 1:]):
                after[q] = i
                if i == 0:
                    orbit |= 1 << w
    return links, tuple(after), orbit


def _isomorphism_exists(g1: Graph, g2: Graph, order: list[int], cands: list[int]) -> bool:
    """Whether some isomorphism g1 -> g2 maps the vertex order[pos] into
    the bitmask cands[pos] for every pos.  Vertices are mapped in `order`,
    and each choice cuts the candidates of the later ones to the hosts
    that keep adjacency to it, so a dead end shows at once."""
    if not order:
        return True
    v, later = order[0], order[1:]
    for w in iter_bits(cands[0]):
        cut = [c & (g2.adj[w] if (g1.adj[v] >> u) & 1 else ~(g2.adj[w] | (1 << w)))
               for u, c in zip(later, cands[1:])]
        if all(cut) and _isomorphism_exists(g1, g2, later, cut):
            return True
    return False


@dataclass(frozen=True)
class Pattern:
    """A named pattern graph and the copy-search plans built with it.

    A plan is the pair (links, after) of `_search_plan`.  `plan` maps a
    vertex of max degree (the lowest such index) first; `rooted` holds the
    plan of the lowest root of each Aut-orbit of vertices.
    """
    name: str
    graph: Graph
    plan: tuple = field(init=False, repr=False, compare=False)
    rooted: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g = self.graph
        by_root, covered = {}, 0
        for root in range(g.n):
            if not (covered >> root) & 1:
                links, after, orbit = _search_plan(g, root)
                by_root[root] = (links, after)
                covered |= orbit
        # the lowest vertex of max degree is the lowest of its orbit
        first = max(range(g.n), key=lambda v: (g.adj[v].bit_count(), -v), default=None)
        object.__setattr__(self, "plan", () if first is None else by_root[first])
        object.__setattr__(self, "rooted", tuple(by_root.values()))


_CATALOG = {p.name: p for p in (
    Pattern("claw", Graph(4, [(0, 1), (0, 2), (0, 3)])),
    Pattern("p4", path_graph(4)),
    Pattern("p5", path_graph(5)),
    Pattern("p6", path_graph(6)),
    Pattern("p7", path_graph(7)),
    Pattern("deer", Graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (1, 5), (5, 6)])),
    Pattern("hourglass", Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])),
)}

CATALOG_NAMES = tuple(_CATALOG)


def pattern(name: str) -> Pattern:
    """The shared catalog instance named `name` (any case)."""
    key = name.lower()
    if key not in _CATALOG:
        raise ValueError(f"unknown pattern {name!r} (known: {', '.join(CATALOG_NAMES)})")
    return _CATALOG[key]


def pattern_from_spec(token: str) -> Pattern:
    """Catalog name, or a graph6 string for a custom pattern."""
    key = token.lower()
    if key in _CATALOG:
        return pattern(key)
    from .graphio import GraphFormatError, decode_graph6
    try:
        g = decode_graph6(token)
    except GraphFormatError:
        raise ValueError(
            f"unknown pattern {token!r}: not a catalog name "
            f"({', '.join(CATALOG_NAMES)}) and not valid graph6")
    if g.n == 0:
        # K0 is an induced subgraph of every graph
        raise ValueError(f"pattern {token!r} has no vertices")
    return Pattern(f"g6:{token}", g)


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
    # map vertices of g1 in decreasing-degree order; ties by index
    order = sorted(range(g1.n), key=lambda v: (-deg1[v], v))
    return _isomorphism_exists(g1, g2, order, [
        sum(1 << w for w in range(g2.n) if deg2[w] == deg1[v]) for v in order])


def _induced_copies(g: Graph, p: Pattern, by_min: bool = False) -> Iterator[int]:
    """Yield the host vertex bitmask of every embedding of the pattern.

    Pattern vertices are mapped one at a time in the order of `p.plan`.
    The candidates of each position are the hosts adjacent to the images
    of its pattern neighbours, non-adjacent to (and distinct from) the
    other mapped images and above the image of position `after[pos]`.
    An explicit stack holds the untried candidates of each position, and
    the lowest host is tried first, so embeddings come in lexicographic
    order of their image vectors.  The `after` cuts keep only the least
    embedding of each Aut-orbit, so each copy comes once, and the first
    copy found is the same as without them: the least embedding of all
    is the least of its own orbit.

    With `by_min`, the copies come in order of their smallest vertex: for
    a = 0, 1, ... the host is cut to the vertices >= a, and each root of
    `p.rooted` in turn is mapped to a first.  Every copy with smallest
    vertex a is found with a root that some embedding maps to a; those
    roots form one Aut-orbit, of which `p.rooted` holds one.
    """
    k = p.graph.n
    if k == 0 or k > g.n:
        return
    full = g.full_mask()
    if by_min:
        starts = ((plan, 1 << a, full >> a << a)
                  for a in range(g.n - k + 1) for plan in p.rooted)
    else:
        starts = ((p.plan, full, full),)
    adj = g.adj
    image = [0] * k
    chosen = [0] * k
    for (links, after), first, allowed in starts:
        stack = [first]
        while stack:
            pos = len(stack) - 1
            cands = stack[pos]
            if not cands:
                stack.pop()
                continue
            low = cands & -cands
            stack[pos] = cands ^ low
            if pos + 1 == k:
                yield chosen[pos] | low
                continue
            chosen[pos + 1] = chosen[pos] | low
            image[pos] = low.bit_length() - 1
            mask = allowed
            for j, adjacent in links[pos + 1]:
                host = image[j]
                mask &= adj[host] if adjacent else ~(adj[host] | (1 << host))
            j = after[pos + 1]
            if j >= 0:
                mask &= -(2 << image[j])
            stack.append(mask)


def enumerate_induced_copies(g: Graph, p: Pattern) -> list[tuple[int, ...]]:
    """All vertex subsets of `g` inducing a copy of the pattern, each once
    as a sorted tuple, in lexicographic order."""
    return sorted(tuple(iter_bits(m)) for m in _induced_copies(g, p))


def has_induced_copy(g: Graph, p: Pattern) -> tuple[int, ...] | None:
    """The first copy in search order (not necessarily the
    lexicographically smallest subset), or None when the host is
    pattern-free."""
    m = next(_induced_copies(g, p), None)
    return None if m is None else tuple(iter_bits(m))
