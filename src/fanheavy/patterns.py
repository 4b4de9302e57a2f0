"""Catalog of the small pattern graphs and induced-copy search.

A `Pattern` builds its copy-search plans and kernels on first use.
The catalog patterns are module constants: `pattern(name)` returns the
shared instance, so no search rebuilds a plan, and importing the module
builds none.  A plan is a forward table that carries lex-leader
constraints from the pattern's automorphism group, so the search meets
each copy once, not once per automorphism.

`_compile` turns a table into a kernel, Python source with one nested
loop per position and the table's masks written in, run through `exec`;
it finds the copies and the automorphisms behind the plans.  Each mapped
vertex cuts the hosts of every later position at once; a branch that
leaves one none holds no embedding, so the yields are those of a search
that meets the dead end only on reaching that position.

Canonical pattern numbering (frozen so fixtures stay stable):
  claw       center 0, ends 1..3
  p4..p7     path order 0..k-1
  deer       triangle 0,1,2; pendant paths 0-3-4 and 1-5-6
  hourglass  shared vertex 0, triangles {0,1,2} and {0,3,4}
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterator

from .graph import Graph, iter_bits, path_graph

ISO_MAX_N = 10
_NEST = 20


def _search_plan(p: Graph, root: int) -> tuple[tuple, int]:
    """Map `root` first, then always a vertex adjacent to a mapped one
    when possible.  Returns (forward, orbit): forward is the forward table
    of that order.  forward[pos] lists a (later position q, adjacent in p,
    cut) triple for each position after pos; a set `cut`, a lex-leader
    cut, asks the image of q to lie above that of pos.

    Let v_i be the vertex of position i and G_i the automorphisms of p
    fixing v_0 .. v_{i-1}.  An embedding is the lexicographically least
    of its Aut(p)-orbit exactly when, for every i, it maps the rest of
    the G_i-orbit of v_i (all at later positions) above v_i: the
    lex-leader rule.  after[pos] is the latest such i for the vertex of
    pos, or -1, and forward cuts there; the earlier ones follow.  Each
    orbit comes from one automorphism search per later vertex, never from
    listing the group.  `orbit` is the Aut(p)-orbit of root, a bitmask.
    """
    n, adj = p.n, p.adj
    deg = [row.bit_count() for row in adj]
    rest = sorted(set(range(n)) - {root}, key=lambda v: (-deg[v], v))
    order, placed = [root], 1 << root
    while rest:
        anchored = [(adj[v] & placed).bit_count() for v in rest]
        v = rest.pop(anchored.index(max(anchored)))
        order.append(v)
        placed |= 1 << v
    uncut = tuple(tuple((q, (adj[v] >> order[q]) & 1, False) for q in range(pos + 1, n))
                  for pos, v in enumerate(order))
    search = _compile(uncut)
    after = [-1] * n
    orbit = 1 << root
    for i in range(n):
        for q, w in enumerate(order[i + 1:], i + 1):
            row = [1 << u for u in order[:i]] + [1 << w] + [p.full_mask()] * (n - i - 1)
            if next(search(adj, 0, *row), 0):
                after[q] = i
                if i == 0:
                    orbit |= 1 << w
    forward = tuple(tuple((q, a, after[q] == pos) for q, a, _ in row) if pos in after else row
                    for pos, row in enumerate(uncut))
    return forward, orbit


def _compile(forward: tuple) -> Callable[..., Iterator[int]]:
    """The kernel of a forward table: kernel(adj, 0, *row) yields the
    host vertex bitmask of each embedding in the host rows `adj`, given
    the host candidates `row` of each position.  Loop level i maps
    position i to its host bi; mi holds the hosts of the positions before
    it, ri_q those left for position q >= i.  Only the table's integers
    and booleans reach the source.  CPython nests at most 20 loops in a
    function, so each _NEST positions run in a function of their own.
    """
    k = len(forward)
    src = []
    for s in range(0, k, _NEST):
        src.append(f"def f{s}(adj, m{s}, {', '.join(f'r{s}_{q}' for q in range(s, k))}):")
        for i in range(s, min(s + _NEST, k)):
            t, r = " " * (i - s + 1), f"r{i}_{i}"
            src += [f"{t}while {r}:", f"{t} b{i} = {r} & -{r}", f"{t} {r} ^= b{i}"]
            if i + 1 == k:
                src.append(f"{t} yield m{i} | b{i}")
                break
            src += [f"{t} a = adj[b{i}.bit_length() - 1]", f"{t} na = ~(a | b{i})"]
            for q, adjacent, cut in forward[i]:
                mask = ("a" if adjacent else "na") + (f" & -(b{i} << 1)" if cut else "")
                src.append(f"{t} if not (r{i + 1}_{q} := r{i}_{q} & {mask}): continue")
            src.append(f"{t} m{i + 1} = m{i} | b{i}")
        else:
            rows = ", ".join(f"r{i + 1}_{q}" for q in range(i + 1, k))
            src.append(f"{t} yield from f{i + 1}(adj, m{i + 1}, {rows})")
    namespace = {}
    exec("\n".join(src), namespace)
    return namespace["f0"]


@dataclass(frozen=True)
class Pattern:
    """A named pattern graph and its copy-search kernels, built on first use.

    `kernels` maps the lowest root of each Aut-orbit of vertices to the
    kernel of its plan, the forward table of `_search_plan`.  The default
    search order is the plan of `top`, the vertex of max degree with the
    lowest index.
    """
    name: str
    graph: Graph

    @cached_property
    def kernels(self) -> dict[int, Callable[..., Iterator[int]]]:
        g = self.graph
        by_root, covered = {}, 0
        for root in range(g.n):
            if not (covered >> root) & 1:
                forward, orbit = _search_plan(g, root)
                by_root[root] = _compile(forward)
                covered |= orbit
        return by_root

    @cached_property
    def top(self) -> int:
        # the lowest vertex of max degree is the lowest of its orbit
        deg = [row.bit_count() for row in self.graph.adj]
        return deg.index(max(deg))


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


@cache
def pattern(token: str) -> Pattern:
    """The shared catalog instance of a name in any case, or a custom
    pattern from a graph6 string, built once per token so its search plans
    and kernels are compiled once."""
    key = token.lower()
    if key in _CATALOG:
        return _CATALOG[key]
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
    """Isomorphism test by degree sequence, then canonical form, for n <= 10."""
    if g1.n > ISO_MAX_N or g2.n > ISO_MAX_N:
        raise ValueError(f"isomorphism test limited to n <= {ISO_MAX_N}")
    if sorted(map(int.bit_count, g1.adj)) != sorted(map(int.bit_count, g2.adj)):
        return False
    from .generate import canonical_form
    return canonical_form(g1) == canonical_form(g2)


def _induced_copies(g: Graph, p: Pattern, below: int | None = None) -> Iterator[int]:
    """Yield the host vertex bitmask of every embedding of the pattern.

    Pattern vertices are mapped in the position order of the plan of
    `p.top`, lowest host first, so embeddings come in lexicographic order
    of their image vectors.  A position's hosts are adjacent to the images
    of its pattern neighbours, non-adjacent to (and distinct from) the
    other images and, by the lex-leader cuts, above one earlier image.
    Each image cuts the hosts of all later positions at once, and a branch
    ends when one has none left: it holds no embedding, so the yields are
    those of a search that finds a position's hosts on reaching it.  The
    lex-leader cuts keep the least embedding of each Aut-orbit, so each
    copy comes once, and the first copy is the same as without them.  A
    plan runs as its kernel from `p.kernels`, whose nested loops take the
    same steps in the same order as a loop reading the table would, so
    the kernel changes how fast the copies come, not which or in what order.

    With `below`, the copies whose smallest vertex is below it come in
    order of their smallest vertex: for a = 0, 1, ..., below - 1 the host
    is cut to the vertices >= a, and each root of `p.kernels` in turn is
    mapped to a first, with its plan.  Every copy with smallest vertex a
    is found with a root that some embedding maps to a; those roots form
    one Aut-orbit, of which `p.kernels` holds one.  `below=g.n` walks
    every copy.
    """
    k = p.graph.n
    if k == 0 or k > g.n:
        return
    adj, full = g.adj, g.full_mask()
    if below is None:
        yield from p.kernels[p.top](adj, 0, *[full] * k)
        return
    kernels = p.kernels.values()
    for a in range(min(g.n - k + 1, below)):
        rest = [full >> a << a] * (k - 1)
        for kernel in kernels:
            yield from kernel(adj, 0, 1 << a, *rest)


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
