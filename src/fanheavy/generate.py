"""Small-graph corpora: exhaustive labeled enumeration and isomorphism-
reduced representatives.

The labeled enumerator walks every upper-triangle bitmask, so it is exact
but exponential; it is the ground-truth corpus for n <= 6-7.  For larger
n the representative corpus (one graph per isomorphism class) verifies the
same isomorphism-invariant statements at a fraction of the cost.  It is
built by vertex augmentation along McKay's canonical construction path,
which keeps each class exactly once with no memory of earlier output.
Its orbit tests use the automorphisms met by `canonical_form`, a
refine-and-individualize canonical labeling in the style of nauty (McKay
and Piperno, "Practical graph isomorphism II", 2014): two graphs are
isomorphic exactly when their forms are equal.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from typing import Iterator

from .graph import Graph, iter_bits


def labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n choose 2) labeled graphs on n vertices, by edge bitmask."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        m = mask
        while m:
            low = m & -m
            u, v = pairs[low.bit_length() - 1]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            m ^= low
        yield Graph.from_rows(tuple(rows))


def refinement_key(g: Graph) -> tuple:
    """Isomorphism-invariant bucket key: three rounds of color refinement.

    Colors start as degrees; each round replaces a color with its rank in
    the sorted list of (color, sorted neighbor colors) signatures, which
    is canonical across isomorphic graphs.  Generation does not use it;
    the tests and the benchmark's trace of this module still name it.
    """
    nbrs = [list(iter_bits(row)) for row in g.adj]
    colors = [len(ws) for ws in nbrs]
    edges = sum(colors) // 2
    for _ in range(3):
        sigs = [(c, sorted([colors[w] for w in ws])) for c, ws in zip(colors, nbrs)]
        rank, last = -1, None
        for v in sorted(range(g.n), key=sigs.__getitem__):
            if sigs[v] != last:
                rank, last = rank + 1, sigs[v]
            colors[v] = rank
    return (g.n, edges, tuple(sorted(colors)))


def _refine(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """Refine the ordered partition `cells` (vertex bitmasks) in place
    until it is equitable, splitting each cell by neighbour counts into
    each splitter; the parts of a split cell keep its place, in increasing
    count order, and become splitters themselves.  A one-vertex splitter
    has counts 0 and 1 only, so a cell splits in one step into its
    non-neighbours and then its neighbours.  Every choice depends on the
    cell structure only, never on vertex labels."""
    n = len(adj)
    while splitters and len(cells) < n:
        w = splitters.pop()
        one = w & (w - 1) == 0
        row = adj[w.bit_length() - 1]
        i = 0
        while i < len(cells):
            x = cells[i]
            split = None
            if one:
                inside = x & row
                if inside and inside != x:
                    split = [x ^ inside, inside]
            elif x & (x - 1):
                parts: dict[int, int] = {}
                rest = x
                while rest:
                    low = rest & -rest
                    k = (adj[low.bit_length() - 1] & w).bit_count()
                    parts[k] = parts.get(k, 0) | low
                    rest ^= low
                if len(parts) > 1:
                    split = [parts[k] for k in sorted(parts)]
            if split:
                cells[i:i + 1] = split
                splitters += split
                i += len(split)
            else:
                i += 1
    return cells


def _canonical_search(adj: tuple[int, ...], images: bool = True
                      ) -> tuple[int, list[list[int]], list[int]]:
    """`canonical_form` of the graph with rows `adj`; the automorphisms its
    search met if `images`, as lists of vertex images: maps between leaves
    of equal certificate, and each twin's swap with its nearest lower twin;
    and the vertex order of the best leaf."""
    n = len(adj)
    best = 0
    best_order: list[int] = []
    automorphisms: list[list[int]] = []
    twins: set[int] = set()

    def search(cells: list[int]) -> None:
        nonlocal best, best_order
        for t, x in enumerate(cells):
            if x & (x - 1):
                break
        else:
            pos = [0] * n
            for i, c in enumerate(cells):
                pos[c.bit_length() - 1] = i
            cert = 1
            for c in cells:
                row = 0
                rest = adj[c.bit_length() - 1]
                while rest:
                    low = rest & -rest
                    row |= 1 << pos[low.bit_length() - 1]
                    rest ^= low
                cert = (cert << n) | row
            if cert > best:
                best, best_order = cert, cells
            elif cert == best and images:
                image = [0] * n
                for b, c in zip(best_order, cells):
                    image[b.bit_length() - 1] = c.bit_length() - 1
                automorphisms.append(image)
            return
        tried = 0
        rest = x
        while rest:
            low = rest & -rest
            rest ^= low
            row = adj[low.bit_length() - 1]
            others = tried
            while others:
                u = others & -others
                if (row ^ adj[u.bit_length() - 1]) & ~(u | low) == 0:
                    # low now stands for its class: the next twin pairs with it
                    twins.add(u | low)
                    tried ^= u | low
                    break
                others ^= u
            else:
                tried |= low
                search(_refine(adj, cells[:t] + [low, x ^ low] + cells[t + 1:], [low]))

    everything = (1 << n) - 1
    search(_refine(adj, [everything] if n else [], [everything]))
    for u, v in map(iter_bits, twins if images else ()):
        image = list(range(n))
        image[u], image[v] = v, u
        automorphisms.append(image)
    return best, automorphisms, [c.bit_length() - 1 for c in best_order]


def canonical_form(g: Graph) -> int:
    """Canonical certificate: two graphs get the same int iff they are
    isomorphic.

    The partition {V} is refined to an equitable ordered partition (its
    first split is by degree); each vertex of the first non-singleton cell
    is then individualized in turn and the search recurses, down to
    discrete partitions (leaves).  A leaf orders the vertices, and its certificate
    is the adjacency matrix relabelled in that order, rows packed below a
    leading 1 bit (so graphs of different order never collide).  The form
    is the largest certificate over all leaves.  Twins u, v in the cell
    being split (N(u) - {v} == N(v) - {u}) are swapped by an automorphism
    that fixes the current partition, so their subtrees give the same
    certificates and only the first is searched; this keeps cliques,
    empty graphs and complete multipartite graphs to one branch per level.
    Other symmetry is not pruned: k disjoint triangles still search k!
    branches, which is cheap for the n <= 9 corpora.  But a leaf whose
    certificate equals the best one so far maps the best leaf's vertex
    order onto its own, an automorphism; with the swaps of the pruned
    twins these maps generate the automorphism group, which
    `nonisomorphic_graphs` uses for its orbit tests.
    """
    return _canonical_search(g.adj, images=False)[0]


def _is_canonical_deletion(rows: list[int], ties: int) -> bool:
    """Whether the last vertex x of the graph with rows `rows` lies in the
    automorphism orbit of its canonical deletion vertex m: among the
    vertices of least degree (`ties`, x among them), those of least sum
    of neighbour degrees, and of these the first in the best leaf order
    of `_canonical_search`."""
    x = len(rows) - 1
    degrees = [row.bit_count() for row in rows]
    sums = {v: sum(degrees[w] for w in iter_bits(rows[v])) for v in iter_bits(ties)}
    low = min(sums.values())
    if sums[x] > low:
        return False
    tied = [v for v, s in sums.items() if s == low]
    if len(tied) == 1:
        return True
    _, automorphisms, order = _canonical_search(tuple(rows))
    orbit, grown = 0, 1 << next(v for v in order if v in tied)
    while grown != orbit:
        orbit = grown
        for image in automorphisms:
            for v in iter_bits(orbit):
                grown |= 1 << image[v]
    return orbit >> x & 1 == 1


def nonisomorphic_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class of graphs on n vertices,
    by McKay's canonical construction path ("Isomorph-free exhaustive
    generation", J. Algorithms 1998), with no memory of earlier output.

    Each (n-1)-vertex representative B gets a new vertex x = n - 1 whose
    neighbourhood S runs up in bitmask order; the output is in that order,
    base by base.  G' = B + x is kept when (a) S is the least bitmask of
    its orbit under Aut(B), and (b) x lies in the Aut(G')-orbit of the
    canonical deletion vertex m(G') (`_is_canonical_deletion`).  The orbit
    of m(G') is an isomorphism invariant, since an isomorphism maps the
    best leaf order of one graph onto that of the other up to an
    automorphism.  So each class is kept once.  For a graph H of the class,
    H - m(H) is isomorphic to one base B, which maps N(m(H)) into one
    orbit with least member S, and B + S passes (a) and (b).  If kept
    graphs B + x and B' + x' are isomorphic, by (b) some isomorphism takes
    x to x', so B = B' and S, S' share an orbit; by (a) S = S'.

    Both orbit tests close over the automorphisms `_canonical_search`
    returns, which generate the whole group: every other leaf with the
    best certificate comes after the best leaf, or an earlier one would be
    the best, so it gives a returned map, and each subtree the search
    prunes is the image of a searched one under a returned twin swap.
    Degrees decide most candidates; a tie for m(G') costs one search.
    """
    if n == 0:
        return [Graph(0)]
    out = []
    last = 1 << (n - 1)
    for base in nonisomorphic_graphs(n - 1):
        adj = base.adj
        # at[d] is the mask of base vertices of degree d, below[d] of degree < d
        at = [0] * (n + 1)
        for v, row in enumerate(adj):
            at[row.bit_count()] |= 1 << v
        below = list(accumulate(at, int.__or__, initial=0))
        # tables[i][S] is the image of the neighbourhood S under the i-th
        # automorphism, built one vertex at a time; least[S] is relaxed
        # over the tables until it is the orbit minimum
        tables = []
        for image in _canonical_search(adj)[1]:
            table = [0]
            for v in range(n - 1):
                bit = 1 << image[v]
                table += [m | bit for m in table]
            tables.append(table)
        least, settled = list(range(last)), None
        while least != settled:
            settled = least
            for table in tables:
                least = list(map(min, least, map(least.__getitem__, table)))
        for nbhd in range(last):
            k = nbhd.bit_count()
            # x has degree k; a neighbour of x gains one
            if least[nbhd] < nbhd or below[k] & ~nbhd or below[k - 1] & nbhd:
                continue
            rows = list(adj) + [nbhd]
            for v in iter_bits(nbhd):
                rows[v] |= last
            ties = at[k] & ~nbhd | at[k - 1] & nbhd
            if not ties or _is_canonical_deletion(rows, ties | last):
                out.append(Graph.from_rows(tuple(rows)))
    return out
