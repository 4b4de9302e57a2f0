"""Small-graph corpora: exhaustive labeled enumeration and isomorphism-
reduced representatives.

The labeled enumerator walks every upper-triangle bitmask, so it is exact
but exponential; it is the ground-truth corpus for n <= 6-7.  For larger
n the representative corpus (one graph per isomorphism class) verifies the
same isomorphism-invariant statements at a fraction of the cost.  It is
built by vertex augmentation and deduplicated on `canonical_form`, a
refine-and-individualize canonical labeling in the style of nauty (McKay
and Piperno, "Practical graph isomorphism II", 2014): two graphs are
isomorphic exactly when their forms are equal, so a set of forms replaces
pairwise isomorphism tests.  The automorphisms that labeling meets (twin
swaps included), and the degree multisets of the one-vertex deletions, let
the augmentation skip candidates that an earlier one already covers.
"""

from __future__ import annotations

from itertools import combinations
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
    is canonical across isomorphic graphs.
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


def _canonical_search(adj: tuple[int, ...], images: bool = True) -> tuple[int, list[list[int]]]:
    """`canonical_form` of the graph with rows `adj`, and the automorphisms
    its search met if `images`, as lists of vertex images: maps between
    leaves of equal certificate, and each twin's swap with its nearest lower twin."""
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
    return best, automorphisms


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
    order onto its own, an automorphism; `nonisomorphic_graphs` skips
    neighbourhoods by these maps and by the swaps of the pruned twins.
    """
    return _canonical_search(g.adj, images=False)[0]


def nonisomorphic_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class of graphs on n vertices.

    Built by augmenting the (n-1)-vertex representatives with every
    possible neighborhood for a new vertex, in increasing bitmask order; a
    candidate is kept when its `canonical_form` is new.  A neighborhood S
    is skipped, without a form, when a known automorphism s of the base
    gives s(S) < S as bitmasks: the candidate is isomorphic to the one for
    s(S), which came earlier.  The known automorphisms are those that
    `_canonical_search` returns for the base, twin swaps included.  A
    candidate G' = B_i + x is also skipped when, for some old vertex v,
    every base with the degree multiset of G' - v comes before B_i: G' - v
    is isomorphic to some B_j with j < i, so G' is isomorphic to a
    candidate of B_j, which came earlier (McKay, "Isomorph-free exhaustive
    generation", 1998).  So the form of a skipped candidate is already in
    `seen`.  The first candidate of each class is never skipped: it is the
    least of its orbit, and it sits at the earliest base that one vertex
    deletion reaches from the class.  So the kept list is the same as
    without the skips.  The kept graphs are grouped by `refinement_key`
    (buckets in order of first appearance), which fixes the order of the
    output: `tests/data/graphs8_reduced.g6` is this list for n = 8.
    """
    if n == 0:
        return [Graph(0)]
    seen: set[int] = set()
    reps: dict[tuple, list[Graph]] = {}
    last = 1 << (n - 1)
    bases = nonisomorphic_graphs(n - 1)
    # a degree multiset as one int, the sum of 1 << w*d over the degrees d;
    # a w-bit field holds any count up to n, so the sum never carries
    w = n.bit_length()
    latest = {sum(1 << w * row.bit_count() for row in b.adj): i for i, b in enumerate(bases)}
    for i, base in enumerate(bases):
        adj = base.adj
        # images[S] is the image of the neighbourhood S, built one vertex at
        # a time, and least[S] the least image under a known automorphism
        least = list(range(last))
        for image in _canonical_search(adj)[1]:
            images = [0]
            for v in range(n - 1):
                bit = 1 << image[v]
                images += [m | bit for m in images]
            least = list(map(min, least, images))
        for nbhd in range(last):
            if least[nbhd] < nbhd:
                continue
            rows = list(adj) + [nbhd]
            rest = nbhd
            while rest:
                low = rest & -rest
                rows[low.bit_length() - 1] |= last
                rest ^= low
            # the key of g - v: v's term goes, each neighbour's degree drops;
            # the last old vertex first, which finds a skip sooner on average
            terms = [1 << w * row.bit_count() for row in rows]
            drops = [t - (t >> w) for t in terms]
            total = sum(terms)
            for v in range(n - 2, -1, -1):
                key = total - terms[v]
                rest = rows[v]
                while rest:
                    low = rest & -rest
                    key -= drops[low.bit_length() - 1]
                    rest ^= low
                if latest[key] < i:
                    break
            else:
                g = Graph.from_rows(tuple(rows))
                form = canonical_form(g)
                if form not in seen:
                    seen.add(form)
                    reps.setdefault(refinement_key(g), []).append(g)
    return [g for bucket in reps.values() for g in bucket]
