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
    is canonical across isomorphic graphs.  Generation does not use it;
    the tests and the benchmark's trace of this module still name it.
    """
    nbrs = [list(iter_bits(row)) for row in g.adj]
    colors = [len(ws) for ws in nbrs]
    edges = sum(colors) // 2
    for _ in range(3):
        sigs = [(c, tuple(sorted([colors[w] for w in ws]))) for c, ws in zip(colors, nbrs)]
        index = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [index[s] for s in sigs]
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


def _twins(adj: tuple[int, ...], v: int, among: int) -> int:
    """The u in `among` (v too) with N(u) - {v} == N(v) - {u}: swapping them is an automorphism."""
    found, row = 0, adj[v]
    while among:
        u = among & -among
        among ^= u
        if (row ^ adj[u.bit_length() - 1]) & ~(u | 1 << v) == 0:
            found |= u
    return found


def _canonical_search(adj: tuple[int, ...], root: list[int] | None = None
                      ) -> tuple[int, list[list[int]], list[int]]:
    """`canonical_form` of the graph with rows `adj`; the automorphisms its
    search met, as lists of vertex images: maps between leaves of equal
    certificate, and each twin's swap with its nearest lower twin; and the
    vertex order of the best leaf.  `root`, if given, is `_refine` of {V}."""
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
            elif cert == best:
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
            mates = tried and _twins(adj, low.bit_length() - 1, tried)
            if mates:
                # low now stands for its class: the next twin pairs with it
                u = mates & -mates
                twins.add(u | low)
                tried ^= u | low
            else:
                tried |= low
                search(_refine(adj, cells[:t] + [low, x ^ low] + cells[t + 1:], [low]))

    everything = (1 << n) - 1
    search(root or _refine(adj, [everything] if n else [], [everything]))
    for u, v in map(iter_bits, twins):
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
    twins these maps generate the automorphism group, which `children`
    uses for its orbit tests.
    """
    return _canonical_search(g.adj)[0]


def _is_canonical_deletion(rows: list[int], tied: int) -> bool:
    """Whether the last vertex x of the graph G' with rows `rows` lies in
    the automorphism orbit of its canonical deletion vertex m: among the
    vertices of least degree, those of least sum of neighbour degrees
    (`tied`, x among them), and of these the first in the best leaf order
    of `_canonical_search`.

    When every tied vertex is x or a twin of x, so is m, and the swap of
    twins is an automorphism taking m to x.  Otherwise the tie goes to the
    equitable partition of G' the search starts from.  Its cells are
    unions of orbits (`_refine` never looks at labels) and share degree
    and neighbour-degree sum, so tied vertices form whole cells.  Cells
    split in place, so every leaf order lists them in order and m, with
    its orbit, lies in the first tied cell: x outside it is rejected, x
    with only its twins there accepted, and the rest cost a search."""
    x = len(rows) - 1
    adj, everything = tuple(rows), (1 << len(rows)) - 1
    if _twins(adj, x, tied) == tied:
        return True
    cells = _refine(adj, [everything], [everything])
    cell = next(c for c in cells if c & tied)
    if not cell >> x & 1 or _twins(adj, x, cell) == cell:
        return cell >> x & 1 == 1
    _, automorphisms, order = _canonical_search(adj, root=cells)
    orbit, grown = 0, 1 << next(v for v in order if cell >> v & 1)
    while grown != orbit:
        orbit = grown
        for image in automorphisms:
            for v in iter_bits(orbit):
                grown |= 1 << image[v]
    return orbit >> x & 1 == 1


def _orbit_least(nbhd: int, tables: list[list[int]]) -> bool:
    """Whether `nbhd` is the least of its orbit under the neighbourhood
    maps `tables`, closing the orbit until an image falls below it."""
    orbit, frontier = {nbhd}, [nbhd]
    for s in frontier:
        for table in tables:
            image = table[s]
            if image < nbhd:
                return False
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return True


def children(base: Graph) -> Iterator[Graph]:
    """The children of B = `base` along McKay's canonical construction
    path ("Isomorph-free exhaustive generation", J. Algorithms 1998).  Over
    one base per class on n vertices they are one graph per class on n + 1,
    and each base is handled with no memory of any other.

    B gets a new vertex x = base.n whose neighbourhood S runs up in bitmask
    order, as does the output.  G' = B + x is kept when (a) S is the least
    bitmask of its orbit under Aut(B), and (b) x lies in the Aut(G')-orbit
    of the canonical deletion vertex m(G') (`_is_canonical_deletion`).  The
    orbit of m(G') is an isomorphism invariant, since an isomorphism maps the
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
    (a) is decided, by `_orbit_least`, only for an S that leaves no vertex
    below the degree of x, as (b) needs.  With |S| = k, x's neighbour-degree
    sum in G' is k plus the base degrees of S, and a base vertex v's is its
    base sum, plus |N_B(v) & S| (those neighbours gained x), plus k if v is
    in S (its new neighbour x).  Degrees decide most candidates, these sums
    and twins of x most ties, the equitable partition of G' most of the
    rest, and the rest cost a search.
    """
    adj = base.adj
    last = 1 << base.n
    # at[d] is the mask of base vertices of degree d, low the least degree;
    # nsum[v] is the sum of the degrees of v's neighbours
    deg = [row.bit_count() for row in adj]
    nsum = [sum(deg[w] for w in iter_bits(row)) for row in adj]
    low = min(deg, default=0)
    at = [0] * (base.n + 2)
    for v, d in enumerate(deg):
        at[d] |= 1 << v
    # tables[i][S] is the image of the neighbourhood S under the i-th
    # automorphism, built one vertex at a time
    tables = []
    for image in _canonical_search(adj)[1]:
        table = [0]
        for v in range(base.n):
            bit = 1 << image[v]
            table += [m | bit for m in table]
        tables.append(table)
    for nbhd in range(last):
        k = nbhd.bit_count()
        # x has degree k and a neighbour of x gains one, so no vertex falls
        # below k exactly when k <= low, or k = low + 1 and S holds at[low]
        if k > low + 1 or k > low and at[low] & ~nbhd or not _orbit_least(nbhd, tables):
            continue
        # sums in G': x adds 1 to each neighbour's degree, k to its sum
        own = k + sum(deg[w] for w in iter_bits(nbhd))
        tied = last
        for v in iter_bits(at[k] & ~nbhd | at[k - 1] & nbhd):
            s = nsum[v] + (adj[v] & nbhd).bit_count() + (k if nbhd >> v & 1 else 0)
            if s < own:
                break
            if s == own:
                tied |= 1 << v
        else:
            rows = list(adj) + [nbhd]
            for v in iter_bits(nbhd):
                rows[v] |= last
            if tied == last or _is_canonical_deletion(rows, tied):
                yield Graph.from_rows(tuple(rows))


def nonisomorphic_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class of graphs on n vertices:
    the `children` of each class on n - 1, in order, from Graph(0) up."""
    level = [Graph(0)]
    for _ in range(n):
        level = [g for base in level for g in children(base)]
    return level
