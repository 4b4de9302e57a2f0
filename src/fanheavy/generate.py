"""Small-graph corpora: exhaustive labeled enumeration, isomorphism-
reduced representatives, and seeded random graphs.

The labeled enumerator walks every upper-triangle bitmask, so it is exact
but exponential; it is the ground-truth corpus for n <= 6-7.  For larger
n the representative corpus (one graph per isomorphism class) verifies the
same isomorphism-invariant statements at a fraction of the cost.  It is
built by vertex augmentation and deduplicated on `canonical_form`, a
refine-and-individualize canonical labeling in the style of nauty (McKay
and Piperno, "Practical graph isomorphism II", 2014): two graphs are
isomorphic exactly when their forms are equal, so a set of forms replaces
pairwise isomorphism tests.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator

from .graph import Graph


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n choose 2) labeled graphs on n vertices, by edge bitmask."""
    pairs = _pairs(n)
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
    nbrs = [[w for w in range(g.n) if row >> w & 1] for row in g.adj]
    colors = [len(ws) for ws in nbrs]
    edges = sum(colors) // 2
    for _ in range(3):
        sigs = [(c, tuple(sorted([colors[w] for w in ws])))
                for c, ws in zip(colors, nbrs)]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [ranking[s] for s in sigs]
    return (g.n, edges, tuple(sorted(colors)))


def _refine(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """Refine the ordered partition `cells` (vertex bitmasks) in place
    until it is equitable, splitting each cell by neighbour counts into
    each splitter; the parts of a split cell keep its place, in increasing
    count order, and become splitters themselves.  Every choice depends on
    the cell structure only, never on vertex labels."""
    n = len(adj)
    while splitters and len(cells) < n:
        w = splitters.pop()
        i = 0
        while i < len(cells):
            x = cells[i]
            if x & (x - 1):
                parts: dict[int, int] = {}
                rest = x
                while rest:
                    low = rest & -rest
                    k = (adj[low.bit_length() - 1] & w).bit_count()
                    parts[k] = parts.get(k, 0) | low
                    rest ^= low
                if len(parts) > 1:
                    split = [parts[k] for k in sorted(parts)]
                    cells[i:i + 1] = split
                    splitters.extend(split)
                    i += len(split)
                    continue
            i += 1
    return cells


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
    branches, which is cheap for the n <= 9 corpora.
    """
    adj = g.adj
    n = g.n
    best = 0

    def search(cells: list[int]) -> None:
        nonlocal best
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
                best = cert
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
                    break
                others ^= u
            else:
                tried |= low
                search(_refine(adj, cells[:t] + [low, x ^ low] + cells[t + 1:], [low]))

    everything = (1 << n) - 1
    search(_refine(adj, [everything] if n else [], [everything]))
    return best


def nonisomorphic_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class of graphs on n vertices.

    Built by augmenting the (n-1)-vertex representatives with every
    possible neighborhood for a new vertex, in increasing bitmask order; a
    candidate is kept when its `canonical_form` is new.  A neighborhood S
    is skipped, without a form, when the base has twins u < v
    (N(u) - {v} == N(v) - {u}) with v in S and u not in S: swapping u and
    v is an automorphism of the base, so the candidate is isomorphic to
    the one for S - v + u, a smaller bitmask that came earlier.  So the
    form of a skipped candidate is already in `seen`: the first candidate
    of each class is never skipped, and the kept list is the same as
    without the skip.  The kept graphs are grouped by `refinement_key`
    (buckets in order of first appearance), which fixes the order of the
    output: `tests/data/graphs8_reduced.g6` is this list for n = 8.
    """
    if n == 0:
        return [Graph(0)]
    seen: set[int] = set()
    reps: dict[tuple, list[Graph]] = {}
    last = 1 << (n - 1)
    for base in nonisomorphic_graphs(n - 1):
        adj = base.adj
        # twins form classes; checking each vertex against its nearest
        # lower twin covers every pair of a class
        twins = []
        for v in range(1, n - 1):
            for u in range(v - 1, -1, -1):
                if (adj[u] ^ adj[v]) & ~(1 << u | 1 << v) == 0:
                    twins.append((1 << u, 1 << v))
                    break
        for nbhd in range(last):
            if any(nbhd & vb and not nbhd & ub for ub, vb in twins):
                continue
            rows = list(adj) + [nbhd]
            rest = nbhd
            while rest:
                low = rest & -rest
                rows[low.bit_length() - 1] |= last
                rest ^= low
            g = Graph.from_rows(tuple(rows))
            form = canonical_form(g)
            if form not in seen:
                seen.add(form)
                reps.setdefault(refinement_key(g), []).append(g)
    return [g for bucket in reps.values() for g in bucket]


def random_graph(rng: random.Random, n: int, p: float | None = None) -> Graph:
    if p is None:
        p = rng.uniform(0.1, 0.9)
    edges = [(u, v) for u, v in _pairs(n) if rng.random() < p]
    return Graph(n, edges)


def random_o_cycle(rng: random.Random, g: Graph):
    """Random valid o-cycle grown greedily over the Ore-extended edge set,
    or None when the random walk cannot close into a cycle."""
    from .cycles import make_o_cycle
    if g.n < 3:
        return None
    start = rng.randrange(g.n)
    seq = [start]
    target = rng.randint(3, g.n)
    while len(seq) < target:
        opts = [v for v in range(g.n) if v not in seq
                and g.ore_adjacent(seq[-1], v)]
        if not opts:
            break
        seq.append(rng.choice(opts))
    while len(seq) >= 3:
        if g.ore_adjacent(seq[-1], seq[0]):
            return make_o_cycle(g, tuple(seq))
        seq.pop()
    return None
