"""The benchmark's own graph code: input builders and re-check oracles.

Nothing here calls fanheavy.  A graph is a pair (n, rows) where rows[v]
is the neighbour bitmask of v, the same data the benchmark hands to the
program as an edge list, so every verdict can be checked against code
that shares no logic with the code under test.
"""

from __future__ import annotations

import itertools

# Pattern graphs with the vertex numbering the catalog documents; the
# re-checks compare induced subgraphs against every labelling of these.
PATTERN_EDGES = {
    "claw": (4, [(0, 1), (0, 2), (0, 3)]),
    "p4": (4, [(0, 1), (1, 2), (2, 3)]),
    "p5": (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "p6": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
    "p7": (7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
    "deer": (7, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (1, 5), (5, 6)]),
    "hourglass": (5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
}

_LABELLINGS: dict[str, frozenset[int]] = {}


def rows_from_edges(n: int, edges) -> tuple[int, ...]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def edges_from_rows(rows) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(rows)) for v in range(u + 1, len(rows))
            if (rows[u] >> v) & 1]


def decode_g6(line: str) -> tuple[int, tuple[int, ...]]:
    """graph6 for n <= 62: size byte, then the upper triangle column by
    column, six bits per character."""
    n = ord(line[0]) - 63
    bits = []
    for ch in line[1:]:
        val = ord(ch) - 63
        bits.extend((val >> s) & 1 for s in range(5, -1, -1))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(bits) < len(pairs) or any(bits[len(pairs):]):
        raise ValueError(f"bad graph6 line {line!r}")
    return n, rows_from_edges(n, [p for p, b in zip(pairs, bits) if b])


def degree(rows, v: int) -> int:
    return rows[v].bit_count()


def is_light(rows, v: int) -> bool:
    return 2 * degree(rows, v) < len(rows)


def _connected(rows, alive: int) -> bool:
    if not alive:
        return False
    seen = alive & -alive
    stack = [seen.bit_length() - 1]
    while stack:
        v = stack.pop()
        new = rows[v] & alive & ~seen
        seen |= new
        while new:
            low = new & -new
            stack.append(low.bit_length() - 1)
            new ^= low
    return seen == alive


def is_two_connected(rows) -> bool:
    """By definition: n >= 3, connected, and connected after deleting any
    single vertex."""
    n = len(rows)
    full = (1 << n) - 1
    return n >= 3 and _connected(rows, full) and all(
        _connected(rows, full & ~(1 << v)) for v in range(n))


def induced_code(rows, subset) -> int:
    """Edge bitmask of the subgraph induced on `subset`, one bit per pair
    of positions in the order given."""
    code = bit = 0
    for i, u in enumerate(subset):
        for v in subset[i + 1:]:
            if (rows[u] >> v) & 1:
                code |= 1 << bit
            bit += 1
    return code


def _labellings(name: str) -> frozenset[int]:
    if name not in _LABELLINGS:
        k, edges = PATTERN_EDGES[name]
        codes = set()
        for perm in itertools.permutations(range(k)):
            codes.add(induced_code(rows_from_edges(k, [(perm[u], perm[v]) for u, v in edges]),
                                   list(range(k))))
        _LABELLINGS[name] = frozenset(codes)
    return _LABELLINGS[name]


def induces(rows, subset, name: str) -> bool:
    """Brute force: does `subset` induce a copy of the named pattern?"""
    subset = sorted(subset)
    k = PATTERN_EDGES[name][0]
    return len(subset) == k == len(set(subset)) and \
        induced_code(rows, subset) in _labellings(name)


def light_pair_ok(rows, subset, pair, degrees) -> bool:
    """`pair` lies in `subset`, is at distance 2 inside it, and both ends
    are light in the host, with the reported degrees."""
    u, v = pair
    mask = sum(1 << w for w in subset)
    return (u in subset and v in subset and u != v
            and not (rows[u] >> v) & 1
            and bool(rows[u] & rows[v] & mask)
            and is_light(rows, u) and is_light(rows, v)
            and tuple(degrees) == (degree(rows, u), degree(rows, v)))


def claw_ends_ok(rows, subset, pair, degrees) -> bool:
    """`subset` is a claw and `pair` are two light end vertices of it."""
    if not induces(rows, subset, "claw"):
        return False
    mask = sum(1 << w for w in subset)
    center = [w for w in subset if (rows[w] & mask).bit_count() == 3]
    u, v = pair
    return (len(center) == 1 and u != v and {u, v} <= set(subset) - set(center)
            and is_light(rows, u) and is_light(rows, v)
            and tuple(degrees) == (degree(rows, u), degree(rows, v)))


def cycle_ok(rows, cycle, required=()) -> bool:
    """A real cycle of the graph whose vertex set covers `required`."""
    k = len(cycle)
    return (k >= 3 and len(set(cycle)) == k and set(required) <= set(cycle)
            and all((rows[cycle[i]] >> cycle[(i + 1) % k]) & 1 for i in range(k)))


# -- seeded input builders ------------------------------------------------

def random_dense(rng, n: int, p: float) -> tuple[int, tuple[int, ...]]:
    """G(n, p): each pair an edge with probability p."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return n, rows_from_edges(n, edges)


def stratified_sizes(rng, n_lo: int, n_hi: int, strata: int, p_lo: float, p_hi: float):
    """(n, p) for every n in [n_lo, n_hi] and every one of `strata` equal
    slices of [p_lo, p_hi], p uniform inside its slice.  The order visits
    every n once per block and spreads each block's slices evenly, with
    blocks in bit-reversed order, so any prefix of whole blocks covers
    the (n, p) grid evenly.  The mix of costs is then the same for every
    seed, and so is the mix in a pass cut short."""
    sizes = list(range(n_lo, n_hi + 1))
    bits = (strata - 1).bit_length()
    out = []
    for b in range(strata):
        rev = int(format(b, f"0{bits}b")[::-1], 2) if bits else 0
        for i, n in enumerate(sizes):
            s = (rev + i * strata // len(sizes)) % strata
            out.append((n, p_lo + (p_hi - p_lo) * (s + rng.random()) / strata))
    return out


def random_sparse_two_connected(rng, n_lo: int, n_hi: int) -> tuple[int, tuple[int, ...]]:
    """Ear decomposition: a cycle, then paths between existing vertices
    until n vertices, then a few chords; two-connected by construction.
    Two non-adjacent hubs get about n/2 extra neighbours each, so the hub
    pair is Ore-adjacent without being an edge: every graph has an
    o-cycle with a virtual pair."""
    n = rng.randint(n_lo, n_hi)
    size = rng.randint(4, n // 2)
    edges = {(i, i + 1) for i in range(size - 1)} | {(0, size - 1)}
    while size < n:
        a, b = rng.sample(range(size), 2)
        length = min(rng.randint(1, 3), n - size)
        path = [a] + list(range(size, size + length)) + [b]
        edges |= {tuple(sorted(e)) for e in zip(path, path[1:])}
        size += length
    for _ in range(rng.randint(0, n // 4)):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    rows = rows_from_edges(n, edges)
    h1, h2 = rng.choice([(u, v) for u in range(n) for v in range(u + 1, n)
                         if not (rows[u] >> v) & 1])
    for hub in (h1, h2):
        for v in rng.sample(range(n), n // 2 + 1):
            if v not in (h1, h2):
                edges.add(tuple(sorted((hub, v))))
    relabel = list(range(n))
    rng.shuffle(relabel)
    return n, rows_from_edges(n, [(relabel[u], relabel[v]) for u, v in edges])


def ore_adjacent(rows, u: int, v: int) -> bool:
    return bool((rows[u] >> v) & 1) or degree(rows, u) + degree(rows, v) >= len(rows)


def random_o_cycle(rng, rows) -> tuple[tuple[int, ...], tuple[bool, ...]] | None:
    """An o-cycle that starts with a virtual pair: a non-adjacent
    Ore-adjacent pair (u, v), then a random Ore-adjacent walk from v that
    closes back to u.  Returns (sequence, virtual flags) or None."""
    n = len(rows)
    virtual = [(u, v) for u in range(n) for v in range(u + 1, n)
               if not (rows[u] >> v) & 1 and ore_adjacent(rows, u, v)]
    if not virtual:
        return None
    u, v = rng.choice(virtual)
    seq = [u, v]
    target = rng.randint(3, n)
    while len(seq) < target:
        opts = [w for w in range(n) if w not in seq and ore_adjacent(rows, seq[-1], w)]
        if not opts:
            break
        seq.append(rng.choice(opts))
    while len(seq) >= 3 and not ore_adjacent(rows, seq[-1], u):
        seq.pop()
    if len(seq) < 3:
        return None
    flags = tuple(not (rows[a] >> b) & 1 for a, b in zip(seq, seq[1:] + seq[:1]))
    return tuple(seq), flags
