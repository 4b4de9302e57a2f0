import functools
import itertools
import os
from pathlib import Path

import networkx as nx
import pytest

from fanheavy.cycles import make_o_cycle, normalize_cycle
from fanheavy.graph import Graph, path_graph
from fanheavy.graphio import decode_graph6, encode_graph6
from fanheavy.patterns import Pattern

DATA = Path(__file__).parent / "data"

# number of graphs / 2-connected graphs per vertex count, one per
# isomorphism class (OEIS A000088 / A002218)
GRAPH_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346,
                9: 274668}
TWO_CONNECTED_COUNTS = {3: 1, 4: 3, 5: 10, 6: 56, 7: 468, 8: 7123, 9: 194066}


def edge_list(g: Graph) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, in ascending order."""
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1]


def induced(g: Graph, subset) -> Graph:
    """The subgraph induced on `subset`, its vertices renumbered in sorted order."""
    verts = sorted(subset)
    rows = [0] * len(verts)
    for i, v in enumerate(verts):
        for j in range(i + 1, len(verts)):
            if g.adj[v] >> verts[j] & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph.from_rows(tuple(rows))


def to_nx(g: Graph) -> nx.Graph:
    """The same graph in networkx, for checks independent of the package."""
    h = nx.empty_graph(g.n)
    h.add_edges_from(edge_list(g))
    return h


def nx_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism by networkx, independent of the package's own search."""
    return nx.is_isomorphic(to_nx(g), to_nx(h))


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph.from_rows(tuple(full ^ (1 << v) for v in range(n)))


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(rng, n: int, p: float | None = None) -> Graph:
    if p is None:
        p = rng.uniform(0.1, 0.9)
    return Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                     if rng.random() < p])


def random_o_cycle(rng, g: Graph):
    """Random valid o-cycle grown greedily over the Ore-extended edge set,
    or None when the random walk cannot close into a cycle."""
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


def hamiltonian_brute_force(g: Graph) -> bool:
    """Permutation-based Hamiltonicity oracle (independent of the solver)."""
    n = g.n
    if n < 3:
        return False
    for perm in itertools.permutations(range(1, n)):
        seq = (0,) + perm
        if all((g.adj[seq[i]] >> seq[(i + 1) % n]) & 1 for i in range(n)):
            return True
    return False


def first_cycle_dfs(g: Graph, required) -> tuple[int, ...] | None:
    """The first cycle through `required` in plain DFS order, with no cut:
    the path starts where the solvers start it (the least required vertex,
    or with none each vertex in turn), tries neighbours in ascending order,
    and closes as soon as it holds every required vertex, at least 3
    vertices and an edge back to its start."""
    req = set(required)

    def dfs(path: list[int]) -> bool:
        current = path[-1]
        if req <= set(path) and len(path) >= 3 and g.adj[current] >> path[0] & 1:
            return True
        for w in range(g.n):
            if g.adj[current] >> w & 1 and w not in path:
                path.append(w)
                if dfs(path):
                    return True
                path.pop()
        return False

    for start in sorted(req)[:1] or range(g.n):
        path = [start]
        if dfs(path):
            return normalize_cycle(path)
    return None


# custom patterns with large automorphism groups, beyond the catalog
SYMMETRIC_PATTERNS = {p.name: p for p in (
    Pattern("k4", complete_graph(4)), Pattern("c5", cycle_graph(5)),
    Pattern("c6", cycle_graph(6)),
    Pattern("k33", Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])),
    Pattern("k14", Graph(5, [(0, v) for v in range(1, 5)])),
    Pattern("2k2", Graph(4, [(0, 1), (2, 3)])), Pattern("3k1", Graph(3)),
    Pattern("p8", path_graph(8)),
)}


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def k23() -> Graph:
    return Graph(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])


@functools.cache
def _reps(n: int) -> tuple[Graph, ...]:
    if n == 8:
        lines = (DATA / "graphs8_reduced.g6").read_text().splitlines()
        graphs = tuple(decode_graph6(s) for s in lines)
    else:
        from fanheavy.generate import nonisomorphic_graphs
        graphs = tuple(nonisomorphic_graphs(n))
    assert len(graphs) == GRAPH_COUNTS[n]
    return graphs


@functools.cache
def pinned_hosts() -> tuple[Graph, ...]:
    """Every class with 1 <= n <= 7, each once, labelled and ordered as
    `tests/data/hosts_1_to_7.g6` fixes them (the output of the generator
    that kept a candidate when its canonical form was new).  Witnesses
    name vertices, so digests of them are pinned on these graphs, not on
    the current generator's labels."""
    from fanheavy.generate import canonical_form
    lines = (DATA / "hosts_1_to_7.g6").read_text().splitlines()
    graphs = tuple(decode_graph6(s) for s in lines)
    assert [sum(g.n == n for g in graphs) for n in range(1, 8)] == [
        GRAPH_COUNTS[n] for n in range(1, 8)]
    assert len({canonical_form(g) for g in graphs}) == len(graphs)
    return graphs


@pytest.fixture(scope="session")
def reps7() -> tuple[Graph, ...]:
    return _reps(7)


@pytest.fixture(scope="session")
def reps8() -> tuple[Graph, ...]:
    return _reps(8)


@pytest.fixture(scope="session")
def two_connected_by_n() -> dict[int, list[Graph]]:
    """2-connected representatives for 3 <= n <= 8, counts cross-checked."""
    out = {}
    for n in range(3, 9):
        out[n] = [g for g in _reps(n) if g.is_two_connected()]
        assert len(out[n]) == TWO_CONNECTED_COUNTS[n]
    return out


@pytest.fixture(scope="session")
def reduced_9() -> Path:
    """The file of all 274668 classes with n = 9, one graph6 line each:
    the file that FANHEAVY_N9_CORPUS names or else
    tests/data/graphs9_reduced.g6.  A missing file is generated once and
    written first (about 10 s); it is gitignored test data, not part
    of the repository."""
    path = Path(os.environ.get("FANHEAVY_N9_CORPUS") or DATA / "graphs9_reduced.g6")
    if not path.exists():
        from fanheavy.generate import nonisomorphic_graphs
        part = path.with_name(path.name + ".part")
        part.write_text("".join(encode_graph6(g) + "\n" for g in nonisomorphic_graphs(9)))
        part.replace(path)
    return path


@pytest.fixture(scope="session")
def two_connected_9(reduced_9) -> list[Graph]:
    """The 2-connected classes with n = 9, filtered from `reduced_9` as
    it is read."""
    graphs = [g for g in map(decode_graph6, reduced_9.read_text().split())
              if g.is_two_connected()]
    assert len(graphs) == TWO_CONNECTED_COUNTS[9]
    assert all(g.n == 9 for g in graphs)
    return graphs
