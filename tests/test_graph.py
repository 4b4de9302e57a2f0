import itertools
import pickle
import random
from collections import deque

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanheavy.graph import Graph, GraphError, path_graph

from conftest import complete_graph, cycle_graph, random_graph, to_nx


def graphs(max_n=8):
    """Hypothesis strategy: random graph via edge bitmask."""
    @st.composite
    def _g(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        nbits = n * (n - 1) // 2
        mask = draw(st.integers(min_value=0, max_value=(1 << nbits) - 1))
        edges = []
        k = 0
        for u in range(n):
            for v in range(u + 1, n):
                if (mask >> k) & 1:
                    edges.append((u, v))
                k += 1
        return Graph(n, edges)
    return _g()


def test_build_k4():
    g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert all(g.degree(v) == 3 for v in range(4))


def test_build_empty():
    g = Graph(3, [])
    assert all(g.degree(v) == 0 for v in range(3))


def test_build_c5():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert all(g.degree(v) == 2 for v in range(5))


def test_build_dedups_and_symmetry():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges() == 1
    assert g.has_edge(1, 0)


def test_build_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        Graph(-1)


def test_degree_examples():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert star.degree(0) == 3
    assert star.degree(1) == 1
    with pytest.raises(GraphError):
        star.degree(4)


def test_two_connected_examples():
    assert cycle_graph(4).is_two_connected()
    assert complete_graph(3).is_two_connected()
    assert not path_graph(3).is_two_connected()
    # two triangles sharing vertex 0: the root is the only cut vertex
    hourglass = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert not hourglass.is_two_connected()
    # a triangle plus an isolated vertex, last or first
    assert not Graph(4, [(0, 1), (0, 2), (1, 2)]).is_two_connected()
    assert not Graph(4, [(1, 2), (1, 3), (2, 3)]).is_two_connected()
    # DFS 0-1-2, then 1's child 3 reaches only its parent 1
    assert not Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3)]).is_two_connected()
    for g in (Graph(0), Graph(1), Graph(2), Graph(2, [(0, 1)])):
        assert not g.is_two_connected()


def test_ore_adjacent_examples():
    k4e = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert k4e.ore_adjacent(0, 1)  # 2+2 >= 4 despite the missing edge
    c5 = cycle_graph(5)
    assert not c5.ore_adjacent(0, 2)
    assert c5.ore_adjacent(0, 1)
    with pytest.raises(GraphError):
        c5.ore_adjacent(2, 2)


def test_graph_is_immutable_and_hashable():
    g = cycle_graph(4)
    with pytest.raises(AttributeError):
        g.n = 5
    assert g == cycle_graph(4)
    assert hash(g) == hash(cycle_graph(4))
    assert not hasattr(g, "__dict__")


def test_graph_pickle_roundtrip():
    # worker processes receive graphs by pickle
    for g in (Graph(0), cycle_graph(5), complete_graph(7)):
        back = pickle.loads(pickle.dumps(g))
        assert back == g and back.adj == g.adj
        with pytest.raises(AttributeError):
            back.n = 1


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_ore_adjacency_symmetric_and_contains_edges(g):
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert g.ore_adjacent(u, v) == g.ore_adjacent(v, u)
            if g.has_edge(u, v):
                assert g.ore_adjacent(u, v)


def _two_connected_by_deletion(g):
    """n >= 3, connected, and connected after deleting any one vertex, by
    networkx."""
    if g.n < 3:
        return False
    h = to_nx(g)
    return nx.is_connected(h) and all(
        nx.is_connected(h.subgraph(set(h) - {v})) for v in h)


@given(graphs(max_n=7))
@settings(max_examples=300, deadline=None)
def test_two_connected_matches_deletion_definition(g):
    assert g.is_two_connected() == _two_connected_by_deletion(g)


def _two_connected_by_bitmask_deletion(g):
    """n >= 3 and connected after deleting any one vertex or none, by a
    bitmask BFS over the rows."""
    def connected(allowed):
        seen = frontier = allowed & -allowed
        while frontier:
            nxt = 0
            for v in range(g.n):
                if frontier >> v & 1:
                    nxt |= g.adj[v]
            frontier = nxt & allowed & ~seen
            seen |= frontier
        return seen == allowed
    full = (1 << g.n) - 1
    return g.n >= 3 and connected(full) and all(
        connected(full & ~(1 << v)) for v in range(g.n))


def test_two_connected_matches_deletion_on_every_small_graph():
    for n in range(7):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [p for k, p in enumerate(pairs) if mask >> k & 1])
            assert g.is_two_connected() == _two_connected_by_bitmask_deletion(g), g.adj


def _reachable_by_set_bfs(g, start_mask, allowed_mask):
    """Mask of the vertices a breadth-first search over vertex sets reaches
    from the allowed vertices of start_mask, stepping on allowed ones only."""
    allowed = {v for v in range(g.n) if allowed_mask >> v & 1}
    seen = {v for v in allowed if start_mask >> v & 1}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in allowed - seen:
            if g.has_edge(v, w):
                seen.add(w)
                queue.append(w)
    return sum(1 << v for v in seen)


def test_reachable_from_matches_a_set_bfs():
    rng = random.Random(74)
    for _ in range(400):
        g = random_graph(rng, rng.randint(0, 16))
        n, full = g.n, g.full_mask()
        for allowed in (rng.getrandbits(n), full, 0):
            starts = [0, rng.getrandbits(n), full & ~allowed]
            if n:
                one = 1 << rng.randrange(n)
                starts += [one, one | full & ~allowed]
            for start in starts:
                assert g.reachable_from(start, allowed) == _reachable_by_set_bfs(
                    g, start, allowed), (g.adj, start, allowed)
