import random
from itertools import combinations

import pytest

from fanheavy.cycles import (OCycle, expand_o_cycle,
                             find_cycle_through, find_hamilton_cycle, heavy_vertices,
                             is_valid_cycle, make_o_cycle, normalize_cycle)
from fanheavy.generate import labeled_graphs
from fanheavy.graph import Graph, GraphError, path_graph

from conftest import (complete_graph, cycle_graph, first_cycle_dfs, hamiltonian_brute_force,
                      k23, petersen, random_graph, random_o_cycle)


def test_normalize_cycle():
    assert normalize_cycle((3, 1, 2, 0)) == (0, 2, 1, 3)
    assert normalize_cycle((0, 3, 2, 1)) == (0, 1, 2, 3)


def test_hamilton_examples():
    assert find_hamilton_cycle(cycle_graph(5)) == (0, 1, 2, 3, 4)
    assert find_hamilton_cycle(petersen()) is None
    assert find_hamilton_cycle(k23()) is None
    assert find_hamilton_cycle(Graph(2, [(0, 1)])) is None


def test_hamilton_cycle_revalidates():
    rng = random.Random(3)
    hits = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(3, 10), rng.random())
        c = find_hamilton_cycle(g)
        if c is not None:
            hits += 1
            assert len(c) == g.n
            assert is_valid_cycle(g, c)
    assert hits > 50


def test_hamilton_agrees_with_brute_force():
    rng = random.Random(5)
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        assert (find_hamilton_cycle(g) is not None) == hamiltonian_brute_force(g)


def test_cycle_through_all_vertices_is_hamilton_search(two_connected_by_n):
    # both entry points share one backtracker: requiring every vertex
    # must return the very cycle the Hamilton search returns
    for n in range(3, 8):
        for g in two_connected_by_n[n]:
            assert find_cycle_through(g, range(g.n)) == find_hamilton_cycle(g)


def test_solvers_return_the_first_cycle_of_a_plain_dfs(two_connected_by_n):
    # the cuts drop only branches that hold no cycle, so each solver returns
    # the cycle that a search with no cut meets first
    for n in range(3, 8):
        for g in two_connected_by_n[n]:
            assert find_hamilton_cycle(g) == first_cycle_dfs(g, range(n))
    rng = random.Random(23)
    found = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(8, 10), rng.uniform(0.15, 0.45))
        req = rng.sample(range(g.n), rng.randint(0, g.n))
        cycle = find_cycle_through(g, req)
        assert cycle == first_cycle_dfs(g, req)
        found += cycle is not None
    assert 50 < found < 150


def test_forced_successor_cut_bounds_the_work(two_connected_by_n, monkeypatch):
    # calls to reachable_from, one per search node past the degree cuts, over
    # the 927 non-Hamiltonian 2-connected classes with n = 8: 13774 without
    # the forced-successor cut, 7297 with it
    nonhamiltonian = [g for g in two_connected_by_n[8] if find_hamilton_cycle(g) is None]
    assert len(nonhamiltonian) == 927
    calls = 0
    reachable_from = Graph.reachable_from

    def counted(self, start_mask, allowed_mask):
        nonlocal calls
        calls += 1
        return reachable_from(self, start_mask, allowed_mask)

    monkeypatch.setattr(Graph, "reachable_from", counted)
    assert all(find_hamilton_cycle(g) is None for g in nonhamiltonian)
    assert calls <= 7297


def test_heavy_vertices_examples():
    assert heavy_vertices(complete_graph(4)) == (0, 1, 2, 3)
    assert heavy_vertices(cycle_graph(5)) == ()
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert heavy_vertices(star) == (0,)
    for n in range(0, 7):
        for g in labeled_graphs(n):
            assert heavy_vertices(g) == tuple(v for v in range(n) if 2 * g.degree(v) >= n)


def test_cycle_through_examples():
    c = find_cycle_through(complete_graph(4), {0, 1, 2, 3})
    assert c is not None and len(c) == 4 and is_valid_cycle(complete_graph(4), c)
    assert find_cycle_through(petersen(), set()) == (0, 1, 2, 3, 4)
    # no required vertex: the first vertex on any cycle anchors the search
    tailed_triangle = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    assert find_cycle_through(tailed_triangle, ()) == (3, 4, 5)
    assert find_cycle_through(path_graph(5), ()) is None
    for g in (Graph(0), Graph(1), path_graph(2)):
        assert find_cycle_through(g, ()) is None
    hourglass = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert find_cycle_through(hourglass, {1, 3}) is None


def test_cycle_through_covers_required_set():
    rng = random.Random(9)
    found = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(3, 9), rng.random())
        req = set(rng.sample(range(g.n), rng.randint(0, g.n)))
        c = find_cycle_through(g, req)
        if c is not None:
            found += 1
            assert is_valid_cycle(g, c)
            assert req <= set(c)
    assert found > 50


def test_cycle_through_monotone_in_required_set():
    rng = random.Random(15)
    for _ in range(200):
        g = random_graph(rng, rng.randint(3, 8), 0.3)
        req = set(rng.sample(range(g.n), rng.randint(0, g.n - 1)))
        if find_cycle_through(g, req) is None:
            bigger = req | {rng.randrange(g.n)}
            assert find_cycle_through(g, bigger) is None


def test_make_o_cycle_validation():
    c5 = cycle_graph(5)
    oc = make_o_cycle(c5, (0, 1, 2, 3, 4))
    assert oc.virtual == (False,) * 5
    with pytest.raises(ValueError):
        make_o_cycle(c5, (0, 1, 2, 4))  # (2,4) not Ore-adjacent in C5
    with pytest.raises(ValueError):
        make_o_cycle(c5, (0, 1))
    with pytest.raises(ValueError):
        make_o_cycle(c5, (0, 1, 1))


def test_ore_path_rejects_out_of_range_vertices():
    # a negative vertex must not read a row from the end of `adj`
    c5 = cycle_graph(5)
    for u, v in [(0, 5), (5, 0), (-1, 0), (0, -1)]:
        with pytest.raises(GraphError):
            c5.ore_adjacent(u, v)
    with pytest.raises(GraphError):
        make_o_cycle(c5, (0, 1, -1))


def test_expand_o_cycle_examples():
    # all-real o-cycle comes back as-is
    c5 = cycle_graph(5)
    assert expand_o_cycle(c5, make_o_cycle(c5, (0, 1, 2, 3, 4))) == (0, 1, 2, 3, 4)
    # K4 minus the edge (0,1): virtual pair expands through the other vertices
    k4e = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    oc = make_o_cycle(k4e, (0, 1, 2))
    assert oc.virtual[0]
    c = expand_o_cycle(k4e, oc)
    assert is_valid_cycle(k4e, c) and {0, 1, 2} <= set(c)


def test_expand_o_cycle_rejects_junk_input():
    c5 = cycle_graph(5)
    with pytest.raises(ValueError):
        expand_o_cycle(c5, OCycle((0, 1, 3), (False, False, False)))


def test_expand_o_cycle_randomized_never_violates():
    rng = random.Random(1729)
    trials = 0
    while trials < 300:
        n = rng.randint(3, 12)
        g = random_graph(rng, n, rng.uniform(0.3, 0.9))
        if g.reachable_from(1, g.full_mask()) != g.full_mask():
            continue
        oc = random_o_cycle(rng, g)
        if oc is None:
            continue
        trials += 1
        c = expand_o_cycle(g, oc)  # raises LemmaViolationError on failure
        assert is_valid_cycle(g, c)
        assert set(oc.seq) <= set(c)


def held_karp_hamiltonian(g):
    """Bitmask DP over (visited set, end vertex) (Bellman 1962; Held and
    Karp 1962).  ends[S], for S a set of vertices other than 0, holds the
    vertices v in S that end a path from 0 through exactly S + {0}."""
    n = g.n
    if n < 3:
        return False
    adj = g.adj
    size = 1 << (n - 1)  # bit i of S stands for vertex i + 1
    ends = [0] * size
    for v in range(1, n):
        if adj[0] >> v & 1:
            ends[1 << (v - 1)] = 1 << (v - 1)
    for s in range(1, size):
        if not s & (s - 1):
            continue
        found = 0
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            # adj[v] >> 1 puts the neighbours of v in the same bit layout as S
            if ends[s ^ low] & (adj[low.bit_length()] >> 1):
                found |= low
        ends[s] = found
    return bool(ends[size - 1] & (adj[0] >> 1))


def test_hamilton_agrees_with_held_karp():
    rng = random.Random(59)
    verdicts = []
    for _ in range(60):
        n = rng.randint(10, 16)
        # near the Hamiltonicity threshold, so both verdicts occur
        g = random_graph(rng, n, rng.uniform(1.2, 2.6) * 2 / n)
        expected = held_karp_hamiltonian(g)
        assert (find_hamilton_cycle(g) is not None) == expected, g
        verdicts.append(expected)
    assert 10 <= sum(verdicts) <= 50


def test_held_karp_agrees_with_brute_force():
    rng = random.Random(61)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        assert held_karp_hamiltonian(g) == hamiltonian_brute_force(g)
