import random
from itertools import combinations

import pytest

from fanheavy.graph import Graph, complete_graph, cycle_graph, path_graph
from fanheavy.patterns import (CATALOG_NAMES, Pattern, enumerate_induced_copies, has_induced_copy,
                               is_isomorphic_small, pattern)

from conftest import k23


def brute_force_copies(g, p):
    """Oracle: scan every |V(p)|-subset and test induced isomorphism."""
    k = p.graph.n
    out = []
    for subset in combinations(range(g.n), k):
        sub, _ = g.induced(subset)
        if is_isomorphic_small(sub, p.graph):
            out.append(subset)
    return out


def test_catalog_shapes():
    assert (pattern("deer").graph.n, pattern("deer").graph.num_edges()) == (7, 7)
    assert (pattern("hourglass").graph.n, pattern("hourglass").graph.num_edges()) == (5, 6)
    assert (pattern("p7").graph.n, pattern("p7").graph.num_edges()) == (7, 6)
    claw = pattern("claw").graph
    assert claw.degree(0) == 3 and all(claw.degree(v) == 1 for v in (1, 2, 3))


def test_deer_is_triangle_with_two_pendant_paths():
    d = pattern("deer").graph
    assert sorted(d.degree(v) for v in range(7)) == [1, 1, 2, 2, 2, 3, 3]
    assert d.has_edge(0, 1) and d.has_edge(1, 2) and d.has_edge(0, 2)
    assert d.has_edge(0, 3) and d.has_edge(3, 4)
    assert d.has_edge(1, 5) and d.has_edge(5, 6)


def test_unknown_pattern_rejected():
    with pytest.raises(ValueError):
        pattern("p99")
    with pytest.raises(ValueError):
        pattern("custom")  # only catalog names; build other patterns directly


def test_custom_pattern():
    p = Pattern("c4", cycle_graph(4))
    assert len(enumerate_induced_copies(complete_graph(4), p)) == 0
    assert enumerate_induced_copies(cycle_graph(4), p) == [(0, 1, 2, 3)]


def test_pattern_from_graph6_spec():
    from fanheavy.patterns import pattern_from_spec
    assert pattern_from_spec("deer").name == "deer"
    p = pattern_from_spec("Cl")  # C4 in graph6
    assert is_isomorphic_small(p.graph, cycle_graph(4))
    with pytest.raises(ValueError):
        pattern_from_spec("!!nope!!")


def test_enumeration_examples():
    claw = pattern("claw")
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert enumerate_induced_copies(star, claw) == [(0, 1, 2, 3)]
    assert enumerate_induced_copies(k23(), claw) == [(0, 2, 3, 4), (1, 2, 3, 4)]
    assert len(enumerate_induced_copies(cycle_graph(8), pattern("p7"))) == 8
    assert enumerate_induced_copies(cycle_graph(6), claw) == []


def test_isomorphism_examples():
    assert is_isomorphic_small(cycle_graph(4), Graph(4, [(0, 2), (2, 1), (1, 3), (3, 0)]))
    assert not is_isomorphic_small(path_graph(4), pattern("claw").graph)
    deer = pattern("deer").graph
    perm = [3, 5, 0, 6, 2, 4, 1]
    relab = Graph(7, [(perm[u], perm[v]) for u, v in deer.edges()])
    assert is_isomorphic_small(deer, relab)
    with pytest.raises(ValueError):
        is_isomorphic_small(complete_graph(11), complete_graph(11))


def test_enumeration_soundness_random():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 9)
        g = Graph(n, [(u, v) for u, v in combinations(range(n), 2)
                      if rng.random() < rng.choice([0.3, 0.5, 0.7])])
        for name in CATALOG_NAMES:
            p = pattern(name)
            for copy in enumerate_induced_copies(g, p):
                sub, _ = g.induced(copy)
                assert is_isomorphic_small(sub, p.graph)


def test_enumeration_completeness_vs_brute_force():
    rng = random.Random(13)
    for _ in range(500):
        n = rng.randint(1, 8)
        g = Graph(n, [(u, v) for u, v in combinations(range(n), 2)
                      if rng.random() < rng.random()])
        for name in CATALOG_NAMES:
            p = pattern(name)
            assert enumerate_induced_copies(g, p) == brute_force_copies(g, p)


def test_has_induced_copy_agrees_with_enumeration():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 8)
        g = Graph(n, [(u, v) for u, v in combinations(range(n), 2)
                      if rng.random() < 0.5])
        for name in CATALOG_NAMES:
            p = pattern(name)
            copies = enumerate_induced_copies(g, p)
            first = has_induced_copy(g, p)
            assert (first is None) == (not copies)
            if first is not None:
                assert first in copies
