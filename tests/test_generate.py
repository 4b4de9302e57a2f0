import random

import networkx as nx
import pytest

from fanheavy.generate import (canonical_form, labeled_graphs,
                               nonisomorphic_graphs, random_graph,
                               refinement_key)
from fanheavy.graph import Graph, complete_graph, cycle_graph
from fanheavy.patterns import is_isomorphic_small

from conftest import GRAPH_COUNTS, TWO_CONNECTED_COUNTS, petersen


def relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_labeled_graph_counts():
    for n in range(0, 5):
        assert sum(1 for _ in labeled_graphs(n)) == 1 << (n * (n - 1) // 2)


def test_nonisomorphic_counts_match_known_sequence():
    for n in range(0, 8):
        assert len(nonisomorphic_graphs(n)) == GRAPH_COUNTS[n]


def test_two_connected_counts_match_known_sequence():
    for n in range(3, 7):
        assert sum(1 for g in nonisomorphic_graphs(n)
                   if g.is_two_connected()) == TWO_CONNECTED_COUNTS[n]


def test_representatives_cover_all_labeled_graphs():
    # every labeled graph on 5 vertices is isomorphic to exactly one rep
    reps = nonisomorphic_graphs(5)
    for g in labeled_graphs(5):
        matches = sum(1 for h in reps if refinement_key(h) == refinement_key(g)
                      and is_isomorphic_small(g, h))
        assert matches == 1


def test_refinement_key_is_invariant():
    rng = random.Random(19)
    for g in nonisomorphic_graphs(6):
        assert refinement_key(g) == refinement_key(relabel(g, rng))


def test_canonical_forms_match_networkx_atlas():
    # the atlas lists every graph with n <= 7 once, independently built
    atlas: dict[int, set[int]] = {}
    for a in nx.graph_atlas_g():
        g = Graph(a.number_of_nodes(), a.edges())
        atlas.setdefault(g.n, set()).add(canonical_form(g))
    assert sum(len(forms) for forms in atlas.values()) == 1253
    for n in range(0, 8):
        forms = {canonical_form(g) for g in nonisomorphic_graphs(n)}
        assert len(forms) == GRAPH_COUNTS[n]
        assert forms == atlas[n]


def test_canonical_form_is_invariant_under_relabelling():
    rng = random.Random(23)
    for g in nonisomorphic_graphs(7):
        assert canonical_form(relabel(g, rng)) == canonical_form(g)


def test_canonical_form_agrees_with_isomorphism_test():
    # half the pairs are relabelled copies with one pair toggled, which
    # keeps the degree multiset close and gives both outcomes often
    rng = random.Random(29)
    outcomes = {True: 0, False: 0}
    for _ in range(1500):
        g = random_graph(rng, rng.randint(1, 8))
        h = relabel(g, rng)
        if g.n >= 2 and rng.random() < 0.5:
            u, v = rng.sample(range(g.n), 2)
            edges = set(h.edges()) ^ {(min(u, v), max(u, v))}
            h = Graph(g.n, edges)
        iso = is_isomorphic_small(g, h)
        assert (canonical_form(g) == canonical_form(h)) == iso
        outcomes[iso] += 1
    assert min(outcomes.values()) > 300


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def disjoint_triangles(k: int) -> Graph:
    return Graph(3 * k, [(3 * i + u, 3 * i + v) for i in range(k)
                         for u, v in ((0, 1), (0, 2), (1, 2))])


@pytest.mark.parametrize("g", [
    complete_graph(30), Graph(30), cycle_graph(30), complete_bipartite(3, 3),
    complete_bipartite(12, 12), disjoint_triangles(3), petersen()],
    ids=["K30", "empty30", "C30", "K33", "K12_12", "3K3", "petersen"])
def test_canonical_form_on_symmetric_graphs(g):
    # vertex-transitive or twin-heavy graphs, whose search trees have up to
    # n! leaves unless twins are pruned
    rng = random.Random(31)
    form = canonical_form(g)
    assert canonical_form(relabel(g, rng)) == form
    u, v = next(g.edges()) if g.num_edges() else (0, 1)
    edges = set(g.edges()) ^ {(u, v)}
    assert canonical_form(Graph(g.n, edges)) != form


def test_canonical_form_separates_orders():
    # the leading bit keeps edgeless graphs of different order apart
    assert len({canonical_form(Graph(n)) for n in range(0, 12)}) == 12

