import hashlib
import math
import random

import networkx as nx
import pytest

from fanheavy import generate
from fanheavy.generate import (canonical_form, labeled_graphs,
                               nonisomorphic_graphs, refinement_key)
from fanheavy.graph import Graph, iter_bits
from fanheavy.graphio import decode_graph6, encode_graph6
from fanheavy.patterns import is_isomorphic_small

from conftest import (DATA, GRAPH_COUNTS, TWO_CONNECTED_COUNTS, complete_graph,
                      cycle_graph, edge_list, nx_isomorphic, petersen, random_graph)


def relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in edge_list(g)])


def test_labeled_graph_counts():
    for n in range(0, 5):
        assert sum(1 for _ in labeled_graphs(n)) == 1 << (n * (n - 1) // 2)


def test_nonisomorphic_counts_match_known_sequence():
    for n in range(0, 8):
        assert len(nonisomorphic_graphs(n)) == GRAPH_COUNTS[n]


def test_nonisomorphic_7_output_is_pinned():
    # `gen --n 7 --reduce` stdout; a change in output order changes it
    text = "\n".join(encode_graph6(g) for g in nonisomorphic_graphs(7)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d0e4a19fccc3afdefe0700aeadc1e4eccb213f661267832ca8fbe5d8f9172869")


def forms(graphs) -> set[int]:
    return {canonical_form(g) for g in graphs}


def test_regenerate_8_vertex_fixture_matches():
    # the checked-in corpus holds the classes the generator produces, each
    # once; the generator labels them differently
    reps = nonisomorphic_graphs(8)
    assert len(forms(reps)) == len(reps) == GRAPH_COUNTS[8]
    fixture = (DATA / "graphs8_reduced.g6").read_text().splitlines()
    assert sorted(forms(reps)) == sorted(canonical_form(decode_graph6(s)) for s in fixture)


def unpruned_nonisomorphic_graphs(n: int) -> list[Graph]:
    # every neighbourhood of every base gets a form, which is kept when new
    if n == 0:
        return [Graph(0)]
    seen, reps = set(), []
    for base in unpruned_nonisomorphic_graphs(n - 1):
        for nbhd in range(1 << (n - 1)):
            edges = edge_list(base) + [(v, n - 1) for v in range(n - 1) if nbhd >> v & 1]
            g = Graph(n, edges)
            if canonical_form(g) not in seen:
                seen.add(canonical_form(g))
                reps.append(g)
    return reps


def test_twin_skip_keeps_the_unpruned_output():
    for n in range(0, 7):
        reps = nonisomorphic_graphs(n)
        assert len(forms(reps)) == len(reps)
        assert forms(reps) == forms(unpruned_nonisomorphic_graphs(n))


def test_automorphism_skip_keeps_the_unpruned_output_at_7():
    reps = nonisomorphic_graphs(7)
    assert len(forms(reps)) == len(reps)
    assert forms(reps) == forms(unpruned_nonisomorphic_graphs(7))


def test_automorphism_skip_saves_canonical_searches(monkeypatch):
    # one search per base for its automorphisms and one per candidate whose
    # canonical deletion vertex degrees and neighbour-degree sums leave
    # open.  Kept by a new canonical form, the twin skip alone made 7195,
    # the automorphism skip 5968 and the vertex-deletion skip 2052.
    calls = []
    search = generate._canonical_search

    def counted(adj, **kwargs):
        calls.append(adj)
        return search(adj, **kwargs)

    monkeypatch.setattr(generate, "_canonical_search", counted)
    assert len(nonisomorphic_graphs(7)) == GRAPH_COUNTS[7]
    assert len(calls) == 720


def reference_refinement_key(g: Graph) -> tuple:
    colors = [g.degree(v) for v in range(g.n)]
    for _ in range(3):
        sigs = [(colors[v], tuple(sorted(colors[w] for w in iter_bits(g.adj[v]))))
                for v in range(g.n)]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [ranking[s] for s in sigs]
    return (g.n, g.num_edges(), tuple(sorted(colors)))


def test_refinement_key_matches_reference():
    rng = random.Random(37)
    for _ in range(500):
        g = random_graph(rng, rng.randint(0, 16))
        assert refinement_key(g) == reference_refinement_key(g)


def automorphism_count(g: Graph) -> int:
    """|Aut(g)| by backtracking: map the vertices in order, each to an
    unused vertex whose adjacency to the images so far matches."""
    def extend(image: list[int]) -> int:
        v = len(image)
        if v == g.n:
            return 1
        return sum(extend(image + [w]) for w in range(g.n)
                   if w not in image and g.adj[w].bit_count() == g.adj[v].bit_count()
                   and all((g.adj[v] >> u & 1) == (g.adj[w] >> image[u] & 1)
                           for u in range(v)))
    return extend([])


def generated_group(g: Graph) -> set[tuple[int, ...]]:
    """The group the search's automorphisms generate, closed by BFS."""
    generators = [tuple(image) for image in generate._canonical_search(g.adj)[1]]
    group = {tuple(range(g.n))}
    frontier = list(group)
    while frontier:
        element = frontier.pop()
        for image in generators:
            composed = tuple(image[v] for v in element)
            if composed not in group:
                group.add(composed)
                frontier.append(composed)
    return group


def test_search_automorphisms_generate_the_group():
    # the generator's orbit tests are exact only if the returned
    # automorphisms generate all of Aut(G)
    for n in range(0, 8):
        for g in nonisomorphic_graphs(n):
            assert len(generated_group(g)) == automorphism_count(g), encode_graph6(g)


def test_class_masses_sum_to_the_labelled_count():
    # a class with automorphism group A holds n!/|A| labelled graphs, so
    # the classes are all there, each once, only if the masses add up
    for n in range(0, 8):
        mass = sum(math.factorial(n) // len(generated_group(g))
                   for g in nonisomorphic_graphs(n))
        assert mass == 1 << (n * (n - 1) // 2)


def test_two_connected_counts_match_known_sequence():
    for n in range(3, 7):
        assert sum(1 for g in nonisomorphic_graphs(n)
                   if g.is_two_connected()) == TWO_CONNECTED_COUNTS[n]


def test_representatives_cover_all_labeled_graphs():
    # every labeled graph on 5 vertices is isomorphic to exactly one rep
    reps = nonisomorphic_graphs(5)
    for g in labeled_graphs(5):
        matches = sum(1 for h in reps if refinement_key(h) == refinement_key(g)
                      and nx_isomorphic(g, h))
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
            edges = set(edge_list(h)) ^ {(min(u, v), max(u, v))}
            h = Graph(g.n, edges)
        iso = nx_isomorphic(g, h)
        assert (canonical_form(g) == canonical_form(h)) == iso == is_isomorphic_small(g, h)
        outcomes[iso] += 1
    assert min(outcomes.values()) > 300


def automorphisms_hold(g: Graph) -> int:
    """Check by the definition every automorphism the canonical search
    returns, and the best leaf order against the form; count the
    automorphisms."""
    form, automorphisms, order = generate._canonical_search(g.adj)
    assert form == canonical_form(g)
    assert sorted(order) == list(range(g.n))
    pos = {v: i for i, v in enumerate(order)}
    cert = 1
    for v in order:
        cert = cert << g.n | sum(1 << pos[w] for w in iter_bits(g.adj[v]))
    assert cert == form
    for image in automorphisms:
        assert sorted(image) == list(range(g.n))
        for v in range(g.n):
            assert sum(1 << image[w] for w in iter_bits(g.adj[v])) == g.adj[image[v]]
    return len(automorphisms)


def test_search_automorphisms_on_small_classes():
    assert sum(automorphisms_hold(g) for n in range(0, 8)
               for g in nonisomorphic_graphs(n)) > 0


def test_search_automorphisms_on_random_graphs():
    rng = random.Random(41)
    assert sum(automorphisms_hold(random_graph(rng, rng.randint(0, 10)))
               for _ in range(300)) > 0


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def test_search_returns_the_twin_swaps():
    # the search prunes twins u, v (N(u) - {v} == N(v) - {u}), so it meets
    # no leaf that swaps them; it returns the swap of each vertex with its
    # nearest lower twin itself, once, so every vertex with a twin is
    # moved by a returned automorphism
    graphs = [complete_graph(5), complete_bipartite(3, 3), Graph(4)]
    graphs += [g for n in range(0, 7) for g in nonisomorphic_graphs(n)]
    for g in graphs:
        automorphisms_hold(g)
        automorphisms = generate._canonical_search(g.adj)[1]
        for v in range(g.n):
            for u in range(v - 1, -1, -1):
                if (g.adj[u] ^ g.adj[v]) & ~(1 << u | 1 << v) == 0:
                    swap = list(range(g.n))
                    swap[u], swap[v] = v, u
                    assert automorphisms.count(swap) == 1, (encode_graph6(g), u, v)
                    break


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
    u, v = edge_list(g)[0] if g.num_edges() else (0, 1)
    edges = set(edge_list(g)) ^ {(u, v)}
    assert canonical_form(Graph(g.n, edges)) != form
    automorphisms_hold(g)


def test_canonical_form_separates_orders():
    # the leading bit keeps edgeless graphs of different order apart
    assert len({canonical_form(Graph(n)) for n in range(0, 12)}) == 12

