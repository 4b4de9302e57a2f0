import hashlib
import math
import random

import networkx as nx
import pytest

from fanheavy import generate
from fanheavy.cli import main
from fanheavy.generate import (canonical_form, labeled_graphs,
                               nonisomorphic_graphs, refinement_key)
from fanheavy.graph import Graph, iter_bits
from fanheavy.graphio import decode_graph6, encode_graph6
from fanheavy.patterns import is_isomorphic_small

from conftest import (DATA, GRAPH_COUNTS, TWO_CONNECTED_COUNTS, complete_graph,
                      counted_generation, cycle_graph, edge_list, nx_isomorphic, petersen,
                      random_graph)


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


def test_nonisomorphic_7_output_is_pinned(capsys):
    # `gen --n 7 --reduce` stdout, which streams the children of the n = 6
    # classes, and the same lines from `nonisomorphic_graphs(7)`; a change
    # in output order changes it
    assert main(["gen", "--n", "7", "--reduce"]) == 0
    text = "\n".join(encode_graph6(g) for g in nonisomorphic_graphs(7)) + "\n"
    assert capsys.readouterr().out == text
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d0e4a19fccc3afdefe0700aeadc1e4eccb213f661267832ca8fbe5d8f9172869")


def test_nonisomorphic_8_output_is_pinned():
    # `gen --n 8 --reduce` stdout; the orbit and tie tests of the
    # generator must keep it byte for byte
    text = "".join(encode_graph6(g) + "\n" for g in nonisomorphic_graphs(8))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4e570bc1d83cd534e4646f5891cff043c82cd19ced38d95730646a22d275cea8")


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
    # canonical deletion vertex degrees, neighbour-degree sums, twins of
    # the new vertex and the cells of the equitable partition leave open.
    # Kept by a new canonical form, the twin skip alone made 7195 at n = 7,
    # the automorphism skip 5968 and the vertex-deletion skip 2052; the
    # canonical construction path made 720 with a search on every tie and
    # 652 (4148 at n = 8) once the cells settled ties first.
    for n, pinned in (7, 424), (8, 2701):
        graphs, searches = counted_generation(monkeypatch, n)
        assert (len(graphs), searches) == (GRAPH_COUNTS[n], pinned)


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


def group_closure(n: int, generators: list[list[int]]) -> set[tuple[int, ...]]:
    """The permutation group on range(n) that `generators` generate, closed
    by BFS."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        element = frontier.pop()
        for image in generators:
            composed = tuple(image[v] for v in element)
            if composed not in group:
                group.add(composed)
                frontier.append(composed)
    return group


def generated_group(g: Graph) -> set[tuple[int, ...]]:
    """The group the search's automorphisms generate."""
    return group_closure(g.n, generate._canonical_search(g.adj)[1])


def set_image(image, s: int) -> int:
    return sum(1 << image[v] for v in iter_bits(s))


def set_tables(n: int, images) -> list[list[int]]:
    """The image of every vertex set under each permutation, indexed by
    bitmask, as the generator tabulates its base automorphisms."""
    return [[set_image(image, s) for s in range(1 << n)] for image in images]


def orbit_cases():
    """(n, permutations of range(n)) pairs for the orbit test: the
    automorphisms the search returns for every base with n <= 6, then
    generating sets too small to reach the orbit minimum in one step.  On
    every base with n <= 8 the search returns so many automorphisms that
    one step of each finds a smaller image if there is one; with one
    rotation of a 6-cycle, or a rotation and a swap for the symmetric
    group, only the closure does."""
    for n in range(0, 7):
        for base in nonisomorphic_graphs(n):
            yield n, generate._canonical_search(base.adj)[1]
    rotation = [1, 2, 3, 4, 5, 0]
    yield 6, [rotation]
    yield 6, [rotation, [1, 0, 2, 3, 4, 5]]


def test_orbit_least_matches_the_group_orbit():
    # the parent-side test against the orbit under the whole group
    for n, generators in orbit_cases():
        group = group_closure(n, generators)
        tables = set_tables(n, generators)
        for s in range(1 << n):
            least = min(set_image(image, s) for image in group)
            assert generate._orbit_least(s, tables) == (least == s), (generators, s)


def least_invariant(g: Graph) -> int:
    """The vertices of least degree and, among those, least sum of
    neighbour degrees, computed on the graph itself."""
    keys = [(g.degree(v), sum(g.degree(w) for w in iter_bits(g.adj[v]))) for v in range(g.n)]
    return sum(1 << v for v, key in enumerate(keys) if key == min(keys))


def full_search_deletion(rows: list[int], tied: int) -> bool:
    """`_is_canonical_deletion` with no pre-test: a canonical search on
    every tie, and the orbit of m from the whole group."""
    x = len(rows) - 1
    g = Graph.from_rows(tuple(rows))
    order = generate._canonical_search(g.adj)[2]
    m = next(v for v in order if tied >> v & 1)
    return x in {image[m] for image in generated_group(g)}


def all_twins_of(g: Graph, x: int, vertices: int) -> bool:
    # by the definition, N(u) - {x} == N(x) - {u}
    return all(g.adj[u] & ~(1 << x) == g.adj[x] & ~(1 << u) for u in iter_bits(vertices))


def expected_exit(g: Graph, tied: int) -> tuple[str, bool]:
    """Which step of `_is_canonical_deletion` decides the candidate g, in
    whose `tied` set x ties with more, worked out from the definitions,
    and whether it calls `_refine`."""
    x = g.n - 1
    if all_twins_of(g, x, tied):
        return "tied set of twins", False
    everything = (1 << g.n) - 1
    cells = generate._refine(g.adj, [everything], [everything])
    cell = next(c for c in cells if c & tied)
    if not cell >> x & 1:
        return "x not in the cell", True
    if all_twins_of(g, x, cell):
        return "cell of twins" if cell != 1 << x else "x alone in the cell", True
    return "search", True


def candidate(adj: tuple[int, ...], nbhd: int) -> Graph:
    """The base with rows `adj` plus a new last vertex with neighbourhood `nbhd`."""
    last = 1 << len(adj)
    rows = list(adj) + [nbhd]
    for v in iter_bits(nbhd):
        rows[v] |= last
    return Graph.from_rows(tuple(rows))


def candidates_with_a_tie(n_max: int) -> dict[tuple[int, ...], int]:
    """Rows -> tied set of every candidate B + x with n <= n_max whose
    neighbourhood is the least of its orbit under Aut(B) and where x ties
    with another vertex for the least degree and neighbour-degree sum, the
    tie computed on the candidate itself."""
    out = {}
    for n in range(1, n_max + 1):
        last = 1 << (n - 1)
        for base in nonisomorphic_graphs(n - 1):
            tables = set_tables(n - 1, generate._canonical_search(base.adj)[1])
            for nbhd in range(last):
                g = candidate(base.adj, nbhd)
                tied = least_invariant(g)
                if tied & last and tied != last and generate._orbit_least(nbhd, tables):
                    out[g.adj] = tied
    return out


def test_orbit_test_sees_exactly_the_candidates_of_least_degree(monkeypatch):
    # the degree test before `_orbit_least` reads only the base's least
    # degree; at every level of nonisomorphic_graphs(7) the (base, S) pairs
    # that reach the orbit test are exactly those where no vertex of B + S
    # has degree below |S|, computed on the candidate itself
    search, orbit_least = generate._canonical_search, generate._orbit_least
    bases: list[tuple[int, ...]] = []
    reached: list[tuple[tuple[int, ...], int]] = []

    def base_search(adj, root=None):
        # the child-side test passes `root`; a base's search does not
        if root is None:
            bases.append(adj)
        return search(adj, root)

    def spied(nbhd, tables):
        reached.append((bases[-1], nbhd))
        return orbit_least(nbhd, tables)

    monkeypatch.setattr(generate, "_canonical_search", base_search)
    monkeypatch.setattr(generate, "_orbit_least", spied)
    assert len(nonisomorphic_graphs(7)) == GRAPH_COUNTS[7]
    assert len(bases) == sum(GRAPH_COUNTS[n] for n in range(7))
    expected = [(adj, nbhd) for adj in bases for nbhd in range(1 << len(adj))
                if min(map(int.bit_count, candidate(adj, nbhd).adj)) >= nbhd.bit_count()]
    assert reached == expected


def test_cell_pretest_agrees_with_a_full_search(monkeypatch):
    # the generator hands the child-side test exactly the candidates with
    # n <= 7 where x ties, with the tied set it reads off the base's degree
    # sums; the verdict is a full search's, and the step that decides it
    # is the first the definitions allow
    expected = candidates_with_a_tie(7)
    deletion, refine, search = (generate._is_canonical_deletion, generate._refine,
                                generate._canonical_search)
    handed: dict[tuple[int, ...], int] = {}
    steps: list[str] = []
    exits: dict[str, int] = {}

    def checked(rows, tied):
        g = Graph.from_rows(tuple(rows))
        handed[g.adj] = tied
        verdict = full_search_deletion(rows, tied)
        name, refines = expected_exit(g, tied)
        steps.clear()
        assert deletion(rows, tied) == verdict, encode_graph6(g)
        assert ("refine" in steps, "search" in steps) == (refines, name == "search"), (
            encode_graph6(g), name, steps)
        exits[name] = exits.get(name, 0) + 1
        return verdict

    monkeypatch.setattr(generate, "_is_canonical_deletion", checked)
    monkeypatch.setattr(generate, "_refine",
                        lambda *args: steps.append("refine") or refine(*args))
    monkeypatch.setattr(generate, "_canonical_search",
                        lambda adj, **kw: steps.append("search") or search(adj, **kw))
    classes = len(nonisomorphic_graphs(7))
    assert [rows for rows in handed.keys() & expected.keys()
            if handed[rows] != expected[rows]] == []
    assert handed.keys() == expected.keys()
    assert classes == GRAPH_COUNTS[7]
    assert exits.keys() == {"tied set of twins", "x not in the cell", "cell of twins",
                            "x alone in the cell", "search"}, exits


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

