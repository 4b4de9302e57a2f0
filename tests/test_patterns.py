import os
import random
import subprocess
import sys
import time
from itertools import combinations, permutations

import pytest

from fanheavy.conditions import is_R_f_heavy
from fanheavy.graph import Graph, iter_bits, path_graph
from fanheavy.graphio import encode_graph6
from fanheavy.patterns import (CATALOG_NAMES, ISO_MAX_N, Pattern, _induced_copies, _search_plan,
                               enumerate_induced_copies, has_induced_copy, is_isomorphic_small,
                               pattern)

from conftest import (SYMMETRIC_PATTERNS, _reps, complete_graph, cycle_graph, edge_list,
                      induced, k23, nx_isomorphic)


def brute_force_copies(g, p):
    """Oracle: scan every |V(p)|-subset and test induced isomorphism, by
    `is_isomorphic_small`, or by networkx above its n <= 10."""
    k = p.graph.n
    iso = is_isomorphic_small if k <= ISO_MAX_N else nx_isomorphic
    out = []
    return [subset for subset in combinations(range(g.n), k)
            if iso(induced(g, subset), p.graph)]


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
        pattern("custom")  # neither a catalog name nor graph6


def test_custom_pattern():
    p = Pattern("c4", cycle_graph(4))
    assert len(enumerate_induced_copies(complete_graph(4), p)) == 0
    assert enumerate_induced_copies(cycle_graph(4), p) == [(0, 1, 2, 3)]


def test_searches_use_the_plans_built_with_the_pattern(monkeypatch):
    assert all(pattern(name) is pattern(name.upper()) for name in CATALOG_NAMES)
    built = []

    def counted(p, root):
        built.append((id(p), root))
        return _search_plan(p, root)
    monkeypatch.setattr("fanheavy.patterns._search_plan", counted)

    # fresh instances, whose plans no earlier test has built
    pats = ([Pattern(name, pattern(name).graph) for name in CATALOG_NAMES]
            + [Pattern("p8", path_graph(8))])
    assert built == []
    # disjoint copies of them all: every vertex is light, so each
    # is_R_f_heavy call fails
    edges, n = [], 0
    for p in pats:
        edges += [(u + n, v + n) for u, v in edge_list(p.graph)]
        n += p.graph.n
    g = Graph(n, edges)
    for _ in range(2):
        for p in pats:
            assert has_induced_copy(g, p) is not None
            assert enumerate_induced_copies(g, p)
            assert not is_R_f_heavy(g, p).verdict
    # one plan per Aut-orbit root of each pattern, each built once
    assert sorted(built) == sorted((id(p.graph), root) for p in pats for root in p.kernels)


def test_import_builds_no_plan():
    # a fresh interpreter, since this one has imported fanheavy already;
    # the package root imports no submodule, so import each of them
    code = ("import sys\n"
            "calls = []\n"
            "sys.setprofile(lambda frame, event, arg: event == 'call'"
            " and frame.f_globals.get('__name__') == 'fanheavy.patterns'"
            " and frame.f_code.co_name in ('_search_plan', '_compile')"
            " and calls.append(frame.f_code.co_name))\n"
            "import importlib, pkgutil, fanheavy\n"
            "for info in pkgutil.iter_modules(fanheavy.__path__):\n"
            "    importlib.import_module('fanheavy.' + info.name)\n"
            "sys.setprofile(None)\n"
            "print(calls, 'fanheavy.patterns' in sys.modules)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # patterns was loaded, yet no plan was built and no kernel compiled
    assert proc.stdout == "[] True\n"


def test_empty_pattern_has_no_copies():
    k0 = Pattern("k0", Graph(0))
    assert k0 == Pattern("k0", Graph(0)) and k0.kernels == {}
    for g in (Graph(0), complete_graph(3), cycle_graph(6)):
        assert enumerate_induced_copies(g, k0) == []
        assert has_induced_copy(g, k0) is None
        assert is_R_f_heavy(g, k0).verdict


def test_pattern_from_graph6_spec():
    assert pattern("deer").name == "deer"
    p = pattern("Cl")  # C4 in graph6
    assert is_isomorphic_small(p.graph, cycle_graph(4))
    with pytest.raises(ValueError):
        pattern("!!nope!!")
    with pytest.raises(ValueError, match="no vertices"):
        pattern("?")  # K0
    assert pattern("@").graph.n == 1


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
    relab = Graph(7, [(perm[u], perm[v]) for u, v in edge_list(deer)])
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
                assert is_isomorphic_small(induced(g, copy), p.graph)


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


def _search_hosts(seed):
    """Every class with n <= 6 and seeded random graphs with n <= 10."""
    rng = random.Random(seed)
    hosts = [g for n in range(7) for g in _reps(n)]
    for _ in range(150):
        n = rng.randint(4, 10)
        p = rng.random()
        hosts.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    return hosts


def test_search_yields_each_copy_once():
    pats = ([pattern(name) for name in CATALOG_NAMES] + list(SYMMETRIC_PATTERNS.values())
            + [Pattern("k1", Graph(1)), Pattern("k2", complete_graph(2)), Pattern("2k1", Graph(2))])
    for g in _search_hosts(59):
        for p in pats:
            for below in (None, g.n):
                masks = list(_induced_copies(g, p, below))
                assert len(masks) == len(set(masks)), (g, p.name, below)
                copies = sorted(tuple(v for v in range(g.n) if (m >> v) & 1) for m in masks)
                assert copies == brute_force_copies(g, p), (g, p.name, below)


def _backward_search(g, starts):
    """The copy search before forward checking: each start is (links,
    after, first, allowed), and a position's hosts are worked out from
    its backward links and its lex-leader cut only when the search reaches
    it.  Yields the image vectors, in plan order."""
    for links, after, first, allowed in starts:
        k = len(links)
        image = [0] * k
        stack = [first]
        while stack:
            pos = len(stack) - 1
            cands = stack[pos]
            if not cands:
                stack.pop()
                continue
            low = cands & -cands
            stack[pos] = cands ^ low
            image[pos] = low.bit_length() - 1
            if pos + 1 == k:
                yield tuple(image)
                continue
            mask = allowed
            for j, adjacent in links[pos + 1]:
                host = image[j]
                mask &= g.adj[host] if adjacent else ~(g.adj[host] | (1 << host))
            if after[pos + 1] >= 0:
                mask &= -(2 << image[after[pos + 1]])
            stack.append(mask)


def _lex_leader_cuts(links):
    """after[q] of a plan, from its links alone: the latest position i
    whose orbit under the automorphisms fixing the positions before i
    holds q, or -1.  The automorphisms are the embeddings of the pattern,
    numbered by position, in itself."""
    k = len(links)
    p = Graph(k, [(j, pos) for pos, row in enumerate(links) for j, adjacent in row if adjacent])
    full = p.full_mask()
    after = [-1] * k
    for s in _backward_search(p, [(links, after[:], full, full)]):
        for i in range(k):
            if s[i] != i:
                after[s[i]] = max(after[s[i]], i)
                break
    return after


def _links(p, root):
    """The backward links of the plan of `p` rooted at `root`, read off its
    forward table: links[q] holds (pos, adjacent) exactly when forward[pos]
    holds (q, adjacent, _)."""
    forward, _orbit = _search_plan(p.graph, root)
    links = [[] for _ in forward]
    for pos, row in enumerate(forward):
        for q, adjacent, _cut in row:
            links[q].append((pos, adjacent))
    return links


def _masks(images):
    return [sum(1 << v for v in image) for image in images]


def _assert_yields_unchanged(p, hosts):
    """`_induced_copies` yields the masks of `_backward_search` in both
    modes, with the cuts worked out from the plan links alone; returns the
    number of copies."""
    k = p.graph.n
    links = _links(p, p.top)
    plan = (links, _lex_leader_cuts(links))
    rooted = [(r, _lex_leader_cuts(r)) for r in (_links(p, root) for root in p.kernels)]
    copies = 0
    for g in hosts:
        full = g.full_mask()
        expected = _masks(_backward_search(g, [(*plan, full, full)]))
        assert list(_induced_copies(g, p)) == expected, (g, p.name)
        walk = list(_induced_copies(g, p, below=g.n))
        starts = [(*r, 1 << a, full >> a << a) for a in range(g.n - k + 1) for r in rooted]
        assert walk == _masks(_backward_search(g, starts)), (g, p.name)
        # the same copies, one root per orbit
        assert sorted(walk) == sorted(expected), (g, p.name)
        copies += len(expected)
    return copies


def test_forward_checking_keeps_the_yield_sequence():
    rng = random.Random(67)
    small = [g for n in range(8) for g in _reps(n)]  # the first 209 have n <= 6
    hosts = small[:]
    for i in range(160):
        n = rng.randint(8, 14)
        p = rng.uniform(0.1, 0.35) if i % 2 else rng.uniform(0.55, 0.9)
        hosts.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    pats = ([pattern(name) for name in CATALOG_NAMES] + [Pattern("p9", path_graph(9))]
            + list(SYMMETRIC_PATTERNS.values()))
    assert sum(_assert_yields_unchanged(p, hosts) for p in pats) > 10000
    # the orbits behind the plans come from the same search, with no cuts:
    # every 5-vertex pattern on the classes with n <= 6
    for r in _reps(5):
        _assert_yields_unchanged(Pattern(encode_graph6(r), r), small[:209])


def test_bounded_walk_is_a_prefix_of_the_walk():
    """A bound b on the walk by smallest vertex yields the copies of the
    unbounded walk whose smallest vertex is below b, in the same order."""
    rng = random.Random(73)
    hosts = [g for n in range(8) for g in _reps(n)]
    for i in range(60):
        n = rng.randint(8, 13)
        p = rng.uniform(0.1, 0.35) if i % 2 else rng.uniform(0.55, 0.9)
        hosts.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    pats = ([pattern(name) for name in CATALOG_NAMES] + list(SYMMETRIC_PATTERNS.values())
            + [pattern(token) for token in ("A?", "CV", "DQw", "ECqo")])
    copies = 0
    for g in hosts:
        for p in pats:
            walk = list(_induced_copies(g, p, below=g.n))
            copies += len(walk)
            for bound in range(g.n + 1):
                prefix = [m for m in walk if (m & -m).bit_length() <= bound]
                assert list(_induced_copies(g, p, bound)) == prefix, (g, p.name, bound)
    assert copies > 10000


def _first_copy_unconstrained(g, links):
    """The copy search with no symmetry cuts: plan positions mapped in
    order, lowest host first; the host set of the first embedding."""
    image = []

    def extend():
        if len(image) == len(links):
            return True
        for h in range(g.n):
            if h not in image and all(g.has_edge(h, image[j]) == bool(adjacent)
                                      for j, adjacent in links[len(image)]):
                image.append(h)
                if extend():
                    return True
                image.pop()
        return False

    return tuple(sorted(image)) if extend() else None


def test_first_copy_unchanged_by_symmetry_cuts():
    hits = 0
    links = {p.name: _links(p, p.top) for p in SYMMETRIC_PATTERNS.values()}
    for g in _search_hosts(61):
        for p in SYMMETRIC_PATTERNS.values():
            first = has_induced_copy(g, p)
            assert first == _first_copy_unconstrained(g, links[p.name]), (g, p.name)
            hits += first is not None
    assert hits > 500


def _orbit_count(p):
    """Aut(p)-orbits of vertices, from every permutation of p."""
    edges = {frozenset(e) for e in edge_list(p.graph)}
    k = p.graph.n
    autos = [perm for perm in permutations(range(k))
             if all(frozenset((perm[u], perm[v])) in edges for u, v in edge_list(p.graph))]
    return len({frozenset(perm[v] for perm in autos) for v in range(k)})


def test_rooted_plans_one_per_orbit():
    for p in [pattern(name) for name in CATALOG_NAMES] + list(SYMMETRIC_PATTERNS.values()):
        assert len(p.kernels) == _orbit_count(p), p.name


def test_long_paths_run_across_kernel_functions():
    # a kernel nests at most 20 positions in one function; P21 hands its
    # last position to a second function and P25 its last five
    for k in (21, 25):
        p = Pattern(f"p{k}", path_graph(k))
        chord = Graph(k + 1, edge_list(cycle_graph(k + 1)) + [(0, k // 2)])
        for h in (cycle_graph(k + 1), path_graph(k + 2), chord):
            expected = brute_force_copies(h, p)
            assert expected and enumerate_induced_copies(h, p) == expected
            assert sorted(tuple(iter_bits(m)) for m in _induced_copies(h, p, below=h.n)) == expected


def test_symmetric_patterns_build_fast():
    for g in (complete_graph(12), Graph(12)):
        t0 = time.perf_counter()
        p = pattern(encode_graph6(g))
        assert len(p.kernels) == 1  # builds the plans and compiles their kernels
        assert time.perf_counter() - t0 < 1.0
        assert enumerate_induced_copies(g, p) == [tuple(range(12))]
        # hosts on 13 and 14 vertices with a few pairs flipped from g's
        for n, flips in ((13, {(0, 1)}), (14, {(0, 1), (0, 2), (5, 9)})):
            h = Graph(n, [e for e in combinations(range(n), 2) if (e in flips) != (g.num_edges() > 0)])
            expected = brute_force_copies(h, p)
            assert expected and enumerate_induced_copies(h, p) == expected
            assert sorted(tuple(iter_bits(m)) for m in _induced_copies(h, p, below=h.n)) == expected
