"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Corpora: exhaustive labeled enumeration for n <= 6, one representative
per isomorphism class for n in {7, 8} (every condition under test is
isomorphism-invariant, so the reduced corpus verifies the same
universally quantified statements).  Criteria 01-03 and 06 also have an
n = 9 leg, marked slow, over the 2-connected 9-vertex classes of the
`two_connected_9` fixture (see conftest.py).

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines,
and with `-m slow` for the n = 9 legs.
"""

import itertools
import random
import time

import networkx as nx
import pytest

from fanheavy.conditions import (is_R_f_heavy, is_R_free,
                                 satisfies_fan, theorem4_condition,
                                 theorem5_condition)
from fanheavy.cycles import (find_cycle_through, find_hamilton_cycle, heavy_vertices,
                             expand_o_cycle, is_valid_cycle)
from fanheavy.generate import labeled_graphs
from fanheavy.graph import Graph, path_graph
from fanheavy.graphio import decode_graph6, encode_graph6
from fanheavy.patterns import (CATALOG_NAMES, Pattern, enumerate_induced_copies,
                               is_isomorphic_small, pattern)
from fanheavy.witness import build_witness, classify_witness

from conftest import (TWO_CONNECTED_COUNTS, complete_graph, cycle_graph,
                      hamiltonian_brute_force, induced, k23, petersen, random_graph,
                      random_o_cycle, to_nx)

SEED = 1729


def report(num, desc, ok):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="session")
def labeled_small():
    """All labeled graphs with n <= 6."""
    return [g for n in range(0, 7) for g in labeled_graphs(n)]


@pytest.fixture(scope="session")
def two_connected_corpus(two_connected_by_n):
    """2-connected graphs: exhaustive labeled n <= 6 plus representatives
    for n in {7, 8}."""
    corpus = [g for n in range(3, 7) for g in labeled_graphs(n) if g.is_two_connected()]
    corpus += two_connected_by_n[7] + two_connected_by_n[8]
    return corpus


def _passed_and_counterexamples(graphs, hypothesis):
    passed = [g for g in graphs if hypothesis(g).verdict]
    return passed, [encode_graph6(g) for g in passed if find_hamilton_cycle(g) is None]


def _run_theorem(num, name, hypothesis, two_connected_corpus):
    _, bad = _passed_and_counterexamples(two_connected_corpus, hypothesis)
    report(num, f"{name} exhaustive check, 2-connected n<=8 "
                f"({len(two_connected_corpus)} graphs): "
                f"{len(bad)} counterexamples", not bad)


def test_criterion_01_theorem5(two_connected_by_n, two_connected_corpus):
    _run_theorem(1, "theorem 5", theorem5_condition, two_connected_corpus)


def test_criterion_02_theorem1(two_connected_by_n, two_connected_corpus):
    _run_theorem(2, "theorem 1 (fan)", satisfies_fan, two_connected_corpus)


def test_criterion_03_theorem4(two_connected_by_n, two_connected_corpus):
    _run_theorem(3, "theorem 4", theorem4_condition, two_connected_corpus)


@pytest.mark.slow
@pytest.mark.parametrize("num, name, hypothesis, expected_passed", [
    (1, "theorem 5", theorem5_condition, 13053),
    (2, "theorem 1 (fan)", satisfies_fan, 10101),
    (3, "theorem 4", theorem4_condition, 13053)], ids=["thm5", "fan", "thm4"])
def test_criteria_01_to_03_on_n9(two_connected_9, num, name, hypothesis,
                                 expected_passed):
    passed, bad = _passed_and_counterexamples(two_connected_9, hypothesis)
    report(num, f"{name} exhaustive check, 2-connected n=9 "
                f"({len(two_connected_9)} graphs): {len(passed)} pass the "
                f"hypothesis, {len(bad)} counterexamples",
           len(passed) == expected_passed and not bad)


@pytest.fixture(scope="session")
def implication_corpus(labeled_small, reps7, reps8):
    corpus = list(labeled_small) + list(reps7) + list(reps8)
    rng = random.Random(SEED)
    for _ in range(10_000):
        corpus.append(random_graph(rng, rng.randint(1, 16)))
    return corpus


def test_criterion_04_implications(implication_corpus):
    violations = 0
    for g in implication_corpus:
        if satisfies_fan(g).verdict and not theorem5_condition(g).verdict:
            violations += 1
        if theorem4_condition(g).verdict and not theorem5_condition(g).verdict:
            violations += 1
    report(4, f"fan=>thm5 and thm4=>thm5 on {len(implication_corpus)} graphs: "
              f"{violations} violations", violations == 0)


def _two_heavy_scan(g):
    """2-heavy by its definition, one centre at a time: no vertex c has
    light, non-adjacent neighbours u < v and a third neighbour adjacent to
    neither, which would make a claw with two light ends."""
    adj = g.adj
    light = [2 * row.bit_count() < g.n for row in adj]
    for c in range(g.n):
        for u in range(g.n):
            if not (light[u] and adj[c] >> u & 1):
                continue
            for v in range(u + 1, g.n):
                if light[v] and (adj[c] & ~adj[u]) >> v & 1:
                    if adj[c] & ~adj[u] & ~adj[v] & ~(1 << u | 1 << v):
                        return False
    return True


def test_criterion_05_definition_identities(implication_corpus):
    pats = [pattern(name) for name in CATALOG_NAMES]
    p7 = pattern("p7")
    long_paths = [Pattern(f"p{k}", path_graph(k)) for k in (8, 9)]
    violations = 0
    for g in implication_corpus:
        for p in pats:
            if is_R_free(g, p) and not is_R_f_heavy(g, p).verdict:
                violations += 1
        if _two_heavy_scan(g) != is_R_f_heavy(g, pattern("claw")).verdict:
            violations += 1
        if is_R_f_heavy(g, p7).verdict:
            # catalog paths top out at k=7; the k>7 leg is exercised with
            # custom longer paths
            for pk in long_paths:
                if not is_R_f_heavy(g, pk).verdict:
                    violations += 1
    report(5, f"R-free=>R-f-heavy, 2-heavy<=>claw-f-heavy, p7=>p8/p9 "
              f"f-heavy on {len(implication_corpus)} graphs: "
              f"{violations} violations", violations == 0)


def _run_lemma1(graphs):
    failures = sum(1 for g in graphs
                   if find_cycle_through(g, set(heavy_vertices(g))) is None)
    report(6, f"lemma 1: heavy cycle exists in all {len(graphs)} 2-connected "
              f"graphs: {failures} failures", failures == 0)


def test_criterion_06_lemma1_heavy_cycles(two_connected_corpus):
    _run_lemma1(two_connected_corpus)


@pytest.mark.slow
def test_criterion_06_lemma1_heavy_cycles_on_n9(two_connected_9):
    _run_lemma1(two_connected_9)


@pytest.mark.slow
def test_hamiltonian_count_on_n9(two_connected_9):
    # OEIS A003216: 177083 Hamiltonian classes with n = 9
    non_hamiltonian = sum(1 for g in two_connected_9 if find_hamilton_cycle(g) is None)
    assert non_hamiltonian == 16983
    assert TWO_CONNECTED_COUNTS[9] - non_hamiltonian == 177083


def test_criterion_07_lemma2_expansion():
    rng = random.Random(SEED)
    trials = 0
    violations = 0
    while trials < 1000:
        n = rng.randint(3, 12)
        g = random_graph(rng, n, rng.uniform(0.2, 0.9))
        if g.reachable_from(1, g.full_mask()) != g.full_mask():
            continue
        oc = random_o_cycle(rng, g)
        if oc is None:
            continue
        trials += 1
        try:
            c = expand_o_cycle(g, oc)
            assert is_valid_cycle(g, c) and set(oc.seq) <= set(c)
        except Exception:
            violations += 1
    report(7, f"lemma 2: {trials} random o-cycle expansions: "
              f"{violations} violations", violations == 0)


def test_criterion_08_oracle_equivalence(labeled_small, reps7):
    # induced-copy enumeration vs brute-force subset scan
    rng = random.Random(SEED)
    mismatches = 0
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 8))
        for name in CATALOG_NAMES:
            p = pattern(name)
            brute = [s for s in itertools.combinations(range(g.n), p.graph.n)
                     if is_isomorphic_small(induced(g, s), p.graph)]
            if enumerate_induced_copies(g, p) != brute:
                mismatches += 1
    # Hamiltonicity vs permutation brute force: every labeled graph n <= 6
    # plus one representative per isomorphism class at n = 7
    ham_mismatches = 0
    checked = 0
    for g in itertools.chain(labeled_small, reps7):
        checked += 1
        if (find_hamilton_cycle(g) is not None) != hamiltonian_brute_force(g):
            ham_mismatches += 1
    report(8, f"oracle equivalence: 500 random graphs x {len(CATALOG_NAMES)} "
              f"patterns ({mismatches} enum mismatches); Hamiltonicity on "
              f"{checked} graphs ({ham_mismatches} mismatches)",
           mismatches == 0 and ham_mismatches == 0)


def test_criterion_09_witness_suite():
    # witnesses re-checked by networkx: distance 2 in G or inside the
    # subset, and the subset inducing the pattern
    ok = True
    notes = []
    for n in (16, 18, 20):
        g = build_witness(n)
        h = to_nx(g)
        rep = classify_witness(g)
        ok &= rep["flags"]["hamiltonian"]["verified"]
        cyc = tuple(rep["flags"]["hamiltonian"]["detail"]["cycle"])
        ok &= is_valid_cycle(g, cyc) and len(cyc) == n

        ok &= not rep["flags"]["fan_condition"]["verified"]
        v = rep["flags"]["fan_condition"]["detail"]["violations"][0]
        u, w = v["pair"]
        ok &= nx.shortest_path_length(h, u, w) == 2
        ok &= 2 * g.degree(u) < n and 2 * g.degree(w) < n

        ok &= not rep["flags"]["thm4_condition"]["verified"]
        v = rep["flags"]["thm4_condition"]["detail"]["violations"][0]
        ok &= v["pattern"] == "p7"
        ok &= nx.is_isomorphic(h.subgraph(v["subset"]), to_nx(pattern("p7").graph))

        ok &= rep["flags"]["claw_free"]["verified"]

        # thm5: the criterion is verdict validity, not agreement with the
        # construction's claimed status
        if rep["flags"]["thm5_condition"]["verified"]:
            notes.append(f"n={n}: thm5 verified true (claim agrees)")
        else:
            v = rep["flags"]["thm5_condition"]["detail"]["violations"][0]
            sub = h.subgraph(v["subset"])
            ok &= nx.is_isomorphic(sub, to_nx(pattern(v["pattern"]).graph))
            u, w = v["pair"]
            ok &= nx.shortest_path_length(sub, u, w) == 2
            ok &= 2 * g.degree(u) < n and 2 * g.degree(w) < n
            notes.append(f"n={n}: thm5 machine-false (claimed true), "
                         f"violation re-validated")
    report(9, "witness suite n in {16,18,20}: hamiltonian/fan/thm4/claw_free "
              "as expected; " + "; ".join(notes), ok)


def test_criterion_10_codec():
    rng = random.Random(SEED)
    mismatches = 0
    for _ in range(1000):
        g = random_graph(rng, rng.randint(0, 20))
        if decode_graph6(encode_graph6(g)) != g:
            mismatches += 1
    # reference encodings of K1..K8 (frozen from an independent graph6
    # implementation)
    reference = ["@", "A_", "Bw", "C~", "D~{", "E~~w", "F~~~w", "G~~~~{"]
    ref_ok = all(encode_graph6(complete_graph(n)) == reference[n - 1]
                 for n in range(1, 9))
    report(10, f"graph6 codec: 1000 round-trips ({mismatches} mismatches); "
               f"K1..K8 reference encodings byte-exact: {ref_ok}",
           mismatches == 0 and ref_ok)


def test_criterion_11_known_instances():
    timings = {}
    t0 = time.monotonic()
    pet_ham = find_hamilton_cycle(petersen()) is not None
    timings["petersen"] = time.monotonic() - t0
    t0 = time.monotonic()
    c5_ham = find_hamilton_cycle(cycle_graph(5)) is not None
    timings["c5"] = time.monotonic() - t0
    t0 = time.monotonic()
    k23_ham = find_hamilton_cycle(k23()) is not None
    timings["k23"] = time.monotonic() - t0
    ok = (not pet_ham and c5_ham and not k23_ham
          and all(t < 1.0 for t in timings.values()))
    report(11, f"known instances: Petersen non-Ham, C5 Ham, K23 non-Ham; "
               f"timings {({k: round(v, 4) for k, v in timings.items()})}", ok)
