"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Corpora: exhaustive labeled enumeration for n <= 6, one representative
per isomorphism class for n in {7, 8} (every condition under test is
isomorphism-invariant, so the reduced corpus verifies the same
universally quantified statements).  An n = 9 corpus of 2-connected
graphs is consumed from the FANHEAVY_N9_CORPUS environment variable or
tests/data/two_connected_9.g6 when present; without one the n = 9 leg is
reported as not supplied.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import itertools
import os
import random
import time
from pathlib import Path

import pytest

from fanheavy.conditions import (is_2_heavy, is_R_f_heavy, is_R_free,
                                 satisfies_fan, theorem4_condition,
                                 theorem5_condition)
from fanheavy.cycles import (find_cycle_through, find_hamilton_cycle,
                             hamiltonian_brute_force, heavy_vertices,
                             expand_o_cycle, is_valid_cycle)
from fanheavy.generate import labeled_graphs, random_graph, random_o_cycle
from fanheavy.graph import Graph, complete_graph, cycle_graph, path_graph
from fanheavy.graphio import decode_graph6, encode_graph6
from fanheavy.patterns import (CATALOG_NAMES, Pattern, enumerate_induced_copies,
                               is_isomorphic_small, pattern)
from fanheavy.witness import build_witness, classify_witness

from conftest import DATA, k23, petersen

SEED = 1729


def report(num, desc, ok):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def n9_corpus_lines():
    path = os.environ.get("FANHEAVY_N9_CORPUS") or (DATA / "two_connected_9.g6")
    path = Path(path)
    if path.exists():
        return path.read_text().splitlines()
    return None


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


def _theorem_counterexamples(graphs, hypothesis):
    bad = []
    for g in graphs:
        if hypothesis(g).verdict and find_hamilton_cycle(g) is None:
            bad.append(encode_graph6(g))
    return bad


def _run_theorem(num, name, hypothesis, two_connected_corpus):
    bad = _theorem_counterexamples(two_connected_corpus, hypothesis)
    n9 = n9_corpus_lines()
    n9_note = "n=9 corpus not supplied"
    if n9 is not None:
        graphs9 = [decode_graph6(s) for s in n9 if s.strip()]
        assert all(g.n == 9 and g.is_two_connected() for g in graphs9)
        bad += _theorem_counterexamples(graphs9, hypothesis)
        n9_note = f"n=9 corpus of {len(graphs9)} graphs included"
    report(num, f"{name} exhaustive check, 2-connected n<=8 "
                f"({len(two_connected_corpus)} graphs; {n9_note}): "
                f"{len(bad)} counterexamples", not bad)


def test_criterion_01_theorem5(two_connected_by_n, two_connected_corpus):
    _run_theorem(1, "theorem 5", theorem5_condition, two_connected_corpus)


def test_criterion_02_theorem1(two_connected_by_n, two_connected_corpus):
    _run_theorem(2, "theorem 1 (fan)", satisfies_fan, two_connected_corpus)


def test_criterion_03_theorem4(two_connected_by_n, two_connected_corpus):
    _run_theorem(3, "theorem 4", theorem4_condition, two_connected_corpus)


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


def test_criterion_05_definition_identities(implication_corpus):
    pats = [pattern(name) for name in CATALOG_NAMES]
    p7 = pattern("p7")
    long_paths = [Pattern(f"p{k}", path_graph(k)) for k in (8, 9)]
    violations = 0
    for g in implication_corpus:
        for p in pats:
            if is_R_free(g, p) and not is_R_f_heavy(g, p).verdict:
                violations += 1
        if is_2_heavy(g).verdict != is_R_f_heavy(g, pattern("claw")).verdict:
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


def test_criterion_06_lemma1_heavy_cycles(two_connected_corpus):
    failures = 0
    checked = 0
    for g in two_connected_corpus:
        checked += 1
        if find_cycle_through(g, set(heavy_vertices(g))) is None:
            failures += 1
    n9 = n9_corpus_lines()
    if n9 is not None:
        for s in n9:
            if not s.strip():
                continue
            g = decode_graph6(s)
            checked += 1
            if find_cycle_through(g, set(heavy_vertices(g))) is None:
                failures += 1
    report(6, f"lemma 1: heavy cycle exists in all {checked} 2-connected "
              f"graphs: {failures} failures", failures == 0)


def test_criterion_07_lemma2_expansion():
    rng = random.Random(SEED)
    trials = 0
    violations = 0
    while trials < 1000:
        n = rng.randint(3, 12)
        g = random_graph(rng, n, rng.uniform(0.2, 0.9))
        if not g.is_connected():
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
                     if is_isomorphic_small(g.induced(s)[0], p.graph)]
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
    ok = True
    notes = []
    for n in (16, 18, 20):
        g = build_witness(n)
        rep = classify_witness(g)
        ok &= rep.hamiltonian.verified
        cyc = tuple(rep.hamiltonian.detail["cycle"])
        ok &= is_valid_cycle(g, cyc) and len(cyc) == n

        ok &= not rep.fan_condition.verified
        v = rep.fan_condition.detail["violations"][0]
        u, w = v["pair"]
        ok &= g.distance(u, w) == 2 and 2 * g.degree(u) < n and 2 * g.degree(w) < n

        ok &= not rep.thm4_condition.verified
        v = rep.thm4_condition.detail["violations"][0]
        ok &= v["pattern"] == "p7"
        ok &= is_isomorphic_small(g.induced(v["subset"])[0], pattern("p7").graph)

        ok &= rep.claw_free.verified

        # thm5: the criterion is verdict validity, not agreement with the
        # construction's claimed status
        if rep.thm5_condition.verified:
            notes.append(f"n={n}: thm5 verified true (claim agrees)")
        else:
            v = rep.thm5_condition.detail["violations"][0]
            sub, vmap = g.induced(v["subset"])
            ok &= is_isomorphic_small(sub, pattern(v["pattern"]).graph)
            u, w = v["pair"]
            ok &= sub.distance(vmap.index(u), vmap.index(w)) == 2
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
