"""The four workloads: how each builds its inputs from the seed, what one
op is, and how each op's result is re-checked with the benchmark's own
code (bench/oracles.py) outside the timed region.

A workload's `signature` reduces a result to a value that pins all of
it, and `check` re-checks the first result of each item, returning
(errors, tally).  An item seen again in a later pass must give the same
signature.  The tally is summed over a full pass of the items and
compared with `expected_totals`, when the workload has known totals.
"""

from __future__ import annotations

import random
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent
CORPUS8 = ROOT / "tests" / "data" / "graphs8_reduced.g6"
THEOREMS = ("thm1", "thm4", "thm5")

# One representative per isomorphism class, and how many of them are
# 2-connected (OEIS A000088 / A002218).
GRAPH_COUNTS = {5: 34, 6: 156, 7: 1044}
TWO_CONNECTED_COUNTS = {5: 10, 6: 56, 7: 468, 8: 7123}


def read_corpus8() -> list[str]:
    return [s for s in (ln.strip() for ln in CORPUS8.read_text().splitlines()) if s]


class Workload:
    """Defaults: a traced run takes every item, and no pass totals are known."""

    def trace_items(self, items, tiny):
        return items

    def expected_totals(self):
        return None


class VerifyN8(Workload):
    """Every n = 8 class through `cli.verify_corpus([line], theorem)`."""

    name = "verify-n8"
    expected_hypothesis = {"thm1": 1952, "thm4": 2173, "thm5": 2173}

    def build(self, fh, seed, tiny):
        rng = random.Random(seed)
        lines = read_corpus8()
        if tiny:
            lines = rng.sample(lines, 60)
        items = [(line, thm) for line in lines for thm in THEOREMS]
        rng.shuffle(items)
        self.full = not tiny
        return items

    def trace_items(self, items, tiny):
        return items[:60 if tiny else 6000]

    def run(self, fh, item):
        line, thm = item
        return fh.cli.verify_corpus([line], thm)

    def check(self, item, s):
        line, thm = item
        gate, hyp = bool(s.gate_passed), bool(s.hypothesis_passed)
        errors = []
        if s.corpus_size != 1 or s.parse_errors:
            errors.append("line not read as one graph")
        if gate != oracles.is_two_connected(oracles.decode_g6(line)[1]):
            errors.append("2-connected gate disagrees with the deletion check")
        if hyp and not gate:
            errors.append("hypothesis checked on a graph the gate rejected")
        if s.counterexamples or s.hamiltonian != s.hypothesis_passed:
            errors.append(f"{thm} counterexample reported")
        tally = {f"gate.{thm}": int(gate), f"hypothesis.{thm}": int(hyp),
                 "counterexamples": len(s.counterexamples)}
        return errors, tally

    @staticmethod
    def signature(s):
        return (s.corpus_size, tuple(s.parse_errors), s.gate_passed, s.hypothesis_passed,
                s.hamiltonian, tuple(s.counterexamples))

    def expected_totals(self):
        if not self.full:
            return None
        out = {f"gate.{thm}": TWO_CONNECTED_COUNTS[8] for thm in THEOREMS}
        out.update({f"hypothesis.{t}": c for t, c in self.expected_hypothesis.items()})
        out["counterexamples"] = 0
        return out


class FheavyRandom(Workload):
    """Seeded G(n, p), n in 9..16, p in 0.1..0.9 (stratified: 64 slices
    of p for each n), through every f-heavy and freeness predicate,
    2-heavy, theorem 4 and theorem 5."""

    name = "fheavy-random"

    def build(self, fh, seed, tiny):
        rng = random.Random(seed)
        self.names = tuple(fh.patterns.CATALOG_NAMES)
        self.patterns = [fh.patterns.pattern(name) for name in self.names]
        items = []
        for n, p in oracles.stratified_sizes(rng, 9, 16, 2 if tiny else 64, 0.1, 0.9):
            n, rows = oracles.random_dense(rng, n, p)
            items.append((rows, fh.graph.Graph(n, oracles.edges_from_rows(rows))))
        return items

    def trace_items(self, items, tiny):
        return items[:16 if tiny else 128]

    def run(self, fh, item):
        g = item[1]
        c = fh.conditions
        return ([c.is_R_f_heavy(g, p) for p in self.patterns],
                [c.is_R_free(g, p) for p in self.patterns],
                c.is_2_heavy(g), c.theorem4_condition(g), c.theorem5_condition(g))

    def check(self, item, result):
        rows = item[0]
        reports, flags, two_heavy, thm4, thm5 = result
        heavy = {name: rep.verdict for name, rep in zip(self.names, reports)}
        free = dict(zip(self.names, flags))
        errors = []
        for name, rep in zip(self.names, reports):
            if free[name] and not rep.verdict:
                errors.append(f"{name}-free but not {name}-f-heavy")
            if not rep.verdict and not self._light_pair_ok(rows, rep.violation, name):
                errors.append(f"{name}-f-heavy witness fails re-check: {rep.violation}")
        if two_heavy.verdict != heavy["claw"]:
            errors.append("2-heavy and claw-f-heavy disagree")
        if not two_heavy.verdict and not self._violation_ok(rows, two_heavy.violation):
            errors.append(f"2-heavy witness fails re-check: {two_heavy.violation}")
        if thm4.verdict != (two_heavy.verdict and free["p7"] and (free["deer"] or free["hourglass"])):
            errors.append("theorem 4 verdict disagrees with its parts")
        both = heavy["claw"] and heavy["p7"]
        if thm5.verdict != (both and (heavy["deer"] or heavy["hourglass"])):
            errors.append("theorem 5 verdict disagrees with its parts")
        for rep in (thm4, thm5):
            if not rep.verdict and not (rep.violations and all(
                    self._violation_ok(rows, v) for v in rep.violations)):
                errors.append(f"{rep.condition} witness fails re-check: {rep.violations}")
        return errors, {}

    @staticmethod
    def signature(result):
        fheavy, free, two_heavy, thm4, thm5 = result
        return tuple(fheavy), tuple(free), two_heavy, thm4, thm5

    @staticmethod
    def _light_pair_ok(rows, v, name):
        return (v is not None and v.kind == "light-pair" and v.pattern == name
                and v.threshold_n == len(rows) and oracles.induces(rows, v.subset, name)
                and oracles.light_pair_ok(rows, v.subset, v.pair, v.degrees))

    def _violation_ok(self, rows, v):
        if v is None:
            return False
        if v.kind == "light-pair":
            return self._light_pair_ok(rows, v, v.pattern)
        if v.kind == "light-claw-ends":
            return oracles.claw_ends_ok(rows, v.subset, v.pair, v.degrees)
        if v.kind == "forbidden-copy":
            return oracles.induces(rows, v.subset, v.pattern)
        return False

class GenReduce(Workload):
    """`generate.nonisomorphic_graphs(7)`, the 2-connected filter and
    `encode_graph6`."""

    name = "gen-reduce"

    def build(self, fh, seed, tiny):
        self.n = 5 if tiny else 7
        return [self.n]

    def run(self, fh, n):
        graphs = fh.generate.nonisomorphic_graphs(n)
        return len(graphs), [fh.graphio.encode_graph6(g) for g in graphs if g.is_two_connected()]

    def check(self, n, result):
        classes, codes = result
        errors = []
        if classes != GRAPH_COUNTS[n]:
            errors.append(f"{classes} classes for n={n}, expected {GRAPH_COUNTS[n]}")
        if len(codes) != TWO_CONNECTED_COUNTS[n]:
            errors.append(f"{len(codes)} 2-connected, expected {TWO_CONNECTED_COUNTS[n]}")
        if len(set(codes)) != len(codes):
            errors.append("duplicate graph6 lines")
        for code in codes:
            size, rows = oracles.decode_g6(code)
            if size != n or not oracles.is_two_connected(rows):
                errors.append(f"{code} is not a 2-connected graph on {n} vertices")
                break
        return errors, {}

    @staticmethod
    def signature(result):
        classes, codes = result
        return classes, tuple(codes)

class Cycles(Workload):
    """Hamilton cycle and heavy cycle (lemma 1) on every 2-connected
    n = 8 class, plus o-cycle expansion (lemma 2) on 1600 seeded sparse
    2-connected graphs with n in 10..14.  Larger n (14..20) puts a few
    graphs per thousand at 0.1-1 s each, and the work of 1600 such graphs
    then varied by 16% (quartile distance over median of reachability
    calls) from seed to seed; at 10..14 it varies by 6%."""

    name = "cycles"

    def build(self, fh, seed, tiny):
        rng = random.Random(seed)
        lines = read_corpus8()
        if tiny:
            lines = rng.sample(lines, 80)
        items = []
        for line in lines:
            g = fh.graphio.decode_graph6(line)
            if g.is_two_connected():
                items.append((line, None, g, None))
        for _ in range(4 if tiny else 1600):
            n, rows = oracles.random_sparse_two_connected(rng, 10, 14)
            oc = oracles.random_o_cycle(rng, rows)
            items.append((None, rows, fh.graph.Graph(n, oracles.edges_from_rows(rows)),
                          oc and fh.cycles.OCycle(*oc)))
        rng.shuffle(items)
        self.full = not tiny
        return items

    def run(self, fh, item):
        g, oc = item[2], item[3]
        cy = fh.cycles
        heavy = cy.heavy_vertices(g)
        return (cy.find_hamilton_cycle(g), heavy, cy.find_cycle_through(g, set(heavy)),
                None if oc is None else cy.expand_o_cycle(g, oc))

    def check(self, item, result):
        line, rows, _, oc = item
        if line is not None:
            rows = oracles.decode_g6(line)[1]
        ham, heavy, through, expanded = result
        n = len(rows)
        errors = []
        if not oracles.is_two_connected(rows):
            errors.append("input is not 2-connected")
        if ham is not None and not oracles.cycle_ok(rows, ham, range(n)):
            errors.append(f"Hamilton cycle {ham} fails re-check")
        if tuple(heavy) != tuple(v for v in range(n) if not oracles.is_light(rows, v)):
            errors.append("heavy vertex set is wrong")
        if through is None:
            errors.append("lemma 1: no cycle through the heavy vertices")
        elif not oracles.cycle_ok(rows, through, heavy):
            errors.append(f"heavy cycle {through} fails re-check")
        if oc is not None and not oracles.cycle_ok(rows, expanded, oc.seq):
            errors.append(f"expansion {expanded} of o-cycle {oc.seq} fails re-check")
        tally = {"n8": 1, "n8.non_hamiltonian": int(ham is None)} if line is not None else {}
        return errors, tally

    @staticmethod
    def signature(result):
        return tuple(result)

    def expected_totals(self):
        if not self.full:
            return None
        return {"n8": TWO_CONNECTED_COUNTS[8], "n8.non_hamiltonian": 927}


WORKLOADS = {w.name: w for w in (VerifyN8, FheavyRandom, GenReduce, Cycles)}
