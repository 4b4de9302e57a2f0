"""Command-line front end.

Commands:
  check    evaluate one condition on one graph file
  verify   corpus-wide theorem check (hypothesis => Hamiltonian)
  hunt     search a corpus for an f-heavy non-Hamiltonian counterexample
  witness  emit the separating construction as graph6 or a full report
  gen      emit small-graph corpora as graph6 (labeled or iso-reduced)

Exit codes: 0 verdict true / no counterexample; 1 verdict false /
counterexample found; 2 usage or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field

from . import conditions, generate
from .cycles import find_hamilton_cycle
from .graph import Graph
from .graphio import (GraphFormatError, decode_edge_list, decode_graph6,
                      encode_graph6, read_corpus)
from .patterns import has_induced_copy, pattern, pattern_from_spec
from .witness import WitnessSpecError, build_witness, classify_witness

CONDITIONS = ("fan", "2heavy", "f-heavy", "free", "thm4", "thm5")
THEOREMS = ("thm1", "thm4", "thm5")

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2


def _load_graph(path: str) -> Graph:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    # graph6 has no whitespace, and an edge-list header "n m" has
    if not lines or len(lines[0].split()) > 1:
        return decode_edge_list(text)
    g = decode_graph6(lines[0])
    if len(lines) > 1:
        raise GraphFormatError(f"check takes one graph, the input has {len(lines)} graph6 lines")
    return g


def _open_corpus(path: str):
    """Context manager over a corpus file, or over stdin for '-' (left open)."""
    return contextlib.nullcontext(sys.stdin) if path == "-" else open(path)


def _patterns_arg(spec: str):
    out = []
    for name in spec.split(","):
        name = name.strip()
        if name:
            out.append(pattern_from_spec(name))
    if not out:
        raise ValueError("empty pattern list")
    return out


def evaluate_condition(g: Graph, name: str, patterns_spec: str) -> conditions.ConditionReport:
    if name == "fan":
        return conditions.satisfies_fan(g)
    if name == "2heavy":
        return conditions.is_2_heavy(g)
    if name == "f-heavy":
        return conditions.is_family_f_heavy(g, _patterns_arg(patterns_spec))
    if name == "free":
        for p in _patterns_arg(patterns_spec):
            copy = has_induced_copy(g, p)
            if copy is not None:
                return conditions.ConditionReport(
                    f"{p.name}-free", False,
                    (conditions.Violation(kind="forbidden-copy", threshold_n=g.n,
                                          pattern=p.name, subset=copy),))
        return conditions.ConditionReport("free", True)
    if name == "thm4":
        return conditions.theorem4_condition(g)
    if name == "thm5":
        return conditions.theorem5_condition(g)
    raise ValueError(f"unknown condition {name!r}")


def cmd_check(args) -> int:
    try:
        g = _load_graph(args.file)
        rep = evaluate_condition(g, args.condition, args.patterns)
    except (GraphFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(json.dumps(rep.to_dict(), sort_keys=True))
    return EXIT_TRUE if rep.verdict else EXIT_FALSE


# -- verify ---------------------------------------------------------------

def theorem_hypothesis(g: Graph, theorem: str) -> conditions.ConditionReport:
    if theorem == "thm1":
        return conditions.satisfies_fan(g)
    if theorem == "thm4":
        return conditions.theorem4_condition(g)
    if theorem == "thm5":
        return conditions.theorem5_condition(g)
    raise ValueError(f"unknown theorem {theorem!r}")


@dataclass
class VerificationSummary:
    corpus_size: int = 0
    gate_passed: int = 0
    hypothesis_passed: int = 0
    hamiltonian: int = 0
    counterexamples: list[str] = field(default_factory=list)
    parse_errors: list[tuple[int, str]] = field(default_factory=list)
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "corpus_size": self.corpus_size,
            "gate_passed": self.gate_passed,
            "hypothesis_passed": self.hypothesis_passed,
            "hamiltonian": self.hamiltonian,
            "counterexamples": self.counterexamples,
            "parse_errors": [{"line": ln, "error": msg} for ln, msg in self.parse_errors],
            "seconds": round(self.seconds, 3),
        }


def _verify_one(task: tuple[Graph, str, bool]) -> tuple[bool, bool, bool]:
    """(graph, theorem, require_2connected) -> (gate, hypothesis, hamiltonian)."""
    g, theorem, gate2 = task
    if gate2 and not g.is_two_connected():
        return (False, False, False)
    hyp = theorem_hypothesis(g, theorem).verdict
    if not hyp:
        return (True, False, False)
    ham = find_hamilton_cycle(g) is not None
    return (True, True, ham)


def verify_corpus(lines, theorem: str, require_2connected: bool = True,
                  workers: int = 1) -> VerificationSummary:
    summary = VerificationSummary()
    t0 = time.monotonic()
    graphs = [g for _index, g in read_corpus(lines, errors=summary.parse_errors)]
    summary.corpus_size = len(graphs)
    tasks = [(g, theorem, require_2connected) for g in graphs]
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_verify_one, tasks, chunksize=256)
    else:
        results = [_verify_one(t) for t in tasks]
    for g, (gate, hyp, ham) in zip(graphs, results):
        if gate:
            summary.gate_passed += 1
        if hyp:
            summary.hypothesis_passed += 1
            if ham:
                summary.hamiltonian += 1
            else:
                # the input line less any header (decoding checks length, padding)
                summary.counterexamples.append(encode_graph6(g))
    summary.seconds = time.monotonic() - t0
    return summary


def cmd_verify(args) -> int:
    try:
        with _open_corpus(args.corpus) as fh:
            summary = verify_corpus(fh, args.theorem,
                                    require_2connected=not args.no_2connected_gate,
                                    workers=args.workers)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(json.dumps(summary.to_dict(), sort_keys=True))
    return EXIT_FALSE if summary.counterexamples else EXIT_TRUE


# -- hunt -----------------------------------------------------------------

@dataclass
class HuntResult:
    triple: tuple[str, str, str]
    counterexample: str | None
    scanned: int
    parse_errors: list[tuple[int, str]]

    def to_dict(self) -> dict:
        return {
            "triple": list(self.triple),
            "counterexample": self.counterexample,
            "scanned": self.scanned,
            "parse_errors": [{"line": ln, "error": msg} for ln, msg in self.parse_errors],
        }


def hunt(lines, r_name: str, s_name: str) -> HuntResult:
    family = [pattern("claw"), pattern_from_spec(r_name), pattern_from_spec(s_name)]
    triple = ("claw", family[1].name, family[2].name)
    errors: list[tuple[int, str]] = []
    scanned = 0
    for _idx, g in read_corpus(lines, errors=errors):
        scanned += 1
        # the Hamilton check first: few graphs reach the pattern searches
        if (g.is_two_connected() and find_hamilton_cycle(g) is None
                and conditions.is_family_f_heavy(g, family).verdict):
            return HuntResult(triple, encode_graph6(g), scanned, errors)
    return HuntResult(triple, None, scanned, errors)


def cmd_hunt(args) -> int:
    try:
        with _open_corpus(args.corpus) as fh:
            result = hunt(fh, args.r, args.s)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(json.dumps(result.to_dict(), sort_keys=True))
    return EXIT_FALSE if result.counterexample else EXIT_TRUE


# -- witness --------------------------------------------------------------

def cmd_witness(args) -> int:
    try:
        g = build_witness(args.n)
    except WitnessSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.emit == "graph6":
        try:
            print(encode_graph6(g))
        except GraphFormatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        return EXIT_TRUE
    report = classify_witness(g)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_TRUE


# -- gen ------------------------------------------------------------------

# Largest n per mode: the labeled walk visits 2^(n(n-1)/2) masks (2^21 at
# n = 7), and the reduced corpus holds 274668 classes at n = 9 but
# 12005168 at n = 10.
GEN_MAX_N_LABELED = 7
GEN_MAX_N_REDUCED = 9


def cmd_gen(args) -> int:
    if args.n < 1:
        print("error: n must be >= 1", file=sys.stderr)
        return EXIT_ERROR
    limit = GEN_MAX_N_REDUCED if args.reduce else GEN_MAX_N_LABELED
    if args.n > limit:
        mode = "with" if args.reduce else "without"
        print(f"error: n must be <= {limit} {mode} --reduce", file=sys.stderr)
        return EXIT_ERROR
    if args.reduce:
        graphs = generate.nonisomorphic_graphs(args.n)
    else:
        graphs = generate.labeled_graphs(args.n)
    for g in graphs:
        if args.two_connected and not g.is_two_connected():
            continue
        print(encode_graph6(g))
    return EXIT_TRUE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fanheavy",
        description="Heavy-condition Hamiltonicity checks over small-graph corpora")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate one condition on one graph")
    p.add_argument("file", help="graph file (graph6 or edge list), '-' for stdin")
    p.add_argument("--condition", required=True, choices=CONDITIONS)
    p.add_argument("--patterns", default="claw,p7,deer",
                   help="comma-separated pattern names for f-heavy/free")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="corpus-wide theorem verification")
    p.add_argument("--corpus", required=True, help="graph6 file, '-' for stdin")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-2connected-gate", action="store_true",
                   help="feed every corpus graph to the hypothesis check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hunt", help="search for an f-heavy non-Hamiltonian graph")
    p.add_argument("--r", required=True, help="second pattern of the triple")
    p.add_argument("--s", required=True, help="third pattern of the triple")
    p.add_argument("--corpus", required=True, help="graph6 file, '-' for stdin")
    p.set_defaults(func=cmd_hunt)

    p = sub.add_parser("witness", help="emit the separating construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit", default="report", choices=("graph6", "report"))
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("gen", help="emit a small-graph corpus as graph6")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--two-connected", action="store_true")
    p.add_argument("--reduce", action="store_true",
                   help="one representative per isomorphism class")
    p.set_defaults(func=cmd_gen)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`): stop quietly, and
        # point stdout at devnull so the final flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
