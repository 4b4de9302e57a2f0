"""Command-line front end.

Commands:
  check    evaluate one condition on one graph file
  verify   corpus-wide theorem check (hypothesis => Hamiltonian)
  hunt     search a corpus for an f-heavy non-Hamiltonian counterexample,
           deciding each graph as verify does
  witness  emit the separating construction as graph6 or a full report
  gen      emit small-graph corpora as graph6 (labeled or iso-reduced)

Exit codes: 0 verdict true / no counterexample; 1 verdict false /
counterexample found; 2 usage, input or output error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import string
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

from . import conditions, generate
from .cycles import find_hamilton_cycle
from .graph import Graph
from .graphio import (GraphFormatError, decode_edge_list, decode_graph6,
                      encode_graph6, line_fields, read_corpus)
from .patterns import pattern
from .witness import build_witness, classify_witness

CONDITIONS = ("fan", "2heavy", "f-heavy", "free", "thm4", "thm5")
THEOREMS = ("thm1", "thm4", "thm5")

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2


def _open_input(path: str):
    """An input file, or stdin for '-' (left open), as strict UTF-8 split at "\\n" only."""
    if path != "-":
        return open(path, encoding="utf-8", newline="\n")
    if sys.stdin is None:
        raise OSError("standard input is closed")
    sys.stdin.reconfigure(encoding="utf-8", newline="\n")
    return contextlib.nullcontext(sys.stdin)


def _load_graph(path: str) -> Graph:
    with _open_input(path) as fh:
        text = fh.read()
    lines = line_fields(text)
    # graph6 has no whitespace, and an edge-list header "n m" has
    if not lines or len(lines[0][1]) > 1:
        return decode_edge_list(text)
    g = decode_graph6(lines[0][1][0])
    if len(lines) > 1:
        raise GraphFormatError(f"check takes one graph, the input has {len(lines)} graph6 lines")
    return g


def _patterns_arg(spec: str):
    names = [name.strip(string.whitespace) for name in spec.split(",")]
    if not all(names):
        raise ValueError(f"empty entry in pattern list {spec!r}")
    return [pattern(name) for name in names]


def theorem_hypothesis(g: Graph, theorem: str) -> conditions.ConditionReport:
    # called through the module, so a wrapper installed on a predicate sees the call
    if theorem == "thm1":
        return conditions.satisfies_fan(g)
    if theorem == "thm4":
        return conditions.theorem4_condition(g)
    if theorem == "thm5":
        return conditions.theorem5_condition(g)
    raise ValueError(f"unknown theorem {theorem!r}")


def evaluate_condition(g: Graph, name: str, patterns_spec: str) -> conditions.ConditionReport:
    if name == "2heavy":
        return conditions.is_2_heavy(g)
    if name == "f-heavy":
        return conditions.is_family_f_heavy(g, _patterns_arg(patterns_spec))
    if name == "free":
        for p in _patterns_arg(patterns_spec):
            violation = conditions.forbidden_copy(g, p)
            if violation is not None:
                return conditions.ConditionReport(f"{p.name}-free", False, (violation,))
        return conditions.ConditionReport("free", True)
    if name not in ("fan", "thm4", "thm5"):
        raise ValueError(f"unknown condition {name!r}")
    return theorem_hypothesis(g, "thm1" if name == "fan" else name)


def cmd_check(args) -> int:
    if args.patterns is not None and args.condition not in ("f-heavy", "free"):
        raise ValueError(f"--patterns does not apply to --condition {args.condition}")
    spec = "claw,p7,deer" if args.patterns is None else args.patterns
    rep = evaluate_condition(_load_graph(args.file), args.condition, spec)
    print(json.dumps(rep.to_dict(), sort_keys=True))
    return EXIT_TRUE if rep.verdict else EXIT_FALSE


# -- verify ---------------------------------------------------------------

def _error_dicts(errors: list[tuple[int, str]]) -> list[dict]:
    return [{"line": ln, "error": msg} for ln, msg in errors]


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
        """The fields by name, parse errors as objects, `seconds` rounded
        to the millisecond."""
        return {**asdict(self), "parse_errors": _error_dicts(self.parse_errors),
                "seconds": round(self.seconds, 3)}


def _verify_one(g: Graph, hypothesis: Callable[[Graph], conditions.ConditionReport],
                gate2: bool) -> tuple[bool, bool, str | None]:
    """-> (gate passed, hypothesis holds, the graph6 of a counterexample or None)."""
    if gate2 and not g.is_two_connected():
        return (False, False, None)
    if not hypothesis(g).verdict:
        return (True, False, None)
    if find_hamilton_cycle(g) is not None:
        return (True, True, None)
    # the input line less any header (decoding checks length, padding)
    return (True, True, encode_graph6(g))


def verify_corpus(lines, theorem: str, require_2connected: bool = True,
                  workers: int = 1) -> VerificationSummary:
    """One pass over the corpus: each graph is read, checked and tallied in
    turn, so memory does not grow with the corpus size."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}")
    summary = VerificationSummary()
    t0 = time.monotonic()
    graphs = read_corpus(lines, summary.parse_errors)
    # the global is read here, so a wrapper installed on it sees every call
    hypothesis = functools.partial(theorem_hypothesis, theorem=theorem)
    check = functools.partial(_verify_one, hypothesis=hypothesis, gate2=require_2connected)
    if workers > 1:
        import multiprocessing
        pool = multiprocessing.Pool(min(workers, os.cpu_count() or 1))
        results = pool.imap(check, graphs, chunksize=256)
    else:
        pool = contextlib.nullcontext()
        results = map(check, graphs)
    with pool:
        for gate, hyp, counterexample in results:
            summary.corpus_size += 1
            summary.gate_passed += gate
            summary.hypothesis_passed += hyp
            if counterexample is not None:
                summary.counterexamples.append(counterexample)
            elif hyp:
                summary.hamiltonian += 1
    summary.seconds = time.monotonic() - t0
    return summary


def cmd_verify(args) -> int:
    with _open_input(args.corpus) as fh:
        summary = verify_corpus(fh, args.theorem,
                                require_2connected=not args.no_2connected_gate,
                                workers=args.workers)
    print(json.dumps(summary.to_dict(), sort_keys=True))
    return EXIT_FALSE if summary.counterexamples else EXIT_TRUE


# -- hunt -----------------------------------------------------------------

def hunt(lines, r_name: str, s_name: str) -> dict:
    """The first 2-connected {claw, R, S}-f-heavy non-Hamiltonian graph of
    the corpus, each graph decided as `verify` decides it."""
    family = [pattern("claw"), pattern(r_name), pattern(s_name)]
    hypothesis = functools.partial(conditions.is_family_f_heavy, ps=family)
    errors: list[tuple[int, str]] = []
    scanned, counterexample = 0, None
    for g in read_corpus(lines, errors):
        scanned += 1
        counterexample = _verify_one(g, hypothesis, gate2=True)[2]
        if counterexample is not None:
            break
    return {"triple": [p.name for p in family], "counterexample": counterexample,
            "scanned": scanned, "parse_errors": _error_dicts(errors)}


def cmd_hunt(args) -> int:
    with _open_input(args.corpus) as fh:
        result = hunt(fh, args.r, args.s)
    print(json.dumps(result, sort_keys=True))
    return EXIT_FALSE if result["counterexample"] else EXIT_TRUE


# -- witness --------------------------------------------------------------

def cmd_witness(args) -> int:
    g = build_witness(args.n)
    print(encode_graph6(g) if args.emit == "graph6"
          else json.dumps(classify_witness(g), sort_keys=True))
    return EXIT_TRUE


# -- gen ------------------------------------------------------------------

# Largest n per mode: the labeled walk visits 2^(n(n-1)/2) masks (2^21 at
# n = 7); the reduced one holds level n - 1 as a list, 274668 classes at
# n = 10 (under 80 MB) but 12005168 at n = 11 (about 3 GB).
GEN_MAX_N_LABELED = 7
GEN_MAX_N_REDUCED = 10


def cmd_gen(args) -> int:
    limit = GEN_MAX_N_REDUCED if args.reduce else GEN_MAX_N_LABELED
    if args.n > limit:
        mode = "with" if args.reduce else "without"
        raise ValueError(f"n must be <= {limit} {mode} --reduce")
    if args.reduce:
        graphs = (g for base in generate.nonisomorphic_graphs(args.n - 1)
                  for g in generate.children(base))
    else:
        graphs = generate.labeled_graphs(args.n)
    for g in graphs:
        if args.two_connected and not g.is_two_connected():
            continue
        print(encode_graph6(g))
    return EXIT_TRUE


def _positive_int(text: str) -> int:
    if not (text.isascii() and text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fanheavy",
        description="Heavy-condition Hamiltonicity checks over small-graph corpora")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate one condition on one graph")
    p.add_argument("file", help="graph file (graph6 or edge list), '-' for stdin")
    p.add_argument("--condition", required=True, choices=CONDITIONS)
    p.add_argument("--patterns", help="comma-separated f-heavy/free patterns "
                   "(default claw,p7,deer)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="corpus-wide theorem verification")
    p.add_argument("--corpus", required=True, help="graph6 file, '-' for stdin")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--no-2connected-gate", action="store_true",
                   help="feed every corpus graph to the hypothesis check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hunt", help="search for an f-heavy non-Hamiltonian graph")
    p.add_argument("--r", required=True, help="second pattern of the triple")
    p.add_argument("--s", required=True, help="third pattern of the triple")
    p.add_argument("--corpus", required=True, help="graph6 file, '-' for stdin")
    p.set_defaults(func=cmd_hunt)

    p = sub.add_parser("witness", help="emit the separating construction")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--emit", default="report", choices=("graph6", "report"))
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("gen", help="emit a small-graph corpus as graph6")
    p.add_argument("--n", type=_positive_int, required=True)
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
        if sys.stdout is None:
            raise OSError("standard output is closed")
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`): stop quietly, and
        # point stdout at devnull so the final flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except (OSError, ValueError) as exc:
        # unreadable or malformed input, or output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
