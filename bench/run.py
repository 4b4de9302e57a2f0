"""fanheavy benchmark: one workload per process, stdlib only.

    python3 bench/run.py --workload verify-n8 --seed 1729 --seconds 20 --trace 0
    python3 bench/run.py                       # every workload, one process each

With --trace 0 it times ops for --seconds and prints the end-to-end
metrics, their times scaled to a reference machine speed (SpeedProbe).
With --trace 1 it runs a fixed, seed-determined set of items
three times (untraced, then traced twice) and prints the per-layer
metrics.  Every op's result is re-checked outside the timed region.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import oracles
import workloads
from oracles import PATTERN_EDGES
from spans import SOLVERS, Tracer

HERE = Path(__file__).resolve().parent
SRC = workloads.ROOT / "src"
MODULES = ("graph", "graphio", "patterns", "conditions", "cycles", "generate", "cli")
SETUP_ROUNDS = (5, 60)  # min and max rounds of set-up; setup_s is their median
SETUP_NS = 2_000_000_000  # more rounds than the minimum until they add up to this
CHUNK_NS = 250_000_000  # op time between two pauses for re-checks and a speed probe
CHUNK_OPS = 4096        # and at most this many results held for re-checking
P99_MIN_OPS = 1000      # leaves at least ten samples beyond the 99th percentile
PROBE_REF_NS = 10_000_000  # a speed probe's time at the reference speed
PROBE_SHARE = 40           # probe at least 1/40 of a chunk's op time on each side

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_us": "us", "peak_rss_mb": "MB"}


class Namespace:
    """The freshly imported fanheavy modules, by short name."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"fanheavy.{name}"))


def fresh_import() -> Namespace:
    for name in [m for m in sys.modules if m == "fanheavy" or m.startswith("fanheavy.")]:
        del sys.modules[name]
    return Namespace()


def setup(workload, seed, tiny, probe):
    """Import fanheavy and build the inputs in rounds, each between two
    samples of the speed probe.  Returns the median raw and the median
    scaled wall time of a round, the last import and its inputs."""
    raw, scaled = [], []
    before = probe.measure(0)
    while len(raw) < SETUP_ROUNDS[0] or (sum(raw) < SETUP_NS and len(raw) < SETUP_ROUNDS[1]):
        gc.collect()  # the last round's modules and inputs, outside the timed round
        t0 = time.perf_counter_ns()
        fh = fresh_import()
        items = workload.build(fh, seed, tiny)
        raw.append(time.perf_counter_ns() - t0)
        after = probe.measure(raw[-1])
        scaled.append(raw[-1] * probe.scale(before, after))
        before = after
    return statistics.median(raw) / 1e9, statistics.median(scaled) / 1e9, fh, items


class Checker:
    """Re-checks the first result of each item, requires every later
    result of that item to have the same signature, and compares the
    tallies of every completed pass with the known totals."""

    def __init__(self, workload, n_items, expected):
        self.workload = workload
        self.n_items = n_items
        self.expected = expected
        self.attempted = 0
        self.failed = 0  # ops, plus one per pass whose totals are wrong
        self.errors: list[str] = []
        self.passes = 0
        # item -> (hash of its first result's signature, its tally as item pairs)
        self._first: dict[int, tuple[int, tuple]] = {}
        self._tallies: dict[tuple, tuple] = {}
        self._tally: dict[str, int] = {}
        self._seen = 0

    def _error(self, msg):
        if len(self.errors) < 10:
            self.errors.append(msg)

    def check(self, idx, item, result):
        self.attempted += 1
        errors, tally = [], ()
        if isinstance(result, Exception):
            errors.append(f"raised {type(result).__name__}: {result}")
        else:
            try:
                signature = hash(self.workload.signature(result))
                if idx in self._first:
                    first, tally = self._first[idx]
                    if signature != first:
                        errors.append("result differs from the first pass")
                else:
                    errors, counts = self.workload.check(item, result)
                    tally = tuple(sorted(counts.items()))
                    tally = self._tallies.setdefault(tally, tally)
                    self._first[idx] = signature, tally
            except Exception as exc:  # a malformed result must count, not abort the run
                errors.append(f"re-check raised {type(exc).__name__}: {exc}")
        if errors:
            self.failed += 1
            self._error(f"item {idx}: {'; '.join(errors)}")
        for key, value in tally:
            self._tally[key] = self._tally.get(key, 0) + value
        self._seen += 1
        if self._seen == self.n_items:
            self._end_pass()

    def _end_pass(self):
        self.passes += 1
        if self.expected is not None and self._tally != self.expected:
            self.failed += 1
            self._error(f"pass {self.passes} totals {self._tally} != expected {self.expected}")
        self._tally = {}
        self._seen = 0

    @property
    def correct(self):
        return self.failed == 0 and self.attempted > 0


def call(workload, fh, item):
    try:
        return workload.run(fh, item)
    except Exception as exc:  # counted as a failed op by the checker
        return exc


class SpeedProbe:
    """Fixed pure-Python graph work from the benchmark's own code, timed
    before and after each chunk of ops.  On the shared machine the
    benchmark was written on, the speed of all Python code drifts by
    10-30% within seconds, and the ops and the probe drift together.
    Each chunk's op times are scaled by the reference probe time over the
    mean of the probe times on either side of the chunk, so they read as
    if the machine ran at the reference speed.  Over six seeds of
    fheavy-random this cut the spread of ops/s from 18% to 4%, where one
    scale factor for the whole run left 10%.  The raw figures are printed
    beside the scaled ones."""

    def __init__(self):
        rng = random.Random(0)
        self.graphs = [oracles.random_dense(rng, 11, 0.5)[1] for _ in range(12)]
        self.samples: list[int] = []

    def sample(self) -> int:
        t0 = time.perf_counter_ns()
        for rows in self.graphs:
            oracles.is_two_connected(rows)
            codes = sorted((oracles.induced_code(rows, sub), sub)
                           for sub in itertools.combinations(range(len(rows)), 4))
            {code for code, _ in codes if code}
        self.samples.append(time.perf_counter_ns() - t0)
        return self.samples[-1]

    def measure(self, span_ns: int) -> float:
        """Mean probe time over at least one sample and at least
        1/PROBE_SHARE of `span_ns`, so a long op is bracketed by a long
        enough look at the machine's speed."""
        times = [self.sample()]
        while sum(times) * PROBE_SHARE < span_ns:
            times.append(self.sample())
        return sum(times) / len(times)

    def scale(self, before: float, after: float) -> float:
        return PROBE_REF_NS / ((before + after) / 2)


def timed_run(workload, fh, items, seconds, checker, probe):
    """Run ops in item order, wrapping around, until their summed wall
    time reaches `seconds`.  Between chunks of ops, sample the speed probe
    and re-check the chunk.  A first pass cut short by the deadline is
    finished untimed, so the pass totals are always checked.  Returns the
    raw op times and the same times scaled by the probe."""
    budget = int(seconds * 1e9)
    op_ns = array("q")
    scaled_ns = array("d")
    spent = 0
    i = 0
    clock = time.perf_counter_ns
    before = probe.measure(0)
    while spent < budget:
        chunk = []
        start = len(op_ns)
        chunk_ns = 0
        while chunk_ns < CHUNK_NS and len(chunk) < CHUNK_OPS and spent < budget:
            item = items[i % len(items)]
            t0 = clock()
            result = call(workload, fh, item)
            dt = clock() - t0
            op_ns.append(dt)
            chunk_ns += dt
            spent += dt
            chunk.append((i % len(items), item, result))
            i += 1
        after = probe.measure(chunk_ns)
        f = probe.scale(before, after)
        scaled_ns.extend(dt * f for dt in op_ns[start:])
        for idx, item, result in chunk:
            checker.check(idx, item, result)
        before = probe.measure(chunk_ns)  # the next chunk is likely as long
    while i < len(items):
        checker.check(i, items[i], call(workload, fh, items[i]))
        i += 1
    return op_ns, scaled_ns


def end_to_end(workload, seed, seconds, tiny):
    probe = SpeedProbe()
    raw_setup_s, setup_s, fh, items = setup(workload, seed, tiny, probe)
    checker = Checker(workload, len(items), workload.expected_totals())
    gc.collect()
    op_ns, scaled_ns = timed_run(workload, fh, items, seconds, checker, probe)
    extra = {"failed_ratio": checker.failed / checker.attempted}
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(scaled_ns) / (sum(scaled_ns) / 1e9),
        "op_p50_us": statistics.median(scaled_ns) / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if len(scaled_ns) >= P99_MIN_OPS:
        extra["op_p99_us"] = sorted(scaled_ns)[math.ceil(0.99 * len(scaled_ns)) - 1] / 1e3
    extra.update({"raw.setup_s": raw_setup_s, "raw.ops_per_s": len(op_ns) / (sum(op_ns) / 1e9),
                  "raw.op_p50_us": statistics.median(op_ns) / 1e3})
    notes = [f"{len(op_ns)} timed ops over {sum(op_ns) / 1e9:.3f} s, "
             f"{checker.passes} full passes of {len(items)} items",
             f"speed probe: median {statistics.median(probe.samples) / 1e6:.3f} ms over "
             f"{len(probe.samples)} samples, reference {PROBE_REF_NS / 1e6:g} ms"]
    return checker, metrics, extra, notes


# -- traced run -------------------------------------------------------------

def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    count, secs, ratio = "count", "s", "ratio"
    pats = list(PATTERN_EDGES)
    out = [("graphio.decode_graph6.calls", count), ("graphio.decode_graph6.self_s", secs),
           ("graph.is_two_connected.calls", count), ("graph.is_two_connected.self_s", secs),
           ("graph.reachable_from.calls", count), ("graph.reachable_from.self_s", secs),
           ("cli.verify_corpus.calls", count), ("cli.verify_corpus.self_s", secs)]
    out += [(f"cli.theorem_hypothesis.{t}.self_s", secs) for t in workloads.THEOREMS]
    for p in pats:
        out += [(f"patterns.enumerate_induced_copies.{p}.calls", count),
                (f"patterns.enumerate_induced_copies.{p}.self_s", secs),
                (f"patterns.enumerate_induced_copies.{p}.copies", count)]
    for p in pats:
        out += [(f"patterns.has_induced_copy.{p}.calls", count),
                (f"patterns.has_induced_copy.{p}.self_s", secs),
                (f"patterns.has_induced_copy.{p}.hits", count)]
    out += [("patterns.is_isomorphic_small.calls", count),
            ("patterns.is_isomorphic_small.self_s", secs),
            ("patterns.is_isomorphic_small.true_ratio", ratio)]
    for p in pats:
        out += [(f"conditions.is_R_f_heavy.{p}.calls", count),
                (f"conditions.is_R_f_heavy.{p}.self_s", secs),
                (f"conditions.is_R_f_heavy.{p}.rejected", count)]
    out += [("conditions.copy_is_f_heavy.calls", count), ("conditions.copy_is_f_heavy.self_s", secs),
            ("conditions.copies_checked_ratio", ratio)]
    for c in ("satisfies_fan", "is_2_heavy", "theorem4_condition", "theorem5_condition"):
        out += [(f"conditions.{c}.calls", count), (f"conditions.{c}.self_s", secs),
                (f"conditions.{c}.rejected", count)]
    for s in SOLVERS:
        out += [(f"{s}.calls", count), (f"{s}.self_s", secs), (f"{s}.none", count),
                (f"{s}.reach_calls", count)]
    out += [("cycles.expand_o_cycle.calls", count), ("cycles.expand_o_cycle.self_s", secs),
            ("generate.nonisomorphic_graphs.self_s", secs),
            ("generate.refinement_key.calls", count), ("generate.refinement_key.self_s", secs),
            ("trace.overhead_ratio", ratio)]
    return out


OUTCOME_SUFFIX = ("copies", "hits", "rejected", "none")


def layer_metrics(stats) -> dict[str, float]:
    """Per-layer values from the tracer's aggregate, for every name in
    layer_metric_names() but trace.overhead_ratio."""
    empty = {"calls": 0, "self_ns": 0, "outcome": 0, "under": {}}
    out = {}
    for name, _ in layer_metric_names():
        span, _, field = name.rpartition(".")
        st = stats.get(span, empty)
        if field == "calls":
            out[name] = st["calls"]
        elif field == "self_s":
            out[name] = st["self_ns"] / 1e9
        elif field in OUTCOME_SUFFIX:
            out[name] = st["outcome"]
        elif field == "reach_calls":
            out[name] = st["under"].get("graph.reachable_from", (0, 0))[0]
        elif field == "true_ratio":
            out[name] = st["outcome"] / st["calls"] if st["calls"] else 0.0
    checked = enumerated = 0
    for p in PATTERN_EDGES:
        under = stats.get(f"conditions.is_R_f_heavy.{p}", empty)["under"]
        checked += under.get("conditions.copy_is_f_heavy", (0, 0))[0]
        enumerated += under.get(f"patterns.enumerate_induced_copies.{p}", (0, 0))[1]
    out["conditions.copies_checked_ratio"] = checked / enumerated if enumerated else 0.0
    return out


def run_fixed(workload, fh, items, checker, tracer=None):
    """One pass over `items`; returns the summed op wall time in ns."""
    total = 0
    clock = time.perf_counter_ns
    for idx, item in enumerate(items):
        sid = tracer.open("bench.op") if tracer else None
        t0 = clock()
        result = call(workload, fh, item)
        total += clock() - t0
        if tracer:
            tracer.close(sid)
        checker.check(idx, item, result)
    return total


def traced(workload, seed, tiny):
    _, _, fh, items = setup(workload, seed, tiny, SpeedProbe())
    fixed = workload.trace_items(items, tiny)
    checker = Checker(workload, len(fixed),
                      workload.expected_totals() if len(fixed) == len(items) else None)
    gc.collect()
    plain_ns = run_fixed(workload, fh, fixed, checker)
    tracer = Tracer()
    tracer.install()
    passes = []
    try:
        for _ in range(2):
            tracer.reset()
            gc.collect()
            ns = run_fixed(workload, fh, fixed, checker, tracer)
            passes.append((ns, layer_metrics(tracer.aggregate())))
    finally:
        tracer.uninstall()
    (ns1, m1), (ns2, m2) = passes
    counters = [k for k in m1 if not k.endswith(".self_s")]
    mismatched = [k for k in counters if m1[k] != m2[k]]
    if mismatched:
        checker.failed += 1
        checker.errors.append(f"counters differ between traced passes: {mismatched}")
    metrics = {k: m2[k] if k in counters else (m1[k] + m2[k]) / 2 for k in m1}
    metrics["trace.overhead_ratio"] = 1 - plain_ns / ((ns1 + ns2) / 2)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-{seed}.tsv"
    tracer.write(spans_path)
    notes = [f"{len(fixed)} fixed items, untraced then traced twice; "
             f"{len(tracer.name)} spans written to {spans_path.relative_to(workloads.ROOT)}"]
    return checker, metrics, {}, notes


# -- entry point --------------------------------------------------------------

def report(workload_name, checker, metrics, extra, notes, units):
    for note in notes:
        print(f"{workload_name}: {note}")
    for name, value in {**metrics, **extra}.items():
        unit = units.get(name.removeprefix("raw."), "ratio" if name == "failed_ratio" else "us")
        print(f"{workload_name}: {name} = {value:.6g} {unit}")
    for err in checker.errors:
        print(f"{workload_name}: CHECK FAILED: {err}")
    return {"correct": checker.correct, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the smoke test; known totals are not checked")
    args = ap.parse_args(argv)
    if not (SRC / "fanheavy" / "__init__.py").is_file():
        print(f"error: no fanheavy sources under {SRC}", file=sys.stderr)
        return 2
    if not workloads.CORPUS8.is_file():
        print(f"error: corpus {workloads.CORPUS8} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        units = dict(layer_metric_names())
        checker, metrics, extra, notes = traced(workload, args.seed, args.tiny)
    else:
        units = END_TO_END_UNITS
        checker, metrics, extra, notes = end_to_end(workload, args.seed, args.seconds, args.tiny)
    print(json.dumps(report(args.workload, checker, metrics, extra, notes, units)))
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
