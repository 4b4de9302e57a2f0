"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions of each fanheavy module
with wrappers, in every fanheavy module namespace that holds them (so
`fanheavy.conditions.enumerate_induced_copies` and
`fanheavy.cli.find_hamilton_cycle` are caught as well as the defining
module's own name) and on the Graph class for its methods.  No file of the
program changes.

Each wrapped call is one span: name, start, end, parent, plus one integer
outcome (copies found, hit, rejected, None returned).  Spans stay in
memory in flat arrays and are written out when the run ends.  A layer's
self time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

_now = time.perf_counter_ns
PACKAGE = "fanheavy"


def _pattern_name(g, p, *rest, **kw):
    return p.name


def _theorem(g, theorem, *rest, **kw):
    return theorem


def _rejected(report):
    return 0 if report.verdict else 1


def _is_none(result):
    return 1 if result is None else 0


# (module, function, span-name suffix from the arguments, outcome from the result)
FUNCTIONS = [
    ("graphio", "decode_graph6", None, None),
    ("patterns", "enumerate_induced_copies", _pattern_name, len),
    ("patterns", "has_induced_copy", _pattern_name, lambda r: 0 if r is None else 1),
    ("patterns", "is_isomorphic_small", None, int),
    ("conditions", "copy_is_f_heavy", None, _rejected),
    ("conditions", "is_R_f_heavy", _pattern_name, _rejected),
    ("conditions", "satisfies_fan", None, _rejected),
    ("conditions", "is_2_heavy", None, _rejected),
    ("conditions", "theorem4_condition", None, _rejected),
    ("conditions", "theorem5_condition", None, _rejected),
    ("cycles", "find_hamilton_cycle", None, _is_none),
    ("cycles", "find_cycle_through", None, _is_none),
    ("cycles", "expand_o_cycle", None, None),
    ("generate", "nonisomorphic_graphs", None, None),
    ("generate", "refinement_key", None, None),
    ("cli", "verify_corpus", None, None),
    ("cli", "theorem_hypothesis", _theorem, None),
]
METHODS = [("graph", "Graph", "is_two_connected"), ("graph", "Graph", "reachable_from")]

SOLVERS = ("cycles.find_hamilton_cycle", "cycles.find_cycle_through")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.outcome = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        for arr in (self.name, self.parent, self.start, self.end, self.outcome):
            del arr[:]
        self._stack.clear()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outcome.append(0)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(_now())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = _now()
        self._stack.pop()

    def _wrap(self, label, fn, suffix, outcome):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(label if suffix is None else f"{label}.{suffix(*args, **kwargs)}")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if outcome is not None:
                tracer.outcome[sid] = outcome(result)
            return result
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        for mod_name, fn_name, suffix, outcome in FUNCTIONS:
            original = getattr(mods[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, suffix, outcome)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(mods[f"{PACKAGE}.{mod_name}"], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{mod_name}.{meth}", original, None, None))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_ns and outcome sum, plus `under`:
        for each child span name, [calls, outcome sum] of its spans whose
        parent has this name."""
        n = len(self.name)
        child_ns = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child_ns[p] += self.end[sid] - self.start[sid]
        stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_ns": 0, "outcome": 0,
                                                      "under": defaultdict(lambda: [0, 0])})
        for sid in range(n):
            st = stats[self.names[self.name[sid]]]
            st["calls"] += 1
            st["self_ns"] += self.end[sid] - self.start[sid] - child_ns[sid]
            st["outcome"] += self.outcome[sid]
            p = self.parent[sid]
            if p >= 0:
                under = stats[self.names[self.name[p]]]["under"][self.names[self.name[sid]]]
                under[0] += 1
                under[1] += self.outcome[sid]
        return stats

    def write(self, path) -> None:
        """Spans as tab-separated lines: id, parent, name, start_ns, end_ns, outcome."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\toutcome\n")
            for sid in range(len(self.name)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.names[self.name[sid]]}\t"
                         f"{self.start[sid]}\t{self.end[sid]}\t{self.outcome[sid]}\n")
