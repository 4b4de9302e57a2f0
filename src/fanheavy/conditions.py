"""Degree / forbidden-subgraph predicates with violation witnesses.

Heaviness thresholds stay in integer arithmetic: a vertex is heavy when
2*d(v) >= n.  Degrees are always measured in the host graph G and the
threshold always uses n = |V(G)|, even when the distance-2 pair lives
inside an induced copy; only the distance is taken inside the copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph
from .patterns import Pattern, enumerate_induced_copies, has_induced_copy, pattern


@dataclass(frozen=True)
class Violation:
    kind: str  # "light-pair" | "light-claw-ends" | "forbidden-copy"
    threshold_n: int
    pattern: str | None = None
    subset: tuple[int, ...] | None = None
    pair: tuple[int, int] | None = None
    degrees: tuple[int, int] | None = None

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "n": self.threshold_n}
        if self.pattern is not None:
            d["pattern"] = self.pattern
        if self.subset is not None:
            d["subset"] = list(self.subset)
        if self.pair is not None:
            d["pair"] = list(self.pair)
        if self.degrees is not None:
            d["degrees"] = list(self.degrees)
        return d


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    verdict: bool
    violations: tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return self.verdict

    @property
    def violation(self) -> Violation | None:
        return self.violations[0] if self.violations else None

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "violations": [v.to_dict() for v in self.violations],
        }


def is_heavy(g: Graph, v: int) -> bool:
    return 2 * g.degree(v) >= g.n


def _light_pair(g: Graph, subset_mask: int, subset: tuple[int, ...] | None,
                pattern_name: str | None) -> Violation | None:
    """Lexicographically first distance-2 pair inside the masked subgraph
    whose endpoints are both light in g, or None."""
    verts = [v for v in range(g.n) if (subset_mask >> v) & 1]
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if (g.adj[u] >> v) & 1:
                continue
            if not (g.adj[u] & g.adj[v] & subset_mask):
                continue
            if not is_heavy(g, u) and not is_heavy(g, v):
                return Violation(
                    kind="light-pair", threshold_n=g.n, pattern=pattern_name,
                    subset=subset, pair=(u, v),
                    degrees=(g.degree(u), g.degree(v)))
    return None


def copy_is_f_heavy(g: Graph, subset: tuple[int, ...] | list[int],
                    pattern_name: str | None = None) -> ConditionReport:
    """Every pair at distance 2 inside g[subset] has an endpoint heavy in g."""
    sub = tuple(sorted(subset))
    mask = 0
    for v in sub:
        mask |= 1 << v
    bad = _light_pair(g, mask, sub, pattern_name)
    return ConditionReport("f-heavy-copy", bad is None, (bad,) if bad else ())


def is_R_f_heavy(g: Graph, p: Pattern) -> ConditionReport:
    name = f"{p.name}-f-heavy"
    for copy in enumerate_induced_copies(g, p):
        rep = copy_is_f_heavy(g, copy, pattern_name=p.name)
        if not rep.verdict:
            return ConditionReport(name, False, rep.violations)
    return ConditionReport(name, True)


def is_family_f_heavy(g: Graph, ps: list[Pattern]) -> ConditionReport:
    if not ps:
        raise ValueError("pattern family must be non-empty")
    name = "{" + ",".join(p.name for p in ps) + "}-f-heavy"
    for p in ps:
        rep = is_R_f_heavy(g, p)
        if not rep.verdict:
            return ConditionReport(name, False, rep.violations)
    return ConditionReport(name, True)


def satisfies_fan(g: Graph) -> ConditionReport:
    """Fan condition: every distance-2 pair of g has a heavy endpoint."""
    bad = _light_pair(g, g.full_mask(), None, None)
    return ConditionReport("fan", bad is None, (bad,) if bad else ())


def is_2_heavy(g: Graph) -> ConditionReport:
    """Every induced claw has at least two heavy end vertices.

    Implemented by counting heavy ends per claw copy (not via the
    claw-f-heavy equivalence, which the test suite checks against).
    """
    claw = pattern("claw")
    for copy in enumerate_induced_copies(g, claw):
        center = next(v for v in copy
                      if all((g.adj[v] >> w) & 1 for w in copy if w != v))
        ends = [v for v in copy if v != center]
        light = [v for v in ends if not is_heavy(g, v)]
        if len(light) >= 2:
            return ConditionReport("2-heavy", False, (Violation(
                kind="light-claw-ends", threshold_n=g.n, pattern="claw",
                subset=copy, pair=(light[0], light[1]),
                degrees=(g.degree(light[0]), g.degree(light[1]))),))
    return ConditionReport("2-heavy", True)


def is_R_free(g: Graph, p: Pattern) -> bool:
    return has_induced_copy(g, p) is None


def theorem5_condition(g: Graph) -> ConditionReport:
    """Family-f-heavy for {claw,p7,deer} or {claw,p7,hourglass}.

    Each pattern is checked once: claw, p7, deer, hourglass.  On failure
    both disjunct violations are reported, deer's first, so a claw or p7
    violation, shared by the two disjuncts, appears twice.
    """
    for name in ("claw", "p7"):
        rep = is_R_f_heavy(g, pattern(name))
        if not rep.verdict:
            return ConditionReport("thm5", False, rep.violations * 2)
    deer_rep = is_R_f_heavy(g, pattern("deer"))
    if deer_rep.verdict:
        return ConditionReport("thm5", True)
    hour_rep = is_R_f_heavy(g, pattern("hourglass"))
    if hour_rep.verdict:
        return ConditionReport("thm5", True)
    return ConditionReport("thm5", False, deer_rep.violations + hour_rep.violations)


def theorem4_condition(g: Graph) -> ConditionReport:
    """2-heavy and ({p7,deer}-free or {p7,hourglass}-free)."""
    heavy_rep = is_2_heavy(g)
    if not heavy_rep.verdict:
        return ConditionReport("thm4", False, heavy_rep.violations)
    p7_copy = has_induced_copy(g, pattern("p7"))
    if p7_copy is not None:
        # a single p7 copy defeats both freeness alternatives
        return ConditionReport("thm4", False, (Violation(
            kind="forbidden-copy", threshold_n=g.n, pattern="p7",
            subset=p7_copy),))
    deer_copy = has_induced_copy(g, pattern("deer"))
    if deer_copy is None:
        return ConditionReport("thm4", True)
    hour_copy = has_induced_copy(g, pattern("hourglass"))
    if hour_copy is None:
        return ConditionReport("thm4", True)
    return ConditionReport("thm4", False, (
        Violation(kind="forbidden-copy", threshold_n=g.n, pattern="deer",
                  subset=deer_copy),
        Violation(kind="forbidden-copy", threshold_n=g.n, pattern="hourglass",
                  subset=hour_copy),
    ))
