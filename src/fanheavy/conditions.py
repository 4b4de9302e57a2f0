"""Degree / forbidden-subgraph predicates with violation witnesses.

Heaviness thresholds stay in integer arithmetic: a vertex is heavy when
2*d(v) >= n.  Degrees are always measured in the host graph G and the
threshold always uses n = |V(G)|, even when the distance-2 pair lives
inside an induced copy; only the distance is taken inside the copy.

Witness contract: a failed R-f-heavy check reports the lexicographically
first light copy of R, as a sorted tuple, and in it the lexicographically
first light distance-2 pair.

`is_R_f_heavy` runs at most one copy search, none on most hosts.  Two
vertices at distance 2 inside an induced copy are non-adjacent in G and
share a neighbour in G, so they are at distance 2 in G too.  Every light
copy therefore holds two light vertices that form a distance-2 pair of G.
When G has no such pair (Fan's condition) every R is f-heavy, and
otherwise only copies that hold two of the vertices in such pairs need a
check.  `is_2_heavy` is the claw walk with its violation relabelled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .graph import Graph, iter_bits
from .patterns import Pattern, _induced_copies, has_induced_copy, pattern


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


def _light_partners(g: Graph) -> list[int]:
    """Entry u has bit v set when u and v are light and at distance 2 in g."""
    n = g.n
    adj = g.adj
    light = 0
    for v in range(n):
        if 2 * adj[v].bit_count() < n:
            light |= 1 << v
    partners = [0] * n
    for u in iter_bits(light):
        for v in iter_bits(light & ~adj[u] & ~(1 << u)):
            if adj[u] & adj[v]:
                partners[u] |= 1 << v
    return partners


def _light_pair(adj: list[int], partners: list[int], mask: int) -> tuple[int, int] | None:
    """Lexicographically first pair u < v of the vertex bitmask `mask`
    that is at distance 2 inside it with both ends light, or None;
    `partners` is `_light_partners` of the graph."""
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        near = partners[u] & rest
        while near:
            bit = near & -near
            near ^= bit
            v = bit.bit_length() - 1
            if adj[u] & adj[v] & mask:
                return u, v
    return None


def _light_pair_report(condition: str, g: Graph, partners: list[int], mask: int,
                       subset: tuple[int, ...] | None,
                       pattern_name: str | None) -> ConditionReport:
    pair = _light_pair(g.adj, partners, mask)
    if pair is None:
        return ConditionReport(condition, True)
    u, v = pair
    return ConditionReport(condition, False, (Violation(
        kind="light-pair", threshold_n=g.n, pattern=pattern_name, subset=subset,
        pair=pair, degrees=(g.degree(u), g.degree(v))),))


def copy_is_f_heavy(g: Graph, subset: tuple[int, ...] | list[int],
                    pattern_name: str | None = None) -> ConditionReport:
    """Every pair at distance 2 inside g[subset] has an endpoint heavy in g."""
    sub = tuple(sorted(subset))
    mask = 0
    for v in sub:
        g._check(v)
        mask |= 1 << v
    return _light_pair_report("f-heavy-copy", g, _light_partners(g), mask, sub, pattern_name)


def is_R_f_heavy(g: Graph, p: Pattern, partners: list[int] | None = None) -> ConditionReport:
    """Every induced copy of p is f-heavy in g.

    On failure the witness is the lexicographically first light copy.
    One search walks the copies in order of their smallest vertex, so the
    first light copy in order is among those sharing the smallest vertex
    of the first light copy found; the walk stops at the first copy past
    them, or runs to the end when no copy is light.  `partners`, from
    `_light_partners(g)`, lets a caller checking several patterns compute
    it once.
    """
    name = f"{p.name}-f-heavy"
    if partners is None:
        partners = _light_partners(g)
    ends = 0
    for m in partners:
        ends |= m
    if not ends:  # Fan's condition
        return ConditionReport(name, True)
    adj = g.adj
    # Of two k-sets the lexicographically smaller holds the least vertex of
    # their symmetric difference; a light copy holds two vertices of light pairs.
    best = 0
    for c in _induced_copies(g, p, by_min=True):
        if best and not c & best & -best:
            break
        diff = c ^ best
        if c & diff & -diff and (c & ends).bit_count() >= 2 and _light_pair(adj, partners, c):
            best = c
    # with no light copy, best = 0 holds no pair and the report is true
    return _light_pair_report(name, g, partners, best, tuple(iter_bits(best)), p.name)


def is_family_f_heavy(g: Graph, ps: list[Pattern]) -> ConditionReport:
    if not ps:
        raise ValueError("pattern family must be non-empty")
    name = "{" + ",".join(p.name for p in ps) + "}-f-heavy"
    partners = _light_partners(g)
    for p in ps:
        rep = is_R_f_heavy(g, p, partners)
        if not rep.verdict:
            return ConditionReport(name, False, rep.violations)
    return ConditionReport(name, True)


def satisfies_fan(g: Graph) -> ConditionReport:
    """Fan condition: every distance-2 pair of g has a heavy endpoint."""
    return _light_pair_report("fan", g, _light_partners(g), g.full_mask(), None, None)


def is_2_heavy(g: Graph) -> ConditionReport:
    """Every induced claw has at least two heavy end vertices.

    This is claw-f-heavy: the distance-2 pairs of a claw are its pairs of
    ends, so the lexicographically first light claw is the first claw, in
    sorted order, with two light ends, and its first light pair is that
    claw's two smallest light ends.
    """
    rep = is_R_f_heavy(g, pattern("claw"))
    if rep.verdict:
        return ConditionReport("2-heavy", True)
    return ConditionReport("2-heavy", False, (replace(rep.violation, kind="light-claw-ends"),))


def is_R_free(g: Graph, p: Pattern) -> bool:
    return has_induced_copy(g, p) is None


def theorem5_condition(g: Graph) -> ConditionReport:
    """Family-f-heavy for {claw,p7,deer} or {claw,p7,hourglass}.

    Each pattern is checked once: claw, p7, deer, hourglass.  On failure
    both disjunct violations are reported, deer's first, so a claw or p7
    violation, shared by the two disjuncts, appears twice.
    """
    partners = _light_partners(g)
    for name in ("claw", "p7"):
        rep = is_R_f_heavy(g, pattern(name), partners)
        if not rep.verdict:
            return ConditionReport("thm5", False, rep.violations * 2)
    deer_rep = is_R_f_heavy(g, pattern("deer"), partners)
    if deer_rep.verdict:
        return ConditionReport("thm5", True)
    hour_rep = is_R_f_heavy(g, pattern("hourglass"), partners)
    if hour_rep.verdict:
        return ConditionReport("thm5", True)
    return ConditionReport("thm5", False, deer_rep.violations + hour_rep.violations)


def forbidden_copy(g: Graph, p: Pattern) -> Violation | None:
    """A `forbidden-copy` violation on the first copy of p in search
    order, or None when g is p-free."""
    copy = has_induced_copy(g, p)
    if copy is None:
        return None
    return Violation(kind="forbidden-copy", threshold_n=g.n, pattern=p.name, subset=copy)


def theorem4_condition(g: Graph) -> ConditionReport:
    """2-heavy and ({p7,deer}-free or {p7,hourglass}-free)."""
    heavy_rep = is_2_heavy(g)
    if not heavy_rep.verdict:
        return ConditionReport("thm4", False, heavy_rep.violations)
    p7 = forbidden_copy(g, pattern("p7"))
    if p7 is not None:
        # a single p7 copy defeats both freeness alternatives
        return ConditionReport("thm4", False, (p7,))
    deer = forbidden_copy(g, pattern("deer"))
    if deer is None:
        return ConditionReport("thm4", True)
    hourglass = forbidden_copy(g, pattern("hourglass"))
    if hourglass is None:
        return ConditionReport("thm4", True)
    return ConditionReport("thm4", False, (deer, hourglass))
