"""Degree / forbidden-subgraph predicates with violation witnesses.

A vertex is heavy when 2*d(v) >= n, light otherwise (`Graph.light_mask`).
Degrees are always measured in the host graph G and the threshold always
uses n = |V(G)|, even when the distance-2 pair lives inside an induced
copy; only the distance is taken inside the copy.

Witness contract: a failed R-f-heavy check reports the lexicographically
first light copy of R, as a sorted tuple, and in it the lexicographically
first light distance-2 pair.

`is_R_f_heavy` runs at most two copy searches, none under Fan's
condition.  Two vertices at distance 2 inside an induced copy are
non-adjacent in G and share a neighbour in G, so they are at distance 2 in
G too: when G has no light distance-2 pair (Fan's condition) every R is
f-heavy.  `_light_pair` finds the first light distance-2 pair inside a
vertex mask: a copy, or all of G for Fan's condition.  `is_2_heavy` is the
claw walk with its violation relabelled.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from .graph import Graph, iter_bits
from .patterns import Pattern, _induced_copies, has_induced_copy, pattern


@dataclass(frozen=True, slots=True)
class Violation:
    kind: str  # "light-pair" | "light-claw-ends" | "forbidden-copy"
    threshold_n: int
    pattern: str | None = None
    subset: tuple[int, ...] | None = None
    pair: tuple[int, int] | None = None
    degrees: tuple[int, int] | None = None

    def to_dict(self) -> dict:
        """The fields that are set, tuples as lists, `threshold_n` as `n`."""
        d = {k: list(v) if isinstance(v, tuple) else v
             for k, v in asdict(self).items() if v is not None}
        d["n"] = d.pop("threshold_n")
        return d


@dataclass(frozen=True, slots=True)
class ConditionReport:
    condition: str
    verdict: bool
    violations: tuple[Violation, ...] = ()

    @property
    def violation(self) -> Violation | None:
        return self.violations[0] if self.violations else None

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "violations": [v.to_dict() for v in self.violations],
        }


def _light_pair(adj: list[int], light: int, mask: int) -> tuple[int, int] | None:
    """Lexicographically first pair u < v of the vertex bitmask `mask`
    that is at distance 2 inside it with both ends in `light`, or None."""
    rest = light & mask
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        near = rest & ~adj[u]
        common = adj[u] & mask
        while near:
            bit = near & -near
            near ^= bit
            v = bit.bit_length() - 1
            if adj[v] & common:
                return u, v
    return None


def _light_pair_report(condition: str, g: Graph, light: int, mask: int,
                       subset: tuple[int, ...] | None,
                       pattern_name: str | None) -> ConditionReport:
    pair = _light_pair(g.adj, light, mask)
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
    return _light_pair_report("f-heavy-copy", g, g.light_mask(), mask, sub, pattern_name)


def is_R_f_heavy(g: Graph, p: Pattern, light: int | None = None) -> ConditionReport:
    """Every induced copy of p is f-heavy in g.

    On failure the witness is the lexicographically first light copy.
    The plain search runs to its first light copy; with none the verdict
    is true.  Otherwise the first light copy in lexicographic order has a
    smallest vertex no larger than that copy's, and a walk of the copies
    in order of their smallest vertex, bounded there, meets it among
    those sharing the smallest vertex of the first light copy it meets.
    `light`, from `g.light_mask()`, lets a caller checking several patterns
    compute it once.
    """
    name = f"{p.name}-f-heavy"
    if light is None:
        light = g.light_mask()
    adj = g.adj
    if _light_pair(adj, light, g.full_mask()) is None:  # Fan's condition
        return ConditionReport(name, True)
    for c in _induced_copies(g, p):
        if (c & light).bit_count() >= 2 and _light_pair(adj, light, c):
            break
    else:
        return ConditionReport(name, True)
    # Of two k-sets the lexicographically smaller holds the least vertex of
    # their symmetric difference.
    best = 0
    for c in _induced_copies(g, p, below=(c & -c).bit_length()):
        if best and not c & best & -best:
            break
        diff = c ^ best
        if c & diff & -diff and (c & light).bit_count() >= 2 and _light_pair(adj, light, c):
            best = c
    return _light_pair_report(name, g, light, best, tuple(iter_bits(best)), p.name)


def is_family_f_heavy(g: Graph, ps: list[Pattern]) -> ConditionReport:
    if not ps:
        raise ValueError("pattern family must be non-empty")
    name = "{" + ",".join(p.name for p in ps) + "}-f-heavy"
    light = g.light_mask()
    for p in ps:
        rep = is_R_f_heavy(g, p, light)
        if not rep.verdict:
            return ConditionReport(name, False, rep.violations)
    return ConditionReport(name, True)


def satisfies_fan(g: Graph) -> ConditionReport:
    """Fan condition: every distance-2 pair of g has a heavy endpoint."""
    return _light_pair_report("fan", g, g.light_mask(), g.full_mask(), None, None)


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
    light = g.light_mask()
    for name in ("claw", "p7"):
        rep = is_R_f_heavy(g, pattern(name), light)
        if not rep.verdict:
            return ConditionReport("thm5", False, rep.violations * 2)
    deer_rep = is_R_f_heavy(g, pattern("deer"), light)
    if deer_rep.verdict:
        return ConditionReport("thm5", True)
    hour_rep = is_R_f_heavy(g, pattern("hourglass"), light)
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
