"""Separating construction on an even number of vertices and its report.

The graph is two disjoint cliques A (size n/2) and B (size n/2 - 7) plus
seven special vertices x,y,z,u,v,w,t with edges
{xy, xz, yz, yw, wu, zt, tv}, x,y,z joined to all of A and u,v joined to
all of B.  Built verbatim, including the degenerate B = K1 case at n=16;
the point of the report is to machine-check what the construction
actually satisfies, claims included.

Frozen vertex order: A first (0..n/2-1), then B, then x,y,z,u,v,w,t.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .conditions import (ConditionReport, satisfies_fan, theorem4_condition,
                         theorem5_condition)
from .cycles import find_hamilton_cycle, is_valid_cycle
from .graph import Graph
from .graphio import GRAPH6_MAX_N
from .patterns import has_induced_copy, pattern

MIN_WITNESS_N = 16


def special_vertices(n: int) -> dict[str, int]:
    base = n - 7
    return {name: base + i for i, name in enumerate("xyzuvwt")}


def build_witness(n: int) -> Graph:
    # checked before the cliques are built: their edge lists grow as n^2
    if not MIN_WITNESS_N <= n <= GRAPH6_MAX_N or n % 2 != 0:
        raise ValueError(
            f"witness requires an even n in {MIN_WITNESS_N}..{GRAPH6_MAX_N}, got {n}")
    a = list(range(n // 2))
    b = list(range(n // 2, n - 7))
    s = special_vertices(n)
    x, y, z, u, v, w, t = (s[c] for c in "xyzuvwt")
    edges = []
    edges += [(p, q) for i, p in enumerate(a) for q in a[i + 1:]]
    edges += [(p, q) for i, p in enumerate(b) for q in b[i + 1:]]
    edges += [(x, y), (x, z), (y, z), (y, w), (w, u), (z, t), (t, v)]
    edges += [(c, p) for c in (x, y, z) for p in a]
    edges += [(c, p) for c in (u, v) for p in b]
    return Graph(n, edges)


@dataclass(frozen=True)
class FlagResult:
    claimed: bool | None  # None: the construction's source makes no claim
    verified: bool
    detail: dict | None = None

    @property
    def agrees(self) -> bool | None:
        return None if self.claimed is None else self.claimed == self.verified

    def to_dict(self) -> dict:
        d = {"claimed": self.claimed, "verified": self.verified, "agrees": self.agrees}
        if self.detail is not None:
            d["detail"] = self.detail
        return d


@dataclass(frozen=True)
class WitnessReport:
    n: int
    hamiltonian: FlagResult
    fan_condition: FlagResult
    thm4_condition: FlagResult
    thm5_condition: FlagResult
    claw_free: FlagResult

    def to_dict(self) -> dict:
        flags = {f.name: getattr(self, f.name).to_dict() for f in fields(self) if f.name != "n"}
        return {"n": self.n, "flags": flags}


def _condition_flag(claimed: bool | None, rep: ConditionReport) -> FlagResult:
    detail = None
    if rep.violations:
        detail = {"violations": [v.to_dict() for v in rep.violations]}
    return FlagResult(claimed=claimed, verified=rep.verdict, detail=detail)


def classify_witness(g: Graph) -> WitnessReport:
    cycle = find_hamilton_cycle(g)
    assert cycle is None or is_valid_cycle(g, cycle)
    claw_copy = has_induced_copy(g, pattern("claw"))
    return WitnessReport(
        n=g.n,
        hamiltonian=FlagResult(
            claimed=True, verified=cycle is not None,
            detail={"cycle": list(cycle)} if cycle else None),
        fan_condition=_condition_flag(False, satisfies_fan(g)),
        thm4_condition=_condition_flag(False, theorem4_condition(g)),
        thm5_condition=_condition_flag(True, theorem5_condition(g)),
        claw_free=FlagResult(
            claimed=None, verified=claw_copy is None,
            detail={"claw": list(claw_copy)} if claw_copy else None),
    )
