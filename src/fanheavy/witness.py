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

from .conditions import satisfies_fan, theorem4_condition, theorem5_condition
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


def _flag(claimed: bool | None, verified: bool, detail: dict) -> dict:
    """One report flag; `claimed` is None where the construction's source
    makes no claim, and `detail` is left out when its one value is empty."""
    flag = {"claimed": claimed, "verified": verified,
            "agrees": None if claimed is None else claimed == verified}
    if any(detail.values()):
        flag["detail"] = detail
    return flag


def classify_witness(g: Graph) -> dict:
    """The report that `witness --emit report` prints: {"n": n, "flags": {name: flag}}."""
    cycle = find_hamilton_cycle(g)
    if cycle is not None and not is_valid_cycle(g, cycle):
        raise RuntimeError(f"Hamilton search returned {cycle}, not a cycle of the n={g.n} graph")
    claw_copy = has_induced_copy(g, pattern("claw"))
    flags = {"hamiltonian": _flag(True, cycle is not None, {"cycle": list(cycle or ())})}
    for name, claimed, check in (("fan_condition", False, satisfies_fan),
                                 ("thm4_condition", False, theorem4_condition),
                                 ("thm5_condition", True, theorem5_condition)):
        rep = check(g)
        flags[name] = _flag(claimed, rep.verdict,
                            {"violations": [v.to_dict() for v in rep.violations]})
    flags["claw_free"] = _flag(None, claw_copy is None, {"claw": list(claw_copy or ())})
    return {"n": g.n, "flags": flags}
