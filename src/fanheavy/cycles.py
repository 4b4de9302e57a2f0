"""Exact cycle search: Hamilton cycles, cycles through a required vertex
set (heavy cycles), and Ore-cycle expansion to real cycles.

One backtracker (`_cycle_search`) serves both solvers: a Hamilton cycle
is a cycle through every vertex.  It is deterministic: the path starts at
the lowest required vertex (with none, at each vertex in turn) and
neighbors are tried in ascending order.  Returned cycles are normalized
(minimum vertex first, second element smaller than the last) so fixtures
compare by equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, iter_bits


class LemmaViolationError(RuntimeError):
    """Ore-cycle expansion found no covering real cycle.

    Either the supplied o-cycle was invalid, or a counterexample to the
    expansion lemma has been found; both must be reported loudly.
    """


def normalize_cycle(seq: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Rotate to start at the minimum vertex; orient so seq[1] < seq[-1]."""
    seq = tuple(seq)
    k = len(seq)
    i = seq.index(min(seq))
    rot = seq[i:] + seq[:i]
    if k >= 3 and rot[1] > rot[-1]:
        rot = (rot[0],) + tuple(reversed(rot[1:]))
    return rot


def is_valid_cycle(g: Graph, seq: tuple[int, ...]) -> bool:
    k = len(seq)
    if k < 3 or len(set(seq)) != k:
        return False
    return all(g.has_edge(seq[i], seq[(i + 1) % k]) for i in range(k))


@dataclass(frozen=True)
class OCycle:
    """Cyclic vertex sequence whose consecutive pairs are Ore-adjacent;
    `virtual[i]` flags the pair (seq[i], seq[i+1 mod k]) being a non-edge."""
    seq: tuple[int, ...]
    virtual: tuple[bool, ...]


def make_o_cycle(g: Graph, seq: tuple[int, ...] | list[int]) -> OCycle:
    seq = tuple(seq)
    k = len(seq)
    if k < 3:
        raise ValueError("o-cycle needs at least 3 vertices")
    if len(set(seq)) != k:
        raise ValueError("o-cycle vertices must be distinct")
    flags = []
    for i in range(k):
        u, v = seq[i], seq[(i + 1) % k]
        if not g.ore_adjacent(u, v):
            raise ValueError(f"pair ({u},{v}) is not Ore-adjacent")
        flags.append(not (g.adj[u] >> v) & 1)
    return OCycle(seq, tuple(flags))


def heavy_vertices(g: Graph) -> tuple[int, ...]:
    return tuple(iter_bits(g.full_mask() & ~g.light_mask()))


def _cycle_search(g: Graph, start: int, req_mask: int) -> tuple[int, ...] | None:
    """First cycle in DFS order through `start` and all of `req_mask`.

    The rest of the cycle is a path from `current` back to `start` through
    unvisited vertices.  A branch is cut when no such path can exist: a
    missing required vertex has < 2 usable neighbors (unvisited, `start`,
    `current`), or the vertices reachable from `current` through unvisited
    ones miss a required vertex or every neighbor of `start`.  Off the root
    (where `start` has two free places), a missing vertex whose two usable
    neighbors include `current` must come next, so it is the only child
    tried and a second one ends the branch (Rubin, J. ACM 1974).  The cuts
    drop only branches with no cycle and keep the order of the rest, so
    the first cycle found stays the same.
    """
    adj = g.adj
    full = g.full_mask()
    path = [start]

    def extend(current: int, visited: int) -> bool:
        missing = req_mask & ~visited
        if not missing and len(path) >= 3 and (adj[current] >> start) & 1:
            return True
        unvisited = full & ~visited
        here = 1 << current
        usable = unvisited | here | (1 << start)
        forced = 0
        for v in iter_bits(missing):
            near = adj[v] & usable
            if near.bit_count() < 2:
                return False
            if near.bit_count() == 2 and near & here and current != start:
                if forced:
                    return False  # two vertices would both have to follow current
                forced = 1 << v
        reach = g.reachable_from(here, unvisited | here)
        if missing & ~reach or not reach & adj[start]:
            return False
        for w in iter_bits((forced or adj[current]) & unvisited):
            path.append(w)
            if extend(w, visited | (1 << w)):
                return True
            path.pop()
        return False

    return normalize_cycle(path) if extend(start, 1 << start) else None


def find_hamilton_cycle(g: Graph) -> tuple[int, ...] | None:
    """Exact backtracking Hamilton-cycle search; None iff non-Hamiltonian."""
    # 2-connectivity is necessary, and for n >= 3 it implies min degree >= 2
    if not g.is_two_connected():
        return None
    return _cycle_search(g, 0, g.full_mask())


def find_cycle_through(g: Graph, required: set[int] | tuple[int, ...]) -> tuple[int, ...] | None:
    """Some cycle whose vertex set contains `required`, or None; the
    other vertices are optional."""
    req = sorted(set(required))
    req_mask = 0
    for v in req:
        g._check(v)
        req_mask |= 1 << v
    for start in req[:1] or range(g.n):
        c = _cycle_search(g, start, req_mask | 1 << start)
        if c is not None:
            return c
    return None


def expand_o_cycle(g: Graph, oc: OCycle) -> tuple[int, ...]:
    """Real cycle covering the o-cycle's vertex set.

    The expansion lemma guarantees existence for any valid o-cycle, so
    failure raises LemmaViolationError rather than returning None.
    """
    # re-validate the input so a junk o-cycle cannot masquerade as a
    # lemma counterexample
    oc = make_o_cycle(g, oc.seq)
    if not any(oc.virtual):
        return normalize_cycle(oc.seq)
    cycle = find_cycle_through(g, set(oc.seq))
    if cycle is None:
        raise LemmaViolationError(
            f"no real cycle covers o-cycle {oc.seq} (n={g.n}); "
            "invalid input or lemma counterexample")
    return cycle
