"""Immutable simple undirected graphs backed by per-vertex bitset rows.

Vertices are dense integers 0..n-1.  Adjacency rows are Python ints used
as bitsets, so graphs of any size work with the same code path; the
corpora this package runs over are tiny (n <= ~20 in practice).  The
heavy-vertex threshold, 2*d(v) >= n, lives here alone, in `light_mask`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Invalid graph construction or out-of-range vertex."""


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Graph:
    """Simple undirected graph, immutable after construction."""

    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be >= 0, got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(rows))

    @classmethod
    def from_rows(cls, rows: tuple[int, ...]) -> "Graph":
        """Internal fast path: rows must already be symmetric, loop-free."""
        g = cls.__new__(cls)
        object.__setattr__(g, "n", len(rows))
        object.__setattr__(g, "adj", rows)
        return g

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"

    # -- basic queries ---------------------------------------------------

    def _check(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} out of range for n={self.n}")

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return (self.adj[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        self._check(v)
        return self.adj[v].bit_count()

    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # -- connectivity ----------------------------------------------------

    def reachable_from(self, start_mask: int, allowed_mask: int) -> int:
        """Mask of vertices reachable from start_mask moving inside allowed_mask:
        each vertex popped from `todo` adds its unseen allowed neighbours to `seen` and `todo`."""
        adj = self.adj
        seen = todo = start_mask & allowed_mask
        while todo:
            low = todo & -todo
            new = adj[low.bit_length() - 1] & allowed_mask & ~seen
            seen |= new
            todo ^= low | new
        return seen

    def is_two_connected(self) -> bool:
        """n >= 3, connected, and no cut vertex, by one iterative DFS from
        vertex 0 (Hopcroft-Tarjan, CACM 1973).

        The stack holds vertices, each pushed once, and todo[v] the
        neighbours of v not yet tried.  Parents are not tracked: the tree
        edge from a child w back to v lowers low[w] only to disc[v], so
        low[w] >= disc[v] still says that v cuts w's subtree off.  When the
        first child of vertex 0 finishes, the graph is 2-connected exactly
        when that child's subtree holds every other vertex, which rules out
        both a second component and a cut at 0.
        """
        n, adj = self.n, self.adj
        if n < 3 or not adj[0]:
            return False
        disc = [0] * n
        low = [0] * n
        disc[0] = low[0] = 1
        timer = 2
        todo = list(adj)
        stack = [0]
        while True:
            v = stack[-1]
            if todo[v]:
                bit = todo[v] & -todo[v]
                todo[v] ^= bit
                w = bit.bit_length() - 1
                if disc[w]:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append(w)
                continue
            stack.pop()
            u = stack[-1]
            if u == 0:
                return timer > n
            if low[v] >= disc[u]:
                return False
            if low[v] < low[u]:
                low[u] = low[v]

    # -- degree thresholds -----------------------------------------------

    def light_mask(self) -> int:
        """Bitmask of the light vertices, 2*d(v) < n; the rest are heavy."""
        light = 0
        for v, row in enumerate(self.adj):
            if 2 * row.bit_count() < self.n:
                light |= 1 << v
        return light

    def ore_adjacent(self, u: int, v: int) -> bool:
        """Membership of the pair {u,v} in the Ore-extended edge set."""
        self._check(u)
        self._check(v)
        if u == v:
            raise GraphError("ore_adjacent undefined for a vertex with itself")
        ru, rv = self.adj[u], self.adj[v]
        return (ru >> v) & 1 == 1 or ru.bit_count() + rv.bit_count() >= self.n


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set-bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])
