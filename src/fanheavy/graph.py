"""Immutable simple undirected graphs backed by per-vertex bitset rows.

Vertices are dense integers 0..n-1.  Adjacency rows are Python ints used
as bitsets, so graphs of any size work with the same code path; the
corpora this package runs over are tiny (n <= ~20 in practice).
"""

from __future__ import annotations

from typing import Iterable, Iterator


class GraphError(ValueError):
    """Invalid graph construction or out-of-range vertex."""


class Graph:
    """Simple undirected graph, immutable after construction."""

    __slots__ = ("n", "adj")

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

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # default unpickling restores slots with setattr, which raises here
        return (Graph.from_rows, (self.adj,))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

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
        """Mask of vertices reachable from start_mask moving inside allowed_mask."""
        seen = start_mask & allowed_mask
        frontier = seen
        while frontier:
            nxt = 0
            for w in iter_bits(frontier):
                nxt |= self.adj[w]
            nxt &= allowed_mask & ~seen
            seen |= nxt
            frontier = nxt
        return seen

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        full = self.full_mask()
        return self.reachable_from(1, full) == full

    def is_two_connected(self) -> bool:
        """n >= 3, connected, and no articulation vertex (Hopcroft-Tarjan)."""
        if self.n < 3 or not self.is_connected():
            return False
        return not self._has_articulation()

    def _has_articulation(self) -> bool:
        n = self.n
        disc = [0] * n
        low = [0] * n
        timer = 1
        # iterative DFS from vertex 0; state: (v, parent, neighbor iterator)
        disc[0] = low[0] = timer
        timer += 1
        stack = [(0, -1, iter_bits(self.adj[0]))]
        root_children = 0
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == 0:
                    if v == 0:
                        root_children += 1
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter_bits(self.adj[w])))
                    advanced = True
                    break
                elif w != parent:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                    if pv != 0 and low[v] >= disc[pv]:
                        return True
        return root_children > 1

    # -- Ore adjacency ---------------------------------------------------

    def ore_adjacent(self, u: int, v: int) -> bool:
        """Membership of the pair {u,v} in the Ore-extended edge set."""
        self._check(u)
        self._check(v)
        if u == v:
            raise GraphError("ore_adjacent undefined for a vertex with itself")
        return self.has_edge(u, v) or self.degree(u) + self.degree(v) >= self.n


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set-bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph.from_rows(tuple(full ^ (1 << v) for v in range(n)))


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])
