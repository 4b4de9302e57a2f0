"""graph6 codec, edge-list text format, corpus streaming.

graph6 per the de-facto standard: size byte 63+n for n <= 62, then the
upper-triangle adjacency bits in column order x(0,1), x(0,2), x(1,2),
x(0,3), ... packed big-endian 6 bits per character, each character +63.
The codec holds that stream as one int: pair (r, c) with r < c is bit
c(c-1)/2 + r, so column c is the c bits from c(c-1)/2 up.
Only the single-byte size tier is implemented.  A line may start with the
optional `>>graph6<<` header.  Whitespace is `string.whitespace` (not
"\x1c"-"\x1f" or "\x85"), only "\n" ends a line, and digits are ASCII.
"""

from __future__ import annotations

import re
import string
from typing import Iterable, Iterator

from .graph import Graph

GRAPH6_MAX_N = 62
# optional file header, written e.g. by networkx `write_graph6(..., header=True)`
GRAPH6_HEADER = ">>graph6<<"
# a character holds its first stream bit on top: _REVERSED6[v] is v's 6 bits reversed
_REVERSED6 = tuple(int(f"{v:06b}"[::-1], 2) for v in range(64))
_FIELD = re.compile(f"[^{string.whitespace}]+")
_INTEGER = re.compile("-?[0-9]+")


class GraphFormatError(ValueError):
    """Malformed graph6 / edge-list input."""


def encode_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX_N:
        raise GraphFormatError(f"n={g.n} exceeds the supported graph6 tier (n <= {GRAPH6_MAX_N})")
    bits = 0
    for c, row in enumerate(g.adj):
        bits |= (row & ((1 << c) - 1)) << c * (c - 1) // 2
    m = g.n * (g.n - 1) // 2
    return chr(63 + g.n) + "".join(chr(63 + _REVERSED6[bits >> i & 63]) for i in range(0, m, 6))


def decode_graph6(line: str) -> Graph:
    s = line.strip(string.whitespace)
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise GraphFormatError("empty graph6 line")
    for ch in s:
        if not (63 <= ord(ch) <= 126):
            raise GraphFormatError(f"character {ch!r} outside graph6 range 63..126")
    if s[0] == "~":
        raise GraphFormatError("multi-byte graph6 size tier not supported (n > 62)")
    n = ord(s[0]) - 63
    m = n * (n - 1) // 2
    need = (m + 5) // 6
    data = s[1:]
    if len(data) != need:
        raise GraphFormatError(
            f"expected {need} data characters for n={n}, got {len(data)}")
    bits = 0
    for k, ch in enumerate(data):
        bits |= _REVERSED6[ord(ch) - 63] << 6 * k
    if bits >> m:
        raise GraphFormatError("nonzero padding bits")
    rows = [0] * n
    for c in range(1, n):
        rows[c] = below = bits >> c * (c - 1) // 2 & ((1 << c) - 1)
        while below:
            low = below & -below
            rows[low.bit_length() - 1] |= 1 << c
            below ^= low
    return Graph.from_rows(tuple(rows))


# -- edge-list text format ----------------------------------------------
# First line "n m", then m lines "u v"; n <= GRAPH6_MAX_N, as for graph6.

def line_fields(text: str) -> list[tuple[int, list[str]]]:
    """(1-based physical line number, fields) of each non-blank line."""
    return [(i, fs) for i, line in enumerate(text.split("\n"), 1) if (fs := _FIELD.findall(line))]


def decode_edge_list(text: str) -> Graph:
    lines = line_fields(text)
    if not lines:
        raise GraphFormatError("empty edge-list input")
    head_no, head = lines[0]
    if len(head) != 2:
        raise GraphFormatError(f"line {head_no}: expected header 'n m'")
    if not all(map(_INTEGER.fullmatch, head)):
        raise GraphFormatError(f"line {head_no}: expected integer header 'n m'")
    n, m = map(int, head)
    if n > GRAPH6_MAX_N:
        # the graph6 limit, checked before any row is allocated
        raise GraphFormatError(f"line {head_no}: n={n} exceeds the supported n <= {GRAPH6_MAX_N}")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = {}
    for i, parts in lines[1:]:
        if len(parts) != 2:
            raise GraphFormatError(f"line {i}: expected edge 'u v'")
        if not all(map(_INTEGER.fullmatch, parts)):
            raise GraphFormatError(f"line {i}: expected integer edge 'u v'")
        u, v = map(int, parts)
        if frozenset((u, v)) in edges:
            raise GraphFormatError(f"line {i}: repeated edge ({u},{v})")
        edges[frozenset((u, v))] = (u, v)
    return Graph(n, edges.values())


def read_corpus(lines: Iterable[str], errors: list[tuple[int, str]]) -> Iterator[Graph]:
    """Yield the Graph of each non-empty line, in order.

    A malformed line is appended to `errors` as (1-based line number,
    message) and skipped; streaming continues.
    """
    for line_no, raw in enumerate(lines, start=1):
        s = raw.strip(string.whitespace)
        if not s:
            continue
        try:
            g = decode_graph6(s)
        except GraphFormatError as exc:
            errors.append((line_no, str(exc)))
            continue
        yield g
