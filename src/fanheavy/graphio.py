"""graph6 codec, edge-list text format, corpus streaming.

graph6 per the de-facto standard: size byte 63+n for n <= 62, then the
upper-triangle adjacency bits in column order x(0,1), x(0,2), x(1,2),
x(0,3), ... packed big-endian 6 bits per character, each character +63.
Only the single-byte size tier is implemented.  A line may start with the
optional `>>graph6<<` header.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graph import Graph

GRAPH6_MAX_N = 62
# optional file header, written e.g. by networkx `write_graph6(..., header=True)`
GRAPH6_HEADER = ">>graph6<<"


class GraphFormatError(ValueError):
    """Malformed graph6 / edge-list input."""


def encode_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX_N:
        raise GraphFormatError(f"n={g.n} exceeds the supported graph6 tier (n <= {GRAPH6_MAX_N})")
    out = [chr(63 + g.n)]
    bits = 0
    nbits = 0
    for col in range(1, g.n):
        for row in range(col):
            bits = (bits << 1) | ((g.adj[row] >> col) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + bits))
                bits = nbits = 0
    if nbits:
        out.append(chr(63 + (bits << (6 - nbits))))
    return "".join(out)


def decode_graph6(line: str) -> Graph:
    s = line.strip()
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
    need = (n * (n - 1) // 2 + 5) // 6
    data = s[1:]
    if len(data) != need:
        raise GraphFormatError(
            f"expected {need} data characters for n={n}, got {len(data)}")
    rows = [0] * n
    col, row = 1, 0
    for ch in data:
        val = ord(ch) - 63
        for shift in range(5, -1, -1):
            if col >= n:
                if (val >> shift) & 1:
                    raise GraphFormatError("nonzero padding bits")
                continue
            if (val >> shift) & 1:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            row += 1
            if row == col:
                col += 1
                row = 0
    return Graph.from_rows(tuple(rows))


# -- edge-list text format ----------------------------------------------
# First line "n m", then m lines "u v".

def decode_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphFormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError("line 1: expected header 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError("line 1: expected integer header 'n m'")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {i}: expected edge 'u v'")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphFormatError(f"line {i}: expected integer edge 'u v'")
    return Graph(n, edges)


def read_corpus(
    lines: Iterable[str],
    errors: list[tuple[int, str]] | None = None,
) -> Iterator[tuple[int, Graph]]:
    """Yield (corpus index, Graph) per non-empty line.

    Malformed lines raise GraphFormatError with a 1-based line number,
    unless an `errors` list is supplied, in which case the failure is
    appended as (line_no, message) and streaming continues.
    """
    index = 0
    for line_no, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s:
            continue
        try:
            g = decode_graph6(s)
        except GraphFormatError as exc:
            if errors is None:
                raise GraphFormatError(f"line {line_no}: {exc}") from exc
            errors.append((line_no, str(exc)))
            continue
        yield index, g
        index += 1

