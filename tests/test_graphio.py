import random

import networkx as nx
import pytest

from fanheavy.graph import Graph
from fanheavy.graphio import (GraphFormatError, decode_edge_list, decode_graph6,
                              encode_graph6, read_corpus)

from conftest import complete_graph, cycle_graph


def test_decode_known_lines():
    assert decode_graph6("@") == Graph(1)
    assert decode_graph6("A_") == complete_graph(2)
    assert decode_graph6("C~") == complete_graph(4)
    assert decode_graph6("C~\r\n") == decode_graph6(" C~\t") == complete_graph(4)


def test_decode_strips_header():
    for ref, g in ((nx.complete_graph(2), complete_graph(2)),
                   (nx.cycle_graph(7), cycle_graph(7))):
        line = nx.to_graph6_bytes(ref, header=True).decode()
        assert line.startswith(">>graph6<<")
        assert decode_graph6(line) == g
    with pytest.raises(GraphFormatError, match="empty graph6 line"):
        decode_graph6(">>graph6<<")


def test_encode_known_graphs():
    assert encode_graph6(Graph(1)) == "@"
    assert encode_graph6(complete_graph(4)) == "C~"


def test_reference_encodings_complete_graphs():
    # byte-exact cross-check against networkx's graph6 writer
    for n in range(1, 9):
        ref = nx.to_graph6_bytes(nx.complete_graph(n), header=False).decode().strip()
        assert encode_graph6(complete_graph(n)) == ref


def test_roundtrip_random_graphs_matches_reference():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(0, 62)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = Graph(n, edges)
        line = encode_graph6(g)
        assert decode_graph6(line) == g
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(edges)
        assert line == nx.to_graph6_bytes(ref, header=False).decode().strip()


def test_decode_rejects_bad_input():
    for line, message in (
            ("", "empty graph6 line"),
            ("C", "expected 1 data characters for n=4, got 0"),  # truncated data
            ("C~~", "expected 1 data characters for n=4, got 2"),  # too much data
            ("C>", "character '>' outside graph6 range 63..126"),  # character below range
            ("~??@", "multi-byte graph6 size tier not supported"),
            # n=3: three pair bits 111, then padding 001
            ("Bx", "nonzero padding bits")):
        with pytest.raises(GraphFormatError, match=message):
            decode_graph6(line)


# str.strip() and str.split() take "\x1c"-"\x1f" and "\x85" for whitespace
@pytest.mark.parametrize("line", ["C~\x1f", "C~\x85", "\x1cC~"])
def test_decode_rejects_unicode_only_whitespace(line):
    with pytest.raises(GraphFormatError, match="outside graph6 range 63..126"):
        decode_graph6(line)
    errors = []
    assert list(read_corpus([line], errors)) == []
    assert [ln for ln, _ in errors] == [1]


def test_encode_rejects_oversize():
    with pytest.raises(GraphFormatError):
        encode_graph6(Graph(63))


def test_edge_list_roundtrip():
    # blank lines and surrounding whitespace are ignored
    text = "5 5\n0 1\n  1 2\n\n2 3\n3 4\n4 0 \n"
    assert decode_edge_list(text) == cycle_graph(5)


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError, match="line 1"):
        decode_edge_list("bogus header")
    with pytest.raises(GraphFormatError, match="line 2"):
        decode_edge_list("3 1\n0 x")
    # blank lines count: the number is the physical line
    with pytest.raises(GraphFormatError, match="line 4: expected integer edge"):
        decode_edge_list("3 1\n\n\n0 x")
    with pytest.raises(GraphFormatError, match="line 3: expected integer header"):
        decode_edge_list("\n\nbogus header")


# str.split() takes "\x1f" for whitespace, str.splitlines() takes "\u2028"
# for a line break, and int() takes the Arabic-Indic digit one
@pytest.mark.parametrize("text, message", [
    ("2 1\n0\x1f1", "line 2: expected edge 'u v'"),
    ("2 1\n0 \u0661", "line 2: expected integer edge 'u v'"),
    ("2 1\u20280 1", "line 1: expected header 'n m'"),
])
def test_edge_list_rejects_unicode_only_whitespace_and_digits(text, message):
    with pytest.raises(GraphFormatError, match=message):
        decode_edge_list(text)


def test_edge_list_rejects_repeated_edges():
    # a repeat in either direction would merge into fewer edges than the header
    for text, message in (("3 2\n0 1\n1 0\n", "line 3: repeated edge \\(1,0\\)"),
                          ("3 3\n0 1\n1 2\n0 1\n", "line 4: repeated edge \\(0,1\\)")):
        with pytest.raises(GraphFormatError, match=message):
            decode_edge_list(text)


def test_read_corpus_in_order():
    lines = [encode_graph6(cycle_graph(n)) for n in (3, 4, 5)]
    errors = []
    assert list(read_corpus(lines, errors)) == [cycle_graph(n) for n in (3, 4, 5)]
    assert errors == []


def test_read_corpus_empty_and_blank_lines():
    errors = []
    assert list(read_corpus([], errors)) == []
    assert [g.n for g in read_corpus(["", "C~", "  ", " C~\r\n"], errors)] == [4, 4]
    assert errors == []


def test_read_corpus_reports_bad_line():
    errors = []
    got = list(read_corpus(["C~", "!!bad!!", "A_"], errors))
    assert [g.n for g in got] == [4, 2]
    assert len(errors) == 1 and errors[0][0] == 2

