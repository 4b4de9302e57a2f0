import random

import networkx as nx
import pytest

from fanheavy.graph import Graph, complete_graph, cycle_graph
from fanheavy.graphio import (GraphFormatError, decode_edge_list, decode_graph6,
                              encode_graph6, read_corpus)


def test_decode_known_lines():
    assert decode_graph6("@") == Graph(1)
    assert decode_graph6("A_") == complete_graph(2)
    assert decode_graph6("C~") == complete_graph(4)


def test_decode_strips_header():
    for ref, g in ((nx.complete_graph(2), complete_graph(2)),
                   (nx.cycle_graph(7), cycle_graph(7))):
        line = nx.to_graph6_bytes(ref, header=True).decode()
        assert line.startswith(">>graph6<<")
        assert decode_graph6(line) == g
    with pytest.raises(GraphFormatError):
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
        n = rng.randint(0, 20)
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
    with pytest.raises(GraphFormatError):
        decode_graph6("")
    with pytest.raises(GraphFormatError):
        decode_graph6("C")  # truncated data for n=4
    with pytest.raises(GraphFormatError):
        decode_graph6("C~~")  # too much data
    with pytest.raises(GraphFormatError):
        decode_graph6("\x1f~")  # character below range
    with pytest.raises(GraphFormatError):
        decode_graph6("~??@")  # multi-byte size tier


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


def test_read_corpus_in_order():
    lines = [encode_graph6(cycle_graph(n)) for n in (3, 4, 5)]
    got = list(read_corpus(lines))
    assert [i for i, _ in got] == [0, 1, 2]
    assert [g.n for _, g in got] == [3, 4, 5]


def test_read_corpus_empty_and_blank_lines():
    assert list(read_corpus([])) == []
    assert [g.n for _, g in read_corpus(["", "C~", "  "])] == [4]


def test_read_corpus_reports_bad_line():
    lines = ["C~", "!!bad!!", "A_"]
    with pytest.raises(GraphFormatError, match="line 2"):
        list(read_corpus(lines))
    errors = []
    got = list(read_corpus(lines, errors=errors))
    assert [g.n for _, g in got] == [4, 2]
    assert len(errors) == 1 and errors[0][0] == 2

