"""Long exhaustive runs, excluded from the default suite.

Run with: pytest -m slow tests/test_slow_exhaustive.py -v -s
"""

import pytest

from fanheavy.conditions import satisfies_fan, theorem4_condition, theorem5_condition
from fanheavy.cycles import find_hamilton_cycle
from fanheavy.generate import labeled_graphs, nonisomorphic_graphs
from fanheavy.graphio import encode_graph6

from conftest import DATA, GRAPH_COUNTS, TWO_CONNECTED_COUNTS

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("hypothesis", [satisfies_fan, theorem4_condition,
                                        theorem5_condition])
def test_theorems_on_all_labeled_7_vertex_graphs(hypothesis):
    # the bitmask enumerator, unreduced: 2^21 graphs
    bad = []
    for g in labeled_graphs(7):
        if g.is_two_connected() and hypothesis(g).verdict and find_hamilton_cycle(g) is None:
            bad.append(encode_graph6(g))
    assert bad == []


def test_regenerate_8_vertex_fixture_matches():
    # the checked-in corpus is exactly what the generator produces
    reps = nonisomorphic_graphs(8)
    assert len(reps) == GRAPH_COUNTS[8]
    expected = (DATA / "graphs8_reduced.g6").read_text().splitlines()
    assert [encode_graph6(g) for g in reps] == expected


def test_generate_9_vertex_class_counts():
    reps = nonisomorphic_graphs(9)
    assert len(reps) == GRAPH_COUNTS[9]
    assert sum(1 for g in reps if g.is_two_connected()) == TWO_CONNECTED_COUNTS[9]
