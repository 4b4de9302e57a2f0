"""Long exhaustive runs, excluded from the default suite.

Run with: pytest -m slow tests/test_slow_exhaustive.py -v -s
"""

import hashlib

import pytest

from fanheavy.conditions import satisfies_fan, theorem4_condition, theorem5_condition
from fanheavy.cycles import find_hamilton_cycle
from fanheavy.generate import canonical_form, labeled_graphs
from fanheavy.graphio import decode_graph6, encode_graph6

from conftest import GRAPH_COUNTS, TWO_CONNECTED_COUNTS

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


def test_generate_9_vertex_class_counts(reduced_9, two_connected_9):
    # reduced_9 wrote the file from nonisomorphic_graphs(9) if it was missing
    assert len(reduced_9.read_text().split()) == GRAPH_COUNTS[9]
    assert len(two_connected_9) == TWO_CONNECTED_COUNTS[9]


def test_generate_9_vertex_classes_are_distinct(reduced_9):
    # every class once; the digest of the sorted forms pins the set of
    # classes whatever labels the generator gives its representatives
    forms = sorted({canonical_form(decode_graph6(s)) for s in reduced_9.read_text().split()})
    assert len(forms) == GRAPH_COUNTS[9]
    digest = hashlib.sha256(" ".join(map(str, forms)).encode()).hexdigest()
    assert digest == "2834a6ddd66446838256855cf68c39384b6d93cd3d29e1a236d5d6ef063f8c37"
