"""Verification toolkit for heavy-degree Hamiltonicity conditions on
small graphs: graph primitives, graph6 I/O, induced-pattern enumeration,
condition predicates, exact cycle solvers, and an exhaustive-check CLI.
"""

from .conditions import (ConditionReport, Violation, copy_is_f_heavy,
                         is_2_heavy, is_R_f_heavy, is_R_free, is_family_f_heavy,
                         is_heavy, satisfies_fan, theorem4_condition,
                         theorem5_condition)
from .cycles import (LemmaViolationError, OCycle, expand_o_cycle,
                     find_cycle_through, find_hamilton_cycle, heavy_vertices,
                     make_o_cycle)
from .graph import Graph, GraphError
from .graphio import GraphFormatError, decode_graph6, encode_graph6, read_corpus
from .patterns import Pattern, enumerate_induced_copies, is_isomorphic_small, pattern
from .witness import build_witness, classify_witness

__version__ = "0.1.0"

__all__ = [
    "ConditionReport", "Violation", "copy_is_f_heavy", "is_2_heavy",
    "is_R_f_heavy", "is_R_free", "is_family_f_heavy", "is_heavy",
    "satisfies_fan", "theorem4_condition", "theorem5_condition",
    "LemmaViolationError", "OCycle", "expand_o_cycle", "find_cycle_through",
    "find_hamilton_cycle", "heavy_vertices", "make_o_cycle",
    "Graph", "GraphError",
    "GraphFormatError", "decode_graph6", "encode_graph6", "read_corpus",
    "Pattern", "enumerate_induced_copies", "is_isomorphic_small", "pattern",
    "build_witness", "classify_witness",
]
