"""Verification toolkit for heavy-degree Hamiltonicity conditions on
small graphs: graph primitives, graph6 I/O, induced-pattern enumeration,
condition predicates, exact cycle solvers, and an exhaustive-check CLI.
"""

__version__ = "0.1.0"
