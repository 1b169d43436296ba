"""Hierarchy ↔ networkx bridge (Fig. 1 as an actual graph).

The paper draws the hierarchy of region nodes with parent/child dominance
edges (its Fig. 1).  :func:`hierarchy_to_networkx` materialises exactly
that diagram as a :class:`networkx.DiGraph` — one graph node per hierarchy
node (a deterministic attribute set), edges from each node to its parents —
annotated with region counts, so the lattice can be inspected, exported to
DOT, or analysed with standard graph tooling.

networkx is imported on first call, not with :mod:`repro.core`: nothing
on the identify → remedy → retrain path draws the lattice, so no other
process pays networkx's import time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.hierarchy import Hierarchy

if TYPE_CHECKING:
    import networkx as nx


def node_key(attrs: tuple[str, ...]) -> str:
    """Stable string key for a hierarchy node ('(dataset)' for the root)."""
    return ",".join(sorted(attrs)) if attrs else "(dataset)"


def hierarchy_to_networkx(hierarchy: Hierarchy) -> "nx.DiGraph":
    """Directed graph: child node → parent node (one attribute removed).

    Node attributes: ``level``, ``attrs``, ``n_cells``, ``total_pos``,
    ``total_neg``.
    """
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_node(
        node_key(()),
        level=0,
        attrs=(),
        n_cells=1,
        total_pos=hierarchy.root.total_pos,
        total_neg=hierarchy.root.total_neg,
    )
    for level in hierarchy.levels():
        for node in hierarchy.nodes_at_level(level):
            graph.add_node(
                node_key(node.attrs),
                level=node.level,
                attrs=node.attrs,
                n_cells=node.n_cells,
                total_pos=node.total_pos,
                total_neg=node.total_neg,
            )
            for parent in hierarchy.parents(node):
                graph.add_edge(node_key(node.attrs), node_key(parent.attrs))
            if node.level == 1:
                graph.add_edge(node_key(node.attrs), node_key(()))
    return graph


def lattice_stats(hierarchy: Hierarchy) -> dict[str, int]:
    """Size summary of the lattice (used by the scalability narrative)."""
    graph = hierarchy_to_networkx(hierarchy)
    return {
        "n_nodes": graph.number_of_nodes(),
        "n_edges": graph.number_of_edges(),
        "n_cells": sum(
            data["n_cells"] for __, data in graph.nodes(data=True)
        ),
        "max_level": hierarchy.max_level,
    }
