"""ARR001 — no dict-``Graph`` adjacency iteration inside the array core.

The modules under ``repro/arraycore/`` are the scale path: every hot pass is
written against flat CSR arrays (``indptr``/``indices``), and the dict
:class:`repro.graphs.graph.Graph` exists there only at the one conversion
boundary, ``OverlayGraph.from_graph``, and in the small per-component
graphs the `≅_L` grouping hands to the canonical certificate. A call like
``graph.neighbors(v)`` or ``for u, v in graph.sorted_edges()`` inside an
array-core module is a per-element dict traversal sneaking back into a path
benchmarked at a million vertices — the exact regression
``benchmarks/bench_scale.py`` exists to catch, caught here statically
instead.

Reference-oracle replays that intentionally drive the dict API (e.g. the
``engine="reference"`` half of the pipeline) suppress per line with
``# repro-lint: disable=ARR001 -- <reason>``.
"""

from __future__ import annotations

import ast

from repro.lint.engine import FileContext, Rule, register

#: Graph methods that iterate or probe the dict-of-sets adjacency
_DICT_ADJACENCY_METHODS = frozenset({
    "adjacency",
    "degree",
    "edges",
    "neighbors",
    "sorted_edges",
    "sorted_neighbors",
    "sorted_vertices",
    "vertices",
})


@register
class ArrayCoreDictAdjacency(Rule):
    code = "ARR001"
    name = "array-core-dict-adjacency"
    rationale = (
        "the array core's contract is flat-array passes over CSR; a dict "
        "adjacency call there reintroduces per-element traversal on the "
        "path the scale benchmark certifies at 1e6 vertices"
    )

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if not ctx.in_array_core():
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in _DICT_ADJACENCY_METHODS:
            return
        ctx.report(self, node,
                   f"dict-Graph adjacency call .{func.attr}() inside the "
                   "array core; use the CSR arrays (indptr/indices), or "
                   "suppress on reference-oracle lines")
