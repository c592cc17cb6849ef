"""The k-symmetry anonymization procedure (paper Algorithm 1, Theorem 2).

Given a graph G and its automorphism partition Orb(G), every orbit smaller
than k is grown by whole-orbit copy operations until it reaches size k. The
result is a pair (G', V'): the published graph and the tracked
sub-automorphism partition whose every cell has at least k members — so by
the orbit-bound argument of Section 2.1, *no structural knowledge of any
kind* can narrow a target below k candidates.

Two copy units are supported:

* ``"orbit"`` — the paper's Algorithm 1: each operation duplicates the whole
  original orbit, so a cell of size s reaches ceil(k/s)*s members;
* ``"component"`` — the Section 5.1 improvement: each operation duplicates
  only the smallest `≅_L`-class component inside the cell, minimising the
  number of newly-introduced vertices (the cell stops at exactly k or at
  most k + s_min - 1 members).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.orbit_copy import CopyRecord, MutablePartitionedGraph
from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.isomorphism.orbits import automorphism_partition
from repro.utils.validation import AnonymizationError, check_positive_int

_COPY_UNITS = ("orbit", "component")
_METHODS = ("exact", "stabilization")


@dataclass
class AnonymizationResult:
    """The published pair (G', V') plus provenance and cost accounting.

    The paper's publisher releases ``graph`` (G'), ``partition`` (V') and
    ``original_n`` (|V(G)|); everything else is the publisher's own record.
    """

    graph: Graph
    partition: Partition
    original_graph: Graph
    original_partition: Partition
    k: int
    requirements: dict[int, int]
    copy_unit: str
    records: list[CopyRecord] = field(default_factory=list)
    copy_of: dict[int, int] = field(default_factory=dict)

    @property
    def original_n(self) -> int:
        """|V(G)| — published alongside (G', V') for the samplers."""
        return self.original_graph.n

    @property
    def vertices_added(self) -> int:
        return self.graph.n - self.original_graph.n

    @property
    def edges_added(self) -> int:
        return self.graph.m - self.original_graph.m

    @property
    def total_cost(self) -> int:
        """The paper's anonymization cost: vertices plus edges inserted."""
        return self.vertices_added + self.edges_added

    def published(self) -> tuple[Graph, Partition, int]:
        """Exactly what leaves the publisher's hands: (G', V', |V(G)|)."""
        return self.graph, self.partition, self.original_n


def _resolve_partition(graph: Graph, partition: Partition | None, method: str) -> Partition:
    if partition is not None:
        if not partition.covers(graph.vertices()):
            raise AnonymizationError("supplied partition must cover exactly the graph's vertices")
        return partition
    if method not in _METHODS:
        raise AnonymizationError(f"unknown method {method!r}; expected one of {_METHODS}")
    return automorphism_partition(graph, method=method).orbits


def _grow_by_components(state: MutablePartitionedGraph, cell_index: int, required: int) -> None:
    """Section 5.1: grow a cell by copying its backbone slice.

    The copy unit is one representative component per `≅_L`-class of the
    cell — exactly what remains of the cell in the graph backbone. Copying a
    *single* component would be unsound when the cell holds several classes
    (its anchors' symmetry with the other classes' anchors breaks: in the
    paper's Figure 3 graph, duplicating vertex 4 without 5 leaves their
    neighbours 6 and 7 at different degrees). Copying one representative of
    every class simultaneously preserves the sub-automorphism property while
    inserting the minimum |B_i| vertices per operation instead of |V_i|.
    """
    from repro.core.backbone import component_classes

    members = state.original_members[cell_index]
    classes = component_classes(state.graph, members)
    unit = sorted(v for cls in classes for v in cls[0])
    while state.cell_size(cell_index) < required:
        state.copy_members(cell_index, unit)


def anonymize_cells(
    graph: Graph,
    base_partition: Partition,
    requirements: dict[int, int],
    copy_unit: str,
) -> MutablePartitionedGraph:
    """Algorithm 1's outer loop: grow every cell to its requirement.

    Cell *i* of *base_partition* is grown by whole-orbit copies (or, with
    ``copy_unit="component"``, by its Section 5.1 backbone slice) until it
    has ``requirements[i]`` members. Returns the final growth state; the
    anonymizer, :func:`repro.core.republish.republish_published` and the
    reference replay of :func:`repro.arraycore.run_pipeline` package it.
    """
    state = MutablePartitionedGraph(graph, base_partition)
    for cell_index in range(len(base_partition)):
        required = requirements[cell_index]
        if state.cell_size(cell_index) >= required:
            continue
        if copy_unit == "component":
            _grow_by_components(state, cell_index, required)
        else:
            state.grow_cell_to(cell_index, required)
    return state


def anonymize(
    graph: Graph,
    k: int,
    partition: Partition | None = None,
    method: str = "exact",
    copy_unit: str = "orbit",
) -> AnonymizationResult:
    """Modify *graph* (insertions only) until every cell has >= k members.

    Parameters
    ----------
    graph:
        The naively-anonymized network G (integer vertices).
    k:
        The anonymity threshold: every vertex must end up with at least k-1
        structurally equivalent counterparts.
    partition:
        The initial sub-automorphism partition; defaults to Orb(G) computed
        with *method* (``"exact"`` or ``"stabilization"`` — the latter is
        the paper's TDV(G) suggestion for very large networks).
    copy_unit:
        ``"orbit"`` (Algorithm 1) or ``"component"`` (Section 5.1 minimal
        vertex insertion).

    Returns the full :class:`AnonymizationResult`; the publishable part is
    ``result.published()``. The original graph is a subgraph of the result
    (only insertions are performed).
    """
    check_positive_int(k, "k")
    if copy_unit not in _COPY_UNITS:
        raise AnonymizationError(f"unknown copy_unit {copy_unit!r}; expected one of {_COPY_UNITS}")
    base_partition = _resolve_partition(graph, partition, method)
    requirements = {i: k for i in range(len(base_partition))}
    return _anonymize_with_requirements(graph, base_partition, requirements, k, copy_unit)


def _anonymize_with_requirements(
    graph: Graph,
    base_partition: Partition,
    requirements: dict[int, int],
    k: int,
    copy_unit: str,
) -> AnonymizationResult:
    """Shared driver for plain k-symmetry and f-symmetry (per-cell targets)."""
    state = anonymize_cells(graph, base_partition, requirements, copy_unit)
    return AnonymizationResult(
        graph=state.graph,
        partition=state.to_partition(),
        original_graph=graph.copy(),
        original_partition=base_partition,
        k=k,
        requirements=dict(requirements),
        copy_unit=copy_unit,
        records=list(state.records),
        copy_of=dict(state.copy_of),
    )
