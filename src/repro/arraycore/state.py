"""Orbit copying (paper Definition 3) as append-only array passes.

:class:`ArrayPartitionedGraph` is the array-core twin of
:class:`repro.core.orbit_copy.MutablePartitionedGraph`: the same tracked
sub-automorphism partition under copy operations, but over an
:class:`repro.arraycore.OverlayGraph` instead of a mutable dict graph —
cell membership is a flat ``cell_of`` list, fresh vertices are batch
appends, and each copy operation walks CSR rows instead of dict sets.

It serves only the scale path, :func:`repro.arraycore.run_pipeline`, which
never builds a dict graph. The public :func:`repro.core.anonymize` runs the
dict twin: it must return a dict ``Graph``, and building one from the
overlay cost more than growing it directly (``docs/scale.md``).

Byte-parity contract (pinned by ``repro.audit``'s ``differential:arraycore``
check): for any contiguous-int-vertex input, the grown graph, the final
partition and the fresh-id minting sequence are identical to the dict
twin's, and ``parent_of`` equals its ``copy_of``. Fresh ids are minted
sequentially from ``max(vertex)+1`` in member order; outside anchors attach
to copies in the same (u, v') pairs; member-internal edges are mirrored
once. Provenance lives only in the compact ``parent_of`` array (1e6
per-operation mapping dicts is real memory at the scales
``benchmarks/bench_scale.py`` runs).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.arraycore.overlay import OverlayGraph
from repro.graphs.partition import Partition
from repro.utils.validation import AnonymizationError

__all__ = ["ArrayPartitionedGraph"]


class ArrayPartitionedGraph:
    """A growing overlay graph plus its tracked partition, under copy ops."""

    def __init__(self, overlay: OverlayGraph, cells: Sequence[Sequence[int]]) -> None:
        self.overlay = overlay
        self.cells: list[list[int]] = [sorted(cell) for cell in cells]
        n = overlay.n
        cell_of = [-1] * n
        for i, cell in enumerate(self.cells):
            for v in cell:
                cell_of[v] = i
        if any(c < 0 for c in cell_of):
            raise AnonymizationError("partition must cover exactly the graph's vertices")
        self.cell_of: list[int] = cell_of
        self.original_members: list[list[int]] = [list(cell) for cell in self.cells]
        # Direct parent of every vertex: -1 for originals, the copied vertex
        # for fresh ids (the compact form of the dict twin's ``copy_of``).
        self.parent_of: list[int] = [-1] * n
        self._fresh = n

    # ------------------------------------------------------------------

    def cell_size(self, cell_index: int) -> int:
        return len(self.cells[cell_index])

    def to_partition(self) -> Partition:
        return Partition([list(cell) for cell in self.cells])

    # ------------------------------------------------------------------

    def copy_members(self, cell_index: int, members: Sequence[int]) -> None:
        """One copy operation on *members* of cell *cell_index* (Definition 3).

        Same contract as the dict twin: members must belong to the cell and
        be closed under the cell-induced adjacency; violations raise
        :class:`AnonymizationError`.
        """
        if not members:
            raise AnonymizationError("copy operation on an empty member list")
        cell_of = self.cell_of
        for v in members:
            if cell_of[v] != cell_index:
                raise AnonymizationError("copy members must belong to the designated cell")

        overlay = self.overlay
        fresh0 = self._fresh
        count = len(members)
        member_pos = {v: i for i, v in enumerate(members)}
        add_edge = overlay.add_edge
        neighbors_list = overlay.neighbors_list
        for _ in range(count):
            overlay.add_vertex()
        for i, v in enumerate(members):
            nv = fresh0 + i
            for u in neighbors_list(v):
                if cell_of[u] != cell_index:
                    add_edge(u, nv)
                else:
                    j = member_pos.get(u)
                    if j is None:
                        raise AnonymizationError(
                            "copy members are not closed under cell-induced adjacency: "
                            f"edge ({u}, {v}) crosses the member boundary inside the cell"
                        )
                    if j < i:
                        # Mirror each member-internal edge exactly once (the
                        # dict twin deduplicates through its neighbour sets).
                        add_edge(fresh0 + j, nv)

        cell = self.cells[cell_index]
        parent_of = self.parent_of
        for i, v in enumerate(members):
            nv = fresh0 + i
            cell.append(nv)
            cell_of.append(cell_index)
            parent_of.append(v)
        self._fresh = fresh0 + count

    def copy_cell(self, cell_index: int) -> None:
        """One whole-orbit copy operation (Algorithm 1's unit)."""
        self.copy_members(cell_index, self.original_members[cell_index])

    def grow_cell_to(self, cell_index: int, target_size: int) -> None:
        """Repeat whole-orbit copies until the cell reaches *target_size*."""
        while len(self.cells[cell_index]) < target_size:
            self.copy_cell(cell_index)

    def component_copy_unit(self, cell_index: int) -> list[int]:
        """The Section 5.1 copy unit: one representative per `≅_L`-class.

        Grouping runs on the array component pass
        (:func:`repro.arraycore.backbone.component_classes_arrays`), matching
        the dict twin's :func:`repro.core.backbone.component_classes` output.
        """
        from repro.arraycore.backbone import component_classes_arrays

        members = self.original_members[cell_index]
        classes = component_classes_arrays(
            self.overlay.neighbors_list, lambda u: True, members
        )
        return sorted(v for cls in classes for v in cls[0])
