"""Graph backbone detection (paper Definition 4, Algorithm 2).

The backbone of (G, V) is the least element of the reduction lattice under
orbit copying (Theorem 3): the smallest seed from which (G, V) can be grown
back by copy operations. Orbit copying preserves it (Theorem 4), which is
what makes backbone-based sampling possible: the published k-symmetric pair
(G', V') has the same backbone as the secret original.

Detection per Algorithm 2: inside each cell V, the components of the induced
subgraph G[V] are grouped by the `≅_L(V)` relation — isomorphism that also
preserves every vertex's *exact* neighbour set outside the cell (two
components that merely look alike but anchor to different hubs are distinct
modules and must both survive, cf. the paper's Figure 7). All but one
representative per class are removed. Removing vertices changes outside
neighbourhoods elsewhere, so the sweep repeats until a full pass removes
nothing — realising the lattice least element.

The `≅_L` grouping encodes each outside-neighbour set as a vertex color and
buckets components by their colored canonical certificate
(:mod:`repro.isomorphism.canonical`), so a cell with t components costs t
certificate computations rather than O(t^2) pairwise isomorphism tests.

The sweep itself is :func:`repro.arraycore.backbone.backbone_arrays`, run on
every input over CSR rows and an alive mask. It needs vertex ids ``0..n-1``;
any other vertex set (a publication read back with
:func:`repro.core.publication.load_publication` lists its vertices in edge
order, for one) is renamed at the boundary to each vertex's rank in sorted
order. The renaming preserves order, so the cells, their ordering by
smallest member and ``removed`` map back unchanged. The seed dict sweep is
kept as the oracle :func:`repro.core.reference.reference_backbone`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.arraycore.backbone import backbone_arrays, component_classes_arrays
from repro.graphs.csr import CSRView
from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.utils.validation import PartitionError


@dataclass
class BackboneResult:
    """The backbone graph plus its cell structure aligned with the input partition.

    ``cells[i]`` is what remains of input cell i (never empty), so indices
    stay aligned with the published partition — the exact sampler depends on
    that alignment.
    """

    graph: Graph
    cells: list[list[int]]
    removed: set[int]
    input_partition: Partition

    @property
    def partition(self) -> Partition:
        return Partition(self.cells)

    @property
    def n_removed(self) -> int:
        return len(self.removed)


def component_classes(graph: Graph, cell: Sequence[int]) -> list[list[list[int]]]:
    """Group the components of graph[cell] into `≅_L(cell)` classes.

    Returns a list of classes; each class is a list of components; each
    component is a sorted vertex list. Classes and components are ordered by
    their smallest vertex, so "keep the first component of each class" is
    deterministic.
    """
    return component_classes_arrays(graph.neighbors, lambda u: True, cell)


def _ranked_csr(csr: CSRView, labels: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays of *csr* with vertex ``labels[r]`` renamed to ``r``.

    The rows are permuted into rank order and re-sorted with the
    composite-key sort of :class:`repro.graphs.csr.CSRView`.
    """
    n = csr.n
    row_of_rank = np.fromiter(map(csr.index.__getitem__, labels), dtype=np.int64, count=n)
    rank = np.empty(n, dtype=np.int64)
    rank[row_of_rank] = np.arange(n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(csr.degrees[row_of_rank], out=indptr[1:])
    keys = rank[np.repeat(np.arange(n), csr.degrees)] * n + rank[csr.indices]
    keys.sort()
    return indptr, keys % n


def backbone(graph: Graph, partition: Partition) -> BackboneResult:
    """Compute the backbone of (graph, partition).

    *partition* must be a sub-automorphism partition of *graph* (the
    published V', or Orb(G) for an original network); this is the caller's
    contract and is not re-verified here (verification is exponential in
    general — see :mod:`repro.core.partitions`).
    """
    if not partition.covers(graph.vertices()):
        raise PartitionError("partition must cover exactly the graph's vertices")
    cells = [sorted(cell) for cell in partition.cells]
    csr = graph.csr()
    if csr.vertices == tuple(range(csr.n)):
        labels: Sequence = range(csr.n)
        alive, cells = backbone_arrays(csr.indptr, csr.indices, cells)
    else:
        labels = sorted(csr.vertices)
        rank = {v: r for r, v in enumerate(labels)}
        alive, ranked = backbone_arrays(
            *_ranked_csr(csr, labels), [[rank[v] for v in cell] for cell in cells]
        )
        cells = [[labels[r] for r in cell] for cell in ranked]
    # ``subgraph`` keeps the input's vertex insertion order.
    work = graph.subgraph([v for v, keep in zip(labels, alive) if keep])
    removed = {v for v, keep in zip(labels, alive) if not keep}
    return BackboneResult(graph=work, cells=cells, removed=removed, input_partition=partition)
