"""Dict-graph reference implementations of the anonymization pipeline.

The production passes for backbone detection and the samplers run over flat
arrays (:mod:`repro.arraycore`, :mod:`repro.core.sampling`). The seed
dict-of-sets implementations of those passes live here, verbatim, as
**parity oracles**: independent executable specifications that the array
passes must match byte-for-byte. (Orbit copying has no oracle here: its
production engine is the dict driver
:func:`repro.core.anonymize.anonymize_cells`, and the array copier of the
scale pipeline is checked against that.)

They are consumed by

* :mod:`repro.audit.differential` — ``check_arraycore_parity`` replays
  anonymize → publish → backbone → sample through both engines of
  :func:`repro.arraycore.run_pipeline` on every audit corpus case and fails
  on any divergence;
* ``benchmarks/bench_scale.py`` — the ``--quick`` parity gate and the
  pre-PR baseline for the end-to-end speedup figures;
* the tier-1 tests that pin :func:`repro.core.backbone.backbone` and the
  samplers to them.

Like :mod:`repro.graphs.reference` (the CSR kernel oracles), this module
values obviousness over speed: the code is the seed implementation, kept
deliberately unoptimised. Do not "improve" it — its entire value is being an
independent derivation of the same results.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.graphs.graph import Graph, _sorted_if_possible
from repro.graphs.partition import Partition
from repro.isomorphism.canonical import certificate
from repro.utils.rng import RandomLike, ensure_rng
from repro.utils.validation import PartitionError, SamplingError, check_positive_int

__all__ = [
    "reference_component_classes",
    "reference_backbone",
    "reference_sample_approximate",
    "reference_sample_exact_growth",
    "reference_weighted_choice",
]


def reference_component_classes(graph: Graph, cell: Sequence[int]) -> list[list[list[int]]]:
    """Seed `≅_L(cell)` grouping: induced subgraph + per-component certificates.

    Identical contract to :func:`repro.core.backbone.component_classes`; kept
    as the oracle for the array grouping pass.
    """
    cell_set = set(cell)
    induced = graph.subgraph(cell_set)
    components = [sorted(c) for c in induced.connected_components()]
    components.sort(key=lambda comp: comp[0])
    buckets: dict[object, list[list[int]]] = {}
    order: list[object] = []
    for comp in components:
        comp_graph = induced.subgraph(comp)
        coloring = {v: tuple(sorted(graph.neighbors(v) - cell_set)) for v in comp}
        cert = certificate(comp_graph, coloring)
        if cert not in buckets:
            buckets[cert] = []
            order.append(cert)
        buckets[cert].append(comp)
    return [buckets[cert] for cert in order]


def reference_backbone(graph: Graph, partition: Partition):
    """Seed Algorithm 2: repeated per-cell sweeps over a mutable dict graph.

    Returns the same :class:`repro.core.backbone.BackboneResult` as the
    array-pass :func:`repro.core.backbone.backbone`.
    """
    from repro.core.backbone import BackboneResult

    if not partition.covers(graph.vertices()):
        raise PartitionError("partition must cover exactly the graph's vertices")
    work = graph.copy()
    cells: list[list[int]] = [sorted(cell) for cell in partition.cells]

    changed = True
    while changed:
        changed = False
        for index, cell in enumerate(cells):
            if len(cell) < 2:
                continue
            classes = reference_component_classes(work, cell)
            if all(len(cls) == 1 for cls in classes):
                continue
            keep: list[int] = []
            for cls in classes:
                keep.extend(cls[0])
                for extra in cls[1:]:
                    work.remove_vertices(extra)
                    changed = True
            cells[index] = sorted(keep)

    removed = set(graph.vertices()) - set(work.vertices())
    return BackboneResult(graph=work, cells=cells, removed=removed, input_partition=partition)


def reference_weighted_choice(
    rand: random.Random, indices: list[int], weights: list[float]
) -> int:
    """Seed linear-scan weighted draw (the oracle for the bisect variant).

    Consumes exactly one ``rand.random()`` (or one ``rand.choice`` when all
    weights are zero); the optimised cumulative-sum implementation in
    :mod:`repro.core.sampling` must return the identical index from the
    identical draw.
    """
    total = sum(weights)
    if total <= 0:
        # All eligible cells have zero weight: fall back to uniform.
        return rand.choice(indices)
    point = rand.random() * total
    acc = 0.0
    for index, weight in zip(indices, weights):
        acc += weight
        if point <= acc:
            return index
    return indices[-1]


def _reference_probabilities(
    graph: Graph, partition: Partition, p: Sequence[float] | None
) -> list[float]:
    if p is None:
        weights = []
        for cell in partition.cells:
            degree = max(graph.degree(cell[0]), 1)
            weights.append(1.0 / degree)
        total = sum(weights)
        return [w / total for w in weights]
    if len(p) != len(partition):
        raise SamplingError(f"probability vector has {len(p)} entries for {len(partition)} cells")
    if any(x < 0 for x in p):
        raise SamplingError("cell probabilities must be non-negative")
    total = sum(p)
    if total <= 0:
        raise SamplingError("cell probabilities must not all be zero")
    return [x / total for x in p]


def reference_sample_approximate(
    published_graph: Graph,
    published_partition: Partition,
    original_n: int,
    p: Sequence[float] | None = None,
    rng: RandomLike = None,
) -> Graph:
    """Seed Algorithms 4+5: per-draw eligibility rescans + dict-set DFS.

    The RNG consumption sequence of this oracle is the parity contract for
    :func:`repro.core.sampling.sample_approximate` — same seed, same sample,
    byte for byte.
    """
    check_positive_int(original_n, "original_n")
    rand = ensure_rng(rng)
    cells = [list(cell) for cell in published_partition.cells]
    cell_count = len(cells)
    if original_n < cell_count:
        raise SamplingError(
            f"original_n={original_n} is below the number of published cells ({cell_count}); "
            "each cell represents at least one original vertex"
        )
    probabilities = _reference_probabilities(published_graph, published_partition, p)

    quota = [1] * cell_count
    budget = original_n - cell_count
    while budget > 0:
        eligible = [i for i in range(cell_count) if quota[i] < len(cells[i])]
        if not eligible:
            break
        chosen = reference_weighted_choice(
            rand, eligible, [probabilities[i] for i in eligible]
        )
        quota[chosen] += 1
        budget -= 1

    cell_of = published_partition.as_coloring()
    visited: set = set()
    selected: set = set()
    remaining = original_n
    all_vertices = published_graph.sorted_vertices()

    def traverse(root) -> int:
        nonlocal remaining
        taken = 0
        stack = [root]
        while stack and remaining > 0:
            v = stack.pop()
            if v in visited:
                continue
            visited.add(v)
            ci = cell_of[v]
            if quota[ci] > 0:
                selected.add(v)
                quota[ci] -= 1
                remaining -= 1
                taken += 1
                neighbors = _sorted_if_possible(
                    [u for u in published_graph.neighbors(v) if u not in visited]
                )
                rand.shuffle(neighbors)
                stack.extend(neighbors)
        return taken

    unvisited_pool = list(all_vertices)
    rand.shuffle(unvisited_pool)
    for root in unvisited_pool:
        if remaining <= 0:
            break
        if root not in visited:
            traverse(root)
    return published_graph.subgraph(selected)


def reference_sample_exact_growth(
    backbone_cells: list[list[int]],
    published_cells: list[list[int]],
    probabilities: list[float],
    budget: int,
    rand: random.Random,
) -> list[int]:
    """Seed Algorithm 3 budget loop: how many whole-cell copies each cell gets.

    Rescans eligibility on every draw, exactly as the seed did; the oracle
    for the incremental-eligibility loop inside
    :func:`repro.core.sampling.sample_exact`.
    """
    cell_count = len(published_cells)
    copies_needed = [0] * cell_count
    while budget > 0:
        eligible = [
            i for i in range(cell_count)
            if (copies_needed[i] + 2) * len(backbone_cells[i]) <= len(published_cells[i])
        ]
        if not eligible:
            break
        chosen = reference_weighted_choice(
            rand, eligible, [probabilities[i] for i in eligible]
        )
        copies_needed[chosen] += 1
        budget -= len(backbone_cells[chosen])
    return copies_needed
