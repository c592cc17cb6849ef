"""End-to-end anonymize → publish → backbone → sample over the array core.

This is the scale path that ``benchmarks/bench_scale.py`` drives to a
million vertices: after the automorphism partition is computed, every stage
runs on flat arrays — orbit copying as overlay appends, publication straight
off the frozen CSR, backbone as an alive-mask sweep, and the approximate
sampler's quota + DFS over CSR rows. The dict ``Graph`` is materialised
nowhere on this path.

``engine="reference"`` replays the identical pipeline through the dict
copier behind :func:`repro.core.anonymize` (an independent implementation of
orbit copying), the dict publication writer, and the seed oracles in
:mod:`repro.core.reference` for backbone and sampling. Both engines consume
the same RNG stream, so for any seed the two reports carry **byte-identical
artifact digests** — that equality is the benchmark's parity gate and the
point of the :class:`PipelineReport` digests.

Stage timings come from :class:`repro.runtime.Stopwatch`; each stage also
records :func:`repro.runtime.peak_rss_bytes`, which is the process-wide
high-water mark — per-stage values are cumulative maxima, not independent
footprints.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from random import Random

from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.runtime import Stopwatch, peak_rss_bytes
from repro.utils.rng import derive_seed

__all__ = ["PipelineReport", "run_pipeline"]

_ENGINES = ("array", "reference")


@dataclass
class PipelineReport:
    """What one pipeline run produced: per-stage costs plus parity digests."""

    engine: str
    n: int
    m: int
    k: int
    method: str
    copy_unit: str
    seed: int
    #: stage name -> {"wall_seconds": float, "peak_rss_bytes": int}
    stages: list[dict] = field(default_factory=list)
    #: stage name -> digest/summary dict (equal across engines for one seed)
    artifacts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "artifacts": self.artifacts,
            "copy_unit": self.copy_unit,
            "engine": self.engine,
            "k": self.k,
            "m": self.m,
            "method": self.method,
            "n": self.n,
            "seed": self.seed,
            "stages": self.stages,
        }

    def parity_key(self) -> dict:
        """The engine-independent slice: equal for both engines iff in parity."""
        return self.artifacts


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _inverse_degree_from_arrays(indptr, cells) -> list[float]:
    # Same arithmetic (and summation order) as inverse_degree_probabilities.
    weights = []
    for cell in cells:
        v = cell[0]
        degree = max(int(indptr[v + 1]) - int(indptr[v]), 1)
        weights.append(1.0 / degree)
    total = sum(weights)
    return [w / total for w in weights]


def _sample_digest(vertices: list[int], edges_lines: list[str]) -> dict:
    payload = " ".join(map(str, vertices)) + "\n" + "".join(edges_lines)
    return {
        "n": len(vertices),
        "m": len(edges_lines),
        "sha256": _sha256(payload),
    }


def run_pipeline(
    graph: Graph,
    k: int,
    partition: Partition | None = None,
    method: str = "stabilization",
    copy_unit: str = "orbit",
    engine: str = "array",
    seed: int = 0,
    sample: bool = True,
) -> PipelineReport:
    """Run partition → anonymize → publish → backbone → sample on *graph*.

    *graph* must have contiguous int vertices 0..n-1 (what the generators
    emit). Pass *partition* to skip the partition stage (scale runs hand it
    the stabilization partition computed once for both engines).
    """
    from repro.utils.validation import AnonymizationError

    if engine not in _ENGINES:
        raise AnonymizationError(f"unknown engine {engine!r}; expected one of {_ENGINES}")

    report = PipelineReport(
        engine=engine, n=graph.n, m=graph.m, k=k,
        method=method, copy_unit=copy_unit, seed=seed,
    )

    if partition is None:
        from repro.isomorphism.orbits import automorphism_partition

        watch = Stopwatch()
        partition = automorphism_partition(graph, method=method).orbits
        _record(report, "partition", watch)
    report.artifacts["partition"] = {
        "cells": len(partition),
        "sha256": _sha256("\n".join(" ".join(map(str, c)) for c in partition.cells)),
    }

    original_n = graph.n
    requirements = {i: k for i in range(len(partition))}
    if engine == "array":
        report_arrays = _run_array(
            graph, partition, requirements, k, copy_unit, original_n, report
        )
        published_arrays, published_cells = report_arrays
        if sample:
            _sample_array(
                published_arrays, published_cells, original_n, seed, report
            )
    else:
        published_graph, published_partition = _run_reference(
            graph, partition, requirements, k, copy_unit, original_n, report
        )
        if sample:
            _sample_reference(
                published_graph, published_partition, original_n, seed, report
            )
    return report


# ----------------------------------------------------------------- array


def _run_array(graph, partition, requirements, k, copy_unit, original_n, report):
    from repro.arraycore.backbone import backbone_arrays
    from repro.arraycore.overlay import OverlayGraph
    from repro.arraycore.publication import publication_texts_from_arrays
    from repro.arraycore.state import ArrayPartitionedGraph

    watch = Stopwatch()
    state = ArrayPartitionedGraph(OverlayGraph.from_graph(graph), partition.cells)
    for cell_index in range(len(partition)):
        required = requirements.get(cell_index, 1)
        if state.cell_size(cell_index) >= required:
            continue
        if copy_unit == "component":
            unit = state.component_copy_unit(cell_index)
            while state.cell_size(cell_index) < required:
                state.copy_members(cell_index, unit)
        else:
            state.grow_cell_to(cell_index, required)
    original_m = graph.m
    stage_cells = state.cells
    indptr, indices = state.overlay.freeze()
    _record(report, "anonymize", watch)

    watch = Stopwatch()
    published_n = len(indptr) - 1
    published_m = len(indices) // 2
    extra = {
        "k": k,
        "copy_unit": copy_unit,
        "vertices_added": published_n - original_n,
        "edges_added": published_m - original_m,
    }
    edges_text, partition_text, meta_text = publication_texts_from_arrays(
        indptr, indices, stage_cells, original_n, extra=extra
    )
    _record(report, "publish", watch)
    report.artifacts["publication"] = {
        "published_n": published_n,
        "published_m": published_m,
        "edges_sha256": _sha256(edges_text),
        "partition_sha256": _sha256(partition_text),
        "meta_sha256": _sha256(meta_text),
    }

    watch = Stopwatch()
    alive, backbone_cells = backbone_arrays(indptr, indices, stage_cells)
    _record(report, "backbone", watch)
    backbone_vertices = [v for v in range(published_n) if alive[v]]
    report.artifacts["backbone"] = {
        "n": len(backbone_vertices),
        "cells": len(backbone_cells),
        "removed": published_n - len(backbone_vertices),
        "sha256": _sha256("\n".join(" ".join(map(str, c)) for c in backbone_cells)),
    }
    return (indptr, indices), stage_cells


def _sample_array(published_arrays, cells, original_n, seed, report):
    from repro.core.sampling import allocate_quota, dfs_select_arrays

    indptr, indices = published_arrays
    watch = Stopwatch()
    rand = Random(derive_seed(seed, "pipeline/sample"))
    probabilities = _inverse_degree_from_arrays(indptr, cells)
    n = len(indptr) - 1
    cell_of = [0] * n
    for i, cell in enumerate(cells):
        for v in cell:
            cell_of[v] = i
    quota = allocate_quota(rand, [len(c) for c in cells], probabilities, original_n)
    ptr = indptr.tolist()
    ind = indices.tolist()
    selected = dfs_select_arrays(rand, ptr, ind, cell_of, quota, original_n)
    _record(report, "sample", watch)

    chosen = sorted(selected)
    mask = bytearray(n)
    for v in chosen:
        mask[v] = 1
    edge_lines = [
        f"{u} {v}\n"
        for u in chosen
        for v in ind[ptr[u]:ptr[u + 1]]
        if v > u and mask[v]
    ]
    report.artifacts["sample"] = _sample_digest(chosen, edge_lines)


# ------------------------------------------------------------- reference


def _run_reference(graph, partition, requirements, k, copy_unit, original_n, report):
    from repro.core.anonymize import anonymize_cells
    from repro.core.publication import PublicationBuffers, save_publication_triple
    from repro.core.reference import reference_backbone

    watch = Stopwatch()
    state = anonymize_cells(graph, partition, requirements, copy_unit)
    published_graph = state.graph
    published_partition = state.to_partition()
    _record(report, "anonymize", watch)

    watch = Stopwatch()
    extra = {
        "k": k,
        "copy_unit": copy_unit,
        "vertices_added": published_graph.n - original_n,
        "edges_added": published_graph.m - graph.m,
    }
    buffers = PublicationBuffers.in_memory()
    save_publication_triple(
        published_graph, published_partition, original_n, buffers, extra=extra
    )
    edges_text, partition_text, meta_text = buffers.texts()
    _record(report, "publish", watch)
    report.artifacts["publication"] = {
        "published_n": published_graph.n,
        "published_m": published_graph.m,
        "edges_sha256": _sha256(edges_text),
        "partition_sha256": _sha256(partition_text),
        "meta_sha256": _sha256(meta_text),
    }

    watch = Stopwatch()
    backbone_result = reference_backbone(published_graph, published_partition)
    _record(report, "backbone", watch)
    report.artifacts["backbone"] = {
        "n": backbone_result.graph.n,
        "cells": len(backbone_result.cells),
        "removed": backbone_result.n_removed,
        "sha256": _sha256(
            "\n".join(" ".join(map(str, c)) for c in backbone_result.cells)
        ),
    }
    return published_graph, published_partition


def _sample_reference(published_graph, published_partition, original_n, seed, report):
    from repro.core.reference import reference_sample_approximate

    watch = Stopwatch()
    rand = Random(derive_seed(seed, "pipeline/sample"))
    sample_graph = reference_sample_approximate(
        published_graph, published_partition, original_n, rng=rand
    )
    _record(report, "sample", watch)

    # repro-lint: disable=ARR001 -- reference oracle replay drives the dict API
    chosen = sorted(sample_graph.vertices())
    # repro-lint: disable=ARR001 -- reference oracle replay drives the dict API
    edge_lines = [f"{u} {v}\n" for u, v in sample_graph.sorted_edges()]
    report.artifacts["sample"] = _sample_digest(chosen, edge_lines)


def _record(report: PipelineReport, name: str, watch: Stopwatch) -> None:
    report.stages.append({
        "name": name,
        "wall_seconds": watch.elapsed(),
        "peak_rss_bytes": peak_rss_bytes(),
    })
