"""Array-first core: the CSR-plus-overlay engine behind the scale pipeline.

The flow of :func:`run_pipeline`, which never builds a dict graph, is

``Graph`` (input, contiguous int vertices)
    → :class:`OverlayGraph` (frozen CSR base + insertions-only overlay;
      ``from_graph`` is the only conversion boundary)
    → :class:`ArrayPartitionedGraph` (orbit copying as array appends)
    → ``freeze()`` (publication CSR)
    → :mod:`~repro.arraycore.backbone` / the samplers (flat passes).

One engine per stage serves the public API: :func:`repro.core.backbone`
runs :func:`backbone_arrays` on every input, while
:func:`repro.core.anonymize` runs the dict copier, because it must return a
dict ``Graph`` and building one from the overlay cost more than it saved.
``repro.audit``'s ``differential:arraycore`` check replays the pipeline
through the dict copier and the oracles in :mod:`repro.core.reference` and
pins every artifact byte-identical. See ``docs/scale.md`` for the
measurements and ``benchmarks/bench_scale.py`` for the million-node
trajectory.
"""

from repro.arraycore.backbone import backbone_arrays, component_classes_arrays
from repro.arraycore.overlay import OverlayGraph
from repro.arraycore.pipeline import PipelineReport, run_pipeline
from repro.arraycore.publication import publication_texts_from_arrays
from repro.arraycore.state import ArrayPartitionedGraph

__all__ = [
    "ArrayPartitionedGraph",
    "OverlayGraph",
    "PipelineReport",
    "backbone_arrays",
    "component_classes_arrays",
    "publication_texts_from_arrays",
    "run_pipeline",
]
