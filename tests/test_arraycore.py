"""The array-first core: overlay, copy state, backbone, publication, pipeline.

Every test here is a parity pin: the array passes must be byte-identical to
the dict copier and the seed dict oracles, because the audit
campaign's ``differential:arraycore`` check and the scale benchmark's gate
both assume that equality at every size they can afford to replay.
"""

import random

import pytest

from repro.arraycore import (
    ArrayPartitionedGraph,
    OverlayGraph,
    backbone_arrays,
    publication_texts_from_arrays,
    run_pipeline,
)
from repro.core.anonymize import anonymize
from repro.core.publication import PublicationBuffers, save_publication_triple
from repro.core.reference import reference_backbone
from repro.graphs.generators import barabasi_albert_graph, watts_strogatz_graph
from repro.graphs.graph import Graph
from repro.isomorphism.canonical import certificate
from repro.isomorphism.orbits import automorphism_partition
from repro.utils.validation import AnonymizationError


def _ba(n=120, m=2, seed=9):
    return barabasi_albert_graph(n, m, random.Random(seed))


def _ws(n=120, k=4, seed=9):
    return watts_strogatz_graph(n, k, 0.1, random.Random(seed))


def _csr_lists(indptr, indices):
    return indptr.tolist(), indices.tolist()


class TestOverlayGraph:
    def test_from_graph_rejects_noncontiguous(self):
        shifted = _ba().relabeled({v: v + 1 for v in _ba().vertices()})
        with pytest.raises(ValueError):
            OverlayGraph.from_graph(shifted)

    def test_freeze_round_trips_the_base(self):
        graph = _ws()
        overlay = OverlayGraph.from_graph(graph)
        csr = graph.csr()
        assert _csr_lists(*overlay.freeze()) == _csr_lists(csr.indptr, csr.indices)

    def test_freeze_after_insertions_matches_dict_twin(self):
        graph = _ba(n=60)
        overlay = OverlayGraph.from_graph(graph)
        twin = graph.copy()
        fresh = overlay.add_vertex()
        twin.add_vertex(fresh)
        for u in (0, 3, 17):
            overlay.add_edge(u, fresh)
            twin.add_edge(u, fresh)
        # Frozen rows are ascending — the CSR contract every pass assumes —
        # so they equal the dict twin's CSR entry for entry.
        csr = twin.csr()
        assert _csr_lists(*overlay.freeze()) == _csr_lists(csr.indptr, csr.indices)

    def test_degree_counts_base_plus_overlay(self):
        graph = _ba(n=40)
        overlay = OverlayGraph.from_graph(graph)
        v = overlay.add_vertex()
        overlay.add_edge(0, v)
        assert overlay.degree(v) == 1
        assert overlay.degree(0) == graph.degree(0) + 1
        assert overlay.m == graph.m + 1


class TestEngineParity:
    """The array copier of the scale pipeline must equal the dict copier.

    ``anonymize`` runs the dict copier (:class:`MutablePartitionedGraph`);
    ``run_pipeline`` runs :class:`ArrayPartitionedGraph`. Grown on the same
    cells, the two must produce the same graph, partition and provenance.
    """

    @pytest.mark.parametrize("copy_unit", ["orbit", "component"])
    @pytest.mark.parametrize("builder", [_ba, _ws])
    def test_results_identical_across_engines(self, builder, copy_unit):
        graph = builder()
        partition = automorphism_partition(graph, method="stabilization").orbits
        result = anonymize(graph, 3, partition=partition, copy_unit=copy_unit)

        state = ArrayPartitionedGraph(OverlayGraph.from_graph(graph), partition.cells)
        for cell_index in range(len(partition)):
            if copy_unit == "component":
                unit = state.component_copy_unit(cell_index)
                while state.cell_size(cell_index) < 3:
                    state.copy_members(cell_index, unit)
            else:
                state.grow_cell_to(cell_index, 3)
        assert result.vertices_added > 0

        csr = result.graph.csr()
        assert csr.vertices == tuple(range(csr.n))
        assert _csr_lists(*state.overlay.freeze()) == _csr_lists(csr.indptr, csr.indices)
        assert state.to_partition().cells == result.partition.cells
        parent_of = state.parent_of
        assert parent_of[:graph.n] == [-1] * graph.n
        assert {v: parent_of[v] for v in range(graph.n, len(parent_of))} == result.copy_of

    def test_anonymize_accepts_noncontiguous_vertices(self):
        graph = Graph()
        graph.add_edge(10, 20)
        graph.add_edge(20, 30)
        result = anonymize(graph, 2)
        assert min(len(cell) for cell in result.partition.cells) >= 2

    def test_unknown_engine_rejected(self):
        # The public API has one copier; there is no engine to choose.
        with pytest.raises(TypeError, match="engine"):
            anonymize(_ba(n=20), 2, engine="array")


class TestArrayPartitionedGraph:
    def test_copy_members_validates_cell_membership(self):
        graph = _ba(n=30)
        partition = automorphism_partition(graph, method="stabilization").orbits
        state = ArrayPartitionedGraph(OverlayGraph.from_graph(graph), partition.cells)
        outsider = partition.cells[-1][0]
        with pytest.raises(AnonymizationError):
            state.copy_members(0, [outsider])
        with pytest.raises(AnonymizationError):
            state.copy_members(0, [])

    def test_parent_of_tracks_fresh_parents(self):
        graph = _ba(n=30)
        partition = automorphism_partition(graph, method="stabilization").orbits
        state = ArrayPartitionedGraph(OverlayGraph.from_graph(graph), partition.cells)
        state.grow_cell_to(0, len(partition.cells[0]) + 1)
        fresh = state.parent_of[graph.n:]
        assert fresh  # at least one fresh vertex
        assert all(0 <= parent < graph.n for parent in fresh)


class TestBackboneArrays:
    @pytest.mark.parametrize("builder", [_ba, _ws])
    def test_matches_dict_backbone_on_published_pair(self, builder):
        result = anonymize(builder(), 2, method="stabilization")
        oracle = reference_backbone(result.graph, result.partition)
        csr = result.graph.csr()
        alive, cells = backbone_arrays(csr.indptr, csr.indices, result.partition.cells)
        survivors = [v for v in range(csr.n) if alive[v]]
        assert survivors == oracle.graph.sorted_vertices()
        assert cells == [sorted(c) for c in oracle.cells]


class TestPublicationArrays:
    def test_texts_byte_identical_to_dict_writer(self):
        result = anonymize(_ws(), 2, method="stabilization")
        extra = {"k": 2}
        buffers = PublicationBuffers.in_memory()
        save_publication_triple(result.graph, result.partition,
                                result.original_n, buffers, extra=extra)
        csr = result.graph.csr()
        texts = publication_texts_from_arrays(
            csr.indptr, csr.indices, result.partition.cells,
            result.original_n, extra=extra,
        )
        assert texts == buffers.texts()


class TestPipeline:
    @pytest.mark.parametrize("builder", [_ba, _ws])
    def test_artifact_parity_across_engines(self, builder):
        graph = builder(n=150)
        partition = automorphism_partition(graph, method="stabilization").orbits
        fast = run_pipeline(graph, 2, partition=partition, engine="array", seed=4)
        slow = run_pipeline(graph, 2, partition=partition, engine="reference", seed=4)
        assert fast.parity_key() == slow.parity_key()

    def test_stage_records_and_report_shape(self):
        graph = _ba(n=80)
        report = run_pipeline(graph, 2, engine="array", seed=1)
        names = [stage["name"] for stage in report.stages]
        assert names == ["partition", "anonymize", "publish", "backbone", "sample"]
        for stage in report.stages:
            assert stage["wall_seconds"] >= 0
            assert stage["peak_rss_bytes"] >= 0
        payload = report.to_dict()
        assert list(payload) == sorted(payload)
        assert set(report.artifacts) == {
            "partition", "publication", "backbone", "sample"}

    def test_unknown_engine_rejected(self):
        with pytest.raises(AnonymizationError, match="engine"):
            run_pipeline(_ba(n=20), 2, engine="simd")


class TestPackedCertificates:
    """The packed-leaf encoding must not change certificate values."""

    def test_certificate_edges_are_plain_int_pairs(self):
        cert = certificate(_ba(n=25))
        n, colors, sizes, edges = cert
        assert n == 25
        for u, v in edges:
            assert type(u) is int and type(v) is int
            assert 0 <= u <= v < n
        assert list(edges) == sorted(edges)

    def test_certificate_invariant_under_relabeling(self):
        graph = _ws(n=40)
        mapping = {v: (v * 17 + 3) % 40 for v in graph.vertices()}
        assert certificate(graph.relabeled(mapping)) == certificate(graph)
