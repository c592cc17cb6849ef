"""The benchmark's own tests: its checks reject corrupted outputs, and a
small-size run of every workload passes every check.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import checks
from common import ROOT, program_src

sys.path.insert(0, str(program_src()))

from repro import anonymize, sample_many  # noqa: E402
from repro.core.republish import GraphDelta, republish  # noqa: E402
from repro.graphs.generators import barabasi_albert_graph  # noqa: E402

K = 2


def _pub(graph, partition, original_n) -> checks.Publication:
    return checks.Publication(*checks.graph_arrays(graph),
                              [np.array(sorted(c), dtype=np.int64) for c in partition.cells],
                              original_n)


@pytest.fixture(scope="module")
def case():
    graph = barabasi_albert_graph(60, 1, rng=7)
    result = anonymize(graph, K)
    pub = _pub(result.graph, result.partition, result.original_n)
    vertices = np.arange(60, dtype=np.int64)
    edges = checks.normalize_edges(graph.edges())
    return {
        "graph": graph, "result": result, "pub": pub, "vertices": vertices, "edges": edges,
        "reference": checks.colour_refinement(vertices, edges),
    }


def _without_vertex(pub: checks.Publication, v: int) -> checks.Publication:
    keep = ~(pub.edges == v).any(axis=1)
    cells = [cell[cell != v] for cell in pub.cells]
    return checks.Publication(pub.vertices[pub.vertices != v], pub.edges[keep],
                              [c for c in cells if len(c)], pub.original_n)


def test_publication_passes(case):
    assert checks.check_publication(case["pub"], K, case["vertices"], case["edges"],
                                    case["reference"]) == []


def test_dropped_copy_vertex_is_rejected(case):
    pub = case["pub"]
    copy = int(pub.vertices.max())  # copies take the ids after the originals
    assert copy >= 60
    broken = _without_vertex(pub, copy)
    assert checks.check_publication(broken, K, case["vertices"], case["edges"], case["reference"])


def test_cell_broken_by_a_removed_edge_is_rejected(case):
    pub = case["pub"]
    # without one of its edges, the two cells the edge joined are not equitable
    broken = checks.Publication(pub.vertices, pub.edges[1:], pub.cells, pub.original_n)
    assert checks.check_equitable(broken.edges, broken.cells)
    assert checks.check_publication(broken, K, case["vertices"], case["edges"], case["reference"])


def test_sample_missing_a_cell_is_rejected(case):
    pub = case["pub"]
    result = case["result"]
    sample = sample_many(result.graph, result.partition, 60, 1, rng=3, jobs=1)[0]
    vertices, edges = checks.graph_arrays(sample)
    assert checks.check_sample(vertices, edges, pub) == []
    # swap every sampled vertex of one cell for unsampled vertices elsewhere
    cell = next(c for c in pub.cells if np.isin(c, vertices).sum() == 1)
    others = np.setdiff1d(pub.vertices, np.concatenate([vertices, cell]))[:1]
    swapped = np.sort(np.concatenate([vertices[~np.isin(vertices, cell)], others]))
    assert checks.check_sample(swapped, checks.induced(pub.edges, swapped), pub)


def test_split_previous_cell_is_rejected(case):
    result = case["result"]
    first = int(max(result.graph.vertices())) + 1
    release = republish(result, GraphDelta([first], [(0, first)]))
    previous = case["pub"]
    new = _pub(release.graph, release.partition, release.original_n)
    delta_v = np.array([first], dtype=np.int64)
    delta_e = checks.normalize_edges([(0, first)])
    assert checks.check_release(previous, new, K, delta_v, delta_e) == []
    # move one vertex of a previous cell into a cell of its own
    big = next(i for i, c in enumerate(new.cells) if len(c) >= 2)
    moved = new.cells[big][0]
    cells = list(new.cells)
    cells[big] = cells[big][1:]
    cells.append(np.array([moved]))
    split = checks.Publication(new.vertices, new.edges, cells, new.original_n)
    assert checks.check_release(previous, split, 1, delta_v, delta_e)


def test_backbone_counts_and_audit_are_checked(case):
    pub = case["pub"]
    expected = checks.backbone_counts(case["vertices"], case["edges"], case["reference"])
    vertices, edges = case["vertices"], case["edges"]
    cells = [c[c < 60] for c in pub.cells]
    wrong = (expected[0] + 1, expected[1], expected[2])
    assert checks.check_backbone(wrong, vertices, edges, cells, pub, expected)
    degree = checks.degrees(vertices, edges)
    target = 0
    right = [v for v, d in degree.items() if d == degree[target]]
    assert checks.check_audit_candidates(right, target, vertices, edges) == []
    assert checks.check_audit_candidates(right[1:], target, vertices, edges)


def test_isomorphism_check(case):
    pub = case["pub"]
    perm = np.random.RandomState(0).permutation(int(pub.vertices.max()) + 1)
    relabeled = checks.Publication(np.sort(perm[pub.vertices]), checks.normalize_edges(perm[pub.edges]),
                                   [perm[c] for c in pub.cells], pub.original_n)
    assert checks.isomorphic(pub, relabeled)
    # move one edge's end to a vertex it is not adjacent to: same counts,
    # another graph (the degree sequence changes)
    u, v = relabeled.edges[0].tolist()
    present = set(map(tuple, relabeled.edges.tolist()))
    w = next(x for x in relabeled.vertices.tolist()
             if x not in (u, v) and (min(u, x), max(u, x)) not in present
             and sum(x in e for e in present) != sum(v in e for e in present) - 1)
    moved = relabeled.edges.copy()
    moved[0] = [u, w]
    rewired = checks.Publication(relabeled.vertices, checks.normalize_edges(moved),
                                 relabeled.cells, pub.original_n)
    assert len(rewired.edges) == len(pub.edges)
    assert not checks.isomorphic(pub, rewired)


def _run(workload: str, trace: int, seconds: float = 2.0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace), "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_small_run_of_every_workload_passes_every_check():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    started = time.monotonic()
    for workload in [w["name"] for w in spec["workloads"]]:
        result = _run(workload, trace=0)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, workload
        assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values()), (workload, result)
    assert time.monotonic() - started < 60


def test_traced_runs_show_the_layers_each_workload_was_chosen_for():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in spec["per_layer"]}
    twins = _run("pipeline-twins", trace=1)["metrics"]
    fresh = _run("service-fresh", trace=1)["metrics"]
    shared = _run("service-shared", trace=1)["metrics"]
    for metrics in (twins, fresh, shared):
        assert set(metrics) == names
    assert twins["core.sampling.quota_s"]["value"] > 0
    assert twins["isomorphism.partition_s"]["value"] > 0
    assert fresh["runtime.pool_starts"]["value"] > 0
    assert fresh["service.cache.hit_ratio"]["value"] == 0
    assert shared["runtime.pool_starts"]["value"] == 0
    assert shared["service.cache.hit_ratio"]["value"] > 0.5


def test_exits_nonzero_without_the_program(tmp_path):
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline-asym", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
