"""The publisher's and the analyst's pipeline through the library's public API.

One round, on freshly built objects each time:

1. **publish** - ``anonymize`` the input, then ``save_publication_triple``
   into ``PublicationBuffers.in_memory()`` and take the texts;
2. **backbone** - ``backbone`` of the publication, as the analyst holds it
   (a graph and partition built from the published texts);
3. **sample** - one approximate sample of the original size through
   ``sample_many(..., strategy="approximate")`` on another fresh copy;
4. **republish** x ``chain`` - a chain of insertions-only growth releases
   through ``republish`` (incremental engine), each on the previous result.

Every operation is timed alone; building the fresh input objects, parsing
and checking the outputs happen between the timed calls. Rounds repeat
until ``--seconds`` have passed; each end-to-end time is a median over them.
"""

from __future__ import annotations

import importlib
import json
import random
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

import checks
from common import Clock, Outcome, median, now, peak_rss_mb, percentile
from tracer import Tracer, by_op, duration, self_times


@dataclass(frozen=True)
class PipelineConfig:
    n: int
    #: Barabasi-Albert attachment: 3 gives an asymmetric graph, 1 a tree
    m: int
    method: str
    k: int = 2
    #: releases per round
    chain: int = 3
    #: one new vertex per `growth` original vertices in each release
    growth: int = 100
    setup_reps: int = 7


WORKLOADS = {
    # Trivial automorphism group: every cell a singleton, orbit copying
    # doubles the graph, the backbone removes half, quota has no budget.
    "pipeline-asym": PipelineConfig(n=3000, m=3, method="stabilization"),
    # A preferential-attachment tree: pendant and degree-2 twins on hubs put
    # most vertices in non-singleton orbits; exact search with pendant
    # peeling, and a sample whose quota allocation has a large budget.
    "pipeline-twins": PipelineConfig(n=4000, m=1, method="exact"),
}

SMALL = {name: replace(cfg, n=400, setup_reps=2) for name, cfg in WORKLOADS.items()}

#: timed repetitions per round of the operations that run on fresh objects
REPEATS = {"publish": 2, "backbone": 3, "sample": 3}

#: vertices of the input's prefix (a BA graph of its own) used to warm up
WARM_UP_N = 60


def _api():
    """The public functions a round calls; tracing wraps these entries."""
    import repro
    from repro.core.publication import PublicationBuffers, save_publication_triple
    from repro.core.republish import GraphDelta, republish
    from repro.graphs.generators import barabasi_albert_graph

    return SimpleNamespace(
        Graph=repro.Graph, Partition=repro.Partition, GraphDelta=GraphDelta,
        PublicationBuffers=PublicationBuffers,
        generate=barabasi_albert_graph, anonymize=repro.anonymize,
        save_publication_triple=save_publication_triple, backbone=repro.backbone,
        sample_many=repro.sample_many, republish=republish,
    )


@dataclass
class PipelineInput:
    edges: list[tuple[int, int]]
    #: per release: (new-vertex count, [(new rank, anchor)]); an anchor >= 0
    #: is an original vertex, -(r + 1) the delta's own new vertex of rank r
    deltas: list[tuple[int, list[tuple[int, int]]]]


def make_input(api, cfg: PipelineConfig, seed: int) -> PipelineInput:
    graph = api.generate(cfg.n, cfg.m, rng=random.Random(seed))
    edges = sorted(graph.edges())
    rand = random.Random(seed * 7919 + 1)
    deltas = []
    for _ in range(cfg.chain):
        count = max(1, cfg.n // cfg.growth)
        anchors = []
        for rank in range(count):
            choices = {rand.randrange(cfg.n) if rank == 0 or rand.random() < 0.7
                       else -(rand.randrange(rank) + 1)
                       for _ in range(rand.randint(1, 2))}
            anchors.extend((rank, a) for a in sorted(choices))
        deltas.append((count, anchors))
    return PipelineInput(edges, deltas)


def instantiate_delta(api, template, first_id: int):
    count, anchors = template
    new = list(range(first_id, first_id + count))
    edges = [(a if a >= 0 else first_id - a - 1, first_id + rank) for rank, a in anchors]
    return api.GraphDelta(new, edges)


def publish(api, graph, cfg: PipelineConfig):
    result = api.anonymize(graph, cfg.k, method=cfg.method)
    buffers = api.PublicationBuffers.in_memory()
    api.save_publication_triple(result.graph, result.partition, result.original_n, buffers)
    return result, buffers.texts()


def _fresh(api, pub: checks.Publication):
    """The analyst's copy of a publication: new Graph and Partition objects."""
    graph = api.Graph.from_edges(map(tuple, pub.edges.tolist()), vertices=pub.vertices.tolist())
    return graph, api.Partition([cell.tolist() for cell in pub.cells])


def _as_publication(graph, partition, original_n: int) -> checks.Publication:
    cells = [np.array(sorted(cell), dtype=np.int64) for cell in partition.cells]
    return checks.Publication(*checks.graph_arrays(graph), cells, original_n)


class _Reference:
    """Facts about the input computed apart from the program (once per run)."""

    def __init__(self, cfg: PipelineConfig, inp: PipelineInput) -> None:
        self.vertices = np.arange(cfg.n, dtype=np.int64)
        self.edges = checks.normalize_edges(inp.edges)
        self.cells = checks.colour_refinement(self.vertices, self.edges)
        self.backbone = checks.backbone_counts(self.vertices, self.edges, self.cells)


def _round(api, cfg, inp, ref, seed, r, outcome, times, tracer, clock) -> None:
    def op(name):
        if tracer is not None:
            if name is None and tracer.op is not None and clock.speeds:
                tracer.scale[tracer.op] = clock.speeds[-1]
            tracer.op = name

    result = pub = first_texts = None
    for i in range(REPEATS["publish"]):
        outcome.attempted += 1
        graph = api.Graph.from_edges(inp.edges, vertices=range(cfg.n))
        op(f"publish-{r}.{i}")
        try:
            (published, texts), seconds = clock.time(publish, api, graph, cfg)
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            outcome.fail(f"publish raised {exc!r}", check=False)
            continue
        finally:
            op(None)
        times["publish"].append(seconds)
        if first_texts is None:
            first_texts, result = texts, published
            pub = checks.parse_publication(texts[0], texts[1], json.loads(texts[2])["original_n"])
            outcome.verdict(checks.check_publication(pub, cfg.k, ref.vertices, ref.edges,
                                                     ref.cells), "publication")
        else:  # publishing is deterministic: a repeat must give the checked texts
            outcome.verdict([] if texts == first_texts else ["a repeat published other texts"],
                            "publication")
    if result is None:
        rest = REPEATS["backbone"] + REPEATS["sample"] + cfg.chain
        outcome.attempted += rest
        outcome.failed += rest
        return

    for i in range(REPEATS["backbone"]):
        outcome.attempted += 1
        graph, partition = _fresh(api, pub)
        op(f"backbone-{r}.{i}")
        try:
            bb, seconds = clock.time(api.backbone, graph, partition)
        except Exception as exc:  # noqa: BLE001
            outcome.fail(f"backbone raised {exc!r}", check=False)
            continue
        finally:
            op(None)
        times["backbone"].append(seconds)
        counts = (bb.graph.n, bb.graph.m, len(bb.cells))
        outcome.verdict(checks.check_backbone(counts, *checks.graph_arrays(bb.graph), bb.cells,
                                              pub, ref.backbone), "backbone")

    for i in range(REPEATS["sample"]):
        outcome.attempted += 1
        graph, partition = _fresh(api, pub)
        op(f"sample-{r}.{i}")
        try:
            samples, seconds = clock.time(api.sample_many, graph, partition, pub.original_n, 1,
                                     strategy="approximate", rng=seed * 1_000_003 + 2 * r + i, jobs=1)
        except Exception as exc:  # noqa: BLE001
            outcome.fail(f"sample raised {exc!r}", check=False)
            continue
        finally:
            op(None)
        times["sample"].append(seconds)
        outcome.verdict(checks.check_sample(*checks.graph_arrays(samples[0]), pub), "sample")

    previous, previous_pub = result, pub
    for j, template in enumerate(inp.deltas):
        outcome.attempted += 1
        delta = instantiate_delta(api, template, max(previous.graph.vertices()) + 1)
        op(f"republish-{r}.{j}")
        try:
            release, seconds = clock.time(api.republish, previous, delta, method=cfg.method)
        except Exception as exc:  # noqa: BLE001
            outcome.fail(f"republish raised {exc!r}", check=False)
            outcome.attempted += cfg.chain - j - 1
            outcome.failed += cfg.chain - j - 1
            return
        finally:
            op(None)
        times["republish"].append(seconds)
        release_pub = _as_publication(release.graph, release.partition, release.original_n)
        outcome.verdict(checks.check_release(
            previous_pub, release_pub, cfg.k, np.array(delta.add_vertices, dtype=np.int64),
            checks.normalize_edges(delta.add_edges)), f"release {j + 1}")
        previous, previous_pub = release, release_pub


def _warm_up(api, cfg: PipelineConfig, inp: PipelineInput) -> None:
    """Run each operation once on the input's prefix, so lazy imports and
    first-call set-up stay out of the timed operations."""
    small = [(u, v) for u, v in inp.edges if u < WARM_UP_N and v < WARM_UP_N]
    result, texts = publish(api, api.Graph.from_edges(small, vertices=range(WARM_UP_N)), cfg)
    pub = checks.parse_publication(texts[0], texts[1], WARM_UP_N)
    api.backbone(*_fresh(api, pub))
    api.sample_many(*_fresh(api, pub), WARM_UP_N, 1, strategy="approximate", rng=0, jobs=1)
    api.republish(result, api.GraphDelta([max(result.graph.vertices()) + 1], [(0, max(result.graph.vertices()) + 1)]),
                  method=cfg.method)


def _set_up(api, cfg: PipelineConfig, seed: int) -> PipelineInput:
    inp = make_input(api, cfg, seed)
    _warm_up(api, cfg, inp)
    return inp


def run(cfg: PipelineConfig, seed: int, seconds: float, tracer: Tracer | None = None) -> Outcome:
    api = _api()
    if tracer is not None:
        install(tracer, api)
    try:
        return _run(api, cfg, seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()


def _run(api, cfg, seed, seconds, tracer) -> Outcome:
    outcome = Outcome()
    setup, setup_clock, clock = [], Clock(), Clock()
    for rep in range(cfg.setup_reps):
        if tracer is not None:
            tracer.op = f"setup-{rep}"
        inp, took = setup_clock.time(_set_up, api, cfg, seed)
        setup.append(took)
        if tracer is not None:
            tracer.scale[tracer.op] = setup_clock.speeds[-1]
    if tracer is not None:
        tracer.op = None
    ref = _Reference(cfg, inp)

    times: dict[str, list[float]] = {"publish": [], "backbone": [], "sample": [], "republish": []}
    deadline = now() + seconds
    rounds = 0
    while rounds == 0 or now() < deadline:
        _round(api, cfg, inp, ref, seed, rounds, outcome, times, tracer, clock)
        rounds += 1
    every = [t for values in times.values() for t in values]
    outcome.metrics = {
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "publish_s": median(times["publish"]),
        "backbone_s": median(times["backbone"]),
        "sample_s": median(times["sample"]),
        "republish_s": median(times["republish"]),
        "throughput_rps": len(every) / sum(every) if every else 0.0,
        "latency_p50_ms": 1000.0 * median(every),
        "latency_p95_ms": 1000.0 * percentile(every, 95),
    }
    outcome.facts = {"rounds": rounds, "n": cfg.n, "operations": len(every),
                     "input_backbone": ref.backbone, "machine_speed": median(clock.speeds),
                     "unscaled_median_s": median(clock.raw)}
    return outcome


# -- tracing -------------------------------------------------------------------

def install(tracer: Tracer, api) -> None:
    """Wrap the public functions of each layer the pipeline goes through."""
    # import_module, not "import ... as": repro.core re-exports functions
    # named like these modules, which shadow them as package attributes
    anonymize_mod = importlib.import_module("repro.core.anonymize")
    republish_mod = importlib.import_module("repro.core.republish")
    sampling_mod = importlib.import_module("repro.core.sampling")

    def partition_attrs(result, *args, **kwargs):
        return {"cells": len(result.orbits), "search_nodes": result.stats.nodes,
                "generators": len(result.generators)}

    def publication_bytes(result, graph, partition, original_n, buffers, *rest, **kwargs):
        return {"bytes": sum(len(text.encode("utf-8")) for text in buffers.texts())}

    def quota_draws(quota, *args, **kwargs):
        return {"draws": sum(quota) - len(quota)}

    tracer.wrap(api, "generate", "graphs.generate")
    tracer.wrap(api, "anonymize", "core.anonymize", rss=True,
                attrs=lambda result, *a, **k: {"vertices_added": result.vertices_added})
    tracer.wrap(anonymize_mod, "automorphism_partition", "isomorphism.partition",
                attrs=partition_attrs)
    tracer.wrap(api, "save_publication_triple", "core.publication.serialize",
                attrs=publication_bytes)
    tracer.wrap(api, "backbone", "core.backbone",
                attrs=lambda result, *a, **k: {"removed": result.n_removed})
    tracer.wrap(api, "sample_many", "core.sampling")
    tracer.wrap(sampling_mod, "allocate_quota", "core.sampling.quota", attrs=quota_draws)
    tracer.wrap(sampling_mod, "dfs_select_arrays", "core.sampling.dfs")
    tracer.wrap(api, "republish", "core.republish",
                attrs=lambda result, *a, **k: {"vertices_added": result.vertices_added})
    tracer.wrap(republish_mod, "frontier_orbits", "isomorphism.incremental")
    tracer.wrap(republish_mod, "incremental_stable_partition", "isomorphism.incremental")


def layer_metrics(spans: list[dict], scale: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics: medians over operations of the layer's share.

    Times are scaled by their operation's speed factor, like the
    end-to-end times they explain; counts are not.
    """
    own = self_times(spans)

    def per_op(name, kind, value, timed=True):
        grouped = by_op(spans, name)
        return median(sum(value(s) for s in group) * (scale.get(op, 1.0) if timed else 1.0)
                      for op, group in grouped.items() if op.startswith(kind + "-"))

    def count(name, kind, key):
        return per_op(name, kind, lambda span: span.get(key, 0), timed=False)

    def self_time(span):
        return own[span["id"]]

    return {
        "graphs.generate_s": per_op("graphs.generate", "setup", duration),
        "isomorphism.partition_s": per_op("isomorphism.partition", "publish", duration),
        "isomorphism.cells": count("isomorphism.partition", "publish", "cells"),
        "isomorphism.search_nodes": count("isomorphism.partition", "publish", "search_nodes"),
        "isomorphism.generators": count("isomorphism.partition", "publish", "generators"),
        "isomorphism.incremental_s": per_op("isomorphism.incremental", "republish", duration),
        "core.anonymize.self_s": per_op("core.anonymize", "publish", self_time),
        "core.anonymize.vertices_added": count("core.anonymize", "publish", "vertices_added"),
        # the largest growth, not the median: later publishes reuse the heap
        # the first one grew, so their deltas read 0
        "core.anonymize.rss_delta_mb": max(
            (s.get("rss_delta_mb", 0.0) for s in spans
             if s["name"] == "core.anonymize" and (s["op"] or "").startswith("publish-")),
            default=0.0),
        "core.publication.serialize_s": per_op("core.publication.serialize", "publish", duration),
        "core.publication.bytes": count("core.publication.serialize", "publish", "bytes"),
        "core.backbone.self_s": per_op("core.backbone", "backbone", self_time),
        "core.backbone.removed": count("core.backbone", "backbone", "removed"),
        "core.sampling.quota_s": per_op("core.sampling.quota", "sample", duration),
        "core.sampling.quota_draws": count("core.sampling.quota", "sample", "draws"),
        "core.sampling.dfs_s": per_op("core.sampling.dfs", "sample", duration),
        "core.republish.self_s": per_op("core.republish", "republish", self_time),
        "core.republish.vertices_added": count("core.republish", "republish", "vertices_added"),
    }
