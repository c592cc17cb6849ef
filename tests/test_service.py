"""End-to-end tests of ksymmetryd: round-trips, reproducibility, lifecycle.

The daemon runs in-process on a background thread (its own event loop, an
ephemeral port) so tests can reach both the HTTP surface and the scheduler's
deterministic pause/resume gate; the SIGTERM drain test boots a real
``python -m repro.service`` subprocess instead.
"""

import asyncio
import io
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.core.publication import PublicationBuffers, load_publication
from repro.datasets.paper_graphs import figure3_graph
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.io import read_edge_list
from repro.service import (
    KSymmetryDaemon,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    publication_from_lines,
)
from repro.service.canon import canonicalize
from repro.service.handlers import _compute_sample, build_sample_lines


def edges_text(graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in graph.sorted_edges())


FIG3 = edges_text(figure3_graph())
#: same graph, different vertex ids — isomorphic, so it shares cache entries
FIG3_RELABELED = edges_text(
    figure3_graph().relabeled({v: 3 * v + 100 for v in figure3_graph().vertices()}))
PATH4 = "0 1\n1 2\n2 3\n"


def tree_text(seed: int) -> str:
    """A 24-vertex preferential-attachment tree."""
    return edges_text(barabasi_albert_graph(24, 1, rng=random.Random(seed)))


class DaemonHarness:
    """In-process daemon on a thread-owned event loop (ephemeral port)."""

    def __init__(self, **overrides) -> None:
        overrides.setdefault("port", 0)
        self.config = ServiceConfig(**overrides)
        self.daemon: KSymmetryDaemon | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()), daemon=True)

    async def _amain(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.daemon = KSymmetryDaemon(self.config)
        await self.daemon.start()
        self._ready.set()
        await self.daemon.wait_terminated()

    def __enter__(self) -> "DaemonHarness":
        self._thread.start()
        assert self._ready.wait(15), "daemon failed to start"
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def port(self) -> int:
        assert self.daemon is not None
        return self.daemon.bound_port

    def client(self, timeout: float = 30.0) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, timeout=timeout)

    def pause(self) -> None:
        assert self.loop is not None and self.daemon is not None
        self.loop.call_soon_threadsafe(self.daemon.scheduler.pause)

    def resume(self) -> None:
        assert self.loop is not None and self.daemon is not None
        self.loop.call_soon_threadsafe(self.daemon.scheduler.resume)

    def stop(self) -> None:
        if self.daemon is None or self.loop is None:
            return
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.daemon.shutdown(), self.loop)
            future.result(timeout=30)
        self._thread.join(timeout=15)
        assert not self._thread.is_alive(), "daemon thread failed to terminate"


@pytest.fixture(scope="module")
def daemon():
    with DaemonHarness() as harness:
        yield harness


class TestRoundTrips:
    def test_healthz(self, daemon):
        with daemon.client() as client:
            assert client.healthz() == {"queued": 0, "status": "ok"}

    def test_publish_roundtrip(self, daemon):
        with daemon.client() as client:
            lines = client.publish(FIG3, k=2)
        events = [line["event"] for line in lines]
        assert events[0] == "meta"
        assert events[1] == "partition"
        assert events[-1] == "end"
        assert all(e == "edges" for e in events[2:-1])
        assert lines[-1]["lines"] == len(lines)
        edges, partition, meta = publication_from_lines(lines)
        graph, cells, original_n = load_publication(
            PublicationBuffers.from_texts(edges, partition, meta))
        original = figure3_graph()
        assert original_n == original.n
        assert cells.min_cell_size() >= 2
        assert set(original.edges()) <= set(graph.edges())
        assert json.loads(meta)["k"] == 2

    def test_sample_roundtrip(self, daemon):
        with daemon.client() as client:
            lines = client.sample(FIG3, k=2, count=2, seed=11)
        assert lines[0]["event"] == "meta"
        assert lines[0]["count"] == 2
        samples = [line for line in lines if line["event"] == "sample"]
        assert [s["index"] for s in samples] == [0, 1]
        assert all(s["text"].strip() for s in samples)
        assert lines[-1] == {"event": "end", "lines": len(lines)}

    def test_exact_sample_roundtrip(self, daemon):
        with daemon.client() as client:
            lines = client.sample(tree_text(5), k=2, count=1, strategy="exact", seed=5)
        samples = [line for line in lines if line["event"] == "sample"]
        assert len(samples) == 1 and samples[0]["text"].strip()
        assert lines[-1] == {"event": "end", "lines": len(lines)}

    def test_audit_roundtrip(self, daemon):
        with daemon.client() as client:
            outcome = client.attack_audit(FIG3, target=1, measure="degree")
        assert 1 in outcome["candidates"]
        assert outcome["candidate_count"] == len(outcome["candidates"])
        assert outcome["success_probability"] == pytest.approx(
            1.0 / len(outcome["candidates"]))
        assert outcome["measure"] == "degree"

    def test_kl_sweep_audit_roundtrip(self, daemon):
        from repro.attacks.adjacency import kl_anonymity_report
        from repro.graphs.generators import path_graph
        with daemon.client() as client:
            outcome = client.attack_audit(PATH4, model="multiset", ell=1)
        # anonymity/n_subsets are label-invariant, so the canonical-space
        # artifact must agree with a direct run on the request graph
        expected = kl_anonymity_report(path_graph(4), 1, kind="multiset")
        assert outcome["model"] == "multiset"
        assert outcome["anonymity"] == expected.anonymity
        assert outcome["n_subsets"] == expected.n_subsets
        assert outcome["vacuous"] is False
        assert len(outcome["attackers"]) == 1

    def test_kl_targeted_audit_roundtrip(self, daemon):
        with daemon.client() as client:
            outcome = client.attack_audit(PATH4, target=3, model="adjacency",
                                          attackers=[0])
        assert outcome["model"] == "adjacency"
        assert outcome["target"] == 3
        assert outcome["attackers"] == [0]
        # candidates come back in the requester's vertex ids, sorted
        assert outcome["candidates"] == sorted(outcome["candidates"])
        assert set(outcome["candidates"]) <= {0, 1, 2, 3}
        assert outcome["located_candidates"] == sorted(
            outcome["located_candidates"])
        assert outcome["candidate_count"] == len(outcome["candidates"])

    def test_sybil_audit_roundtrip(self, daemon):
        with daemon.client() as client:
            outcome = client.attack_audit(FIG3, model="sybil", targets=[1, 4],
                                          k=2, seed=7)
        assert outcome["model"] == "sybil"
        assert outcome["k"] == 2
        assert outcome["sybils"] >= 2
        assert {r["target"] for r in outcome["reports"]} == {1, 4}
        for report in outcome["reports"]:
            assert report["candidates"] == sorted(report["candidates"])
            # the k-symmetry publisher must not expose a target below k
            assert not (report["exposed"] and report["anonymity"] < 2)

    def test_sybil_audit_is_tenant_reproducible(self, daemon):
        with daemon.client() as client:
            first = client.attack_audit(FIG3, model="sybil", targets=[1],
                                        tenant="t-a", seed=3)
            again = client.attack_audit(FIG3, model="sybil", targets=[1],
                                        tenant="t-a", seed=3)
            other = client.attack_audit(FIG3, model="sybil", targets=[1],
                                        tenant="t-b", seed=3)
        assert first == again
        assert other["model"] == "sybil"  # independent stream, same contract

    def test_async_submission_polls_to_the_sync_body(self, daemon):
        with daemon.client() as client:
            sync_lines = client.publish(PATH4, k=2, tenant="poller")
            accepted = client.publish(PATH4, k=2, tenant="poller",
                                      run_async=True)
            assert accepted["poll"] == f"/v1/jobs/{accepted['job']}"
            descriptor = client.wait_for_job(accepted["job"])
        assert descriptor["state"] == "done"
        assert descriptor["result"] == sync_lines

    def test_metrics_shape(self, daemon):
        with daemon.client() as client:
            metrics = client.metrics()
        assert set(metrics) == {
            "cache", "cache_warmed", "endpoints", "jobs",
            "peak_rss_bytes", "scheduler",
        }
        assert metrics["scheduler"]["completed"] >= 1
        assert metrics["cache"]["puts"] >= 1
        assert metrics["peak_rss_bytes"] >= 0

    def test_response_bodies_never_embed_job_ids(self, daemon):
        """Job ids travel in X-Job-Id only; bodies stay request-pure."""
        with daemon.client() as client:
            status, headers, body = client.request_raw(
                "POST", "/v1/publish", {"edges": PATH4, "k": 2})
        assert status == 200
        assert headers["x-job-id"].startswith("job-")
        assert b"job-" not in body


class TestExactSampleRendering:
    """Exact samples mint copy ids above their backbone, not published ids."""

    @pytest.mark.parametrize("seed", [1, 5, 7, 11])
    def test_minted_ids_render(self, seed):
        graph = barabasi_albert_graph(24, 1, rng=random.Random(seed))
        ci = canonicalize(graph)
        artifact = _compute_sample({
            "edges": [list(e) for e in ci.edges], "n": ci.n, "k": 2,
            "method": "exact", "copy_unit": "orbit", "count": 1,
            "strategy": "exact", "seed": 5,
        })["sample"]
        drawn = artifact["samples"][0]
        assert set(drawn["vertices"]) - set(artifact["published_vertex_ids"])
        lines = build_sample_lines(ci, artifact)
        [rendered] = [line for line in lines if line["event"] == "sample"]
        sample = read_edge_list(io.StringIO(rendered["text"]))
        assert sample.m == len(drawn["edges"])


class TestValidation:
    def test_unknown_endpoint_404(self, daemon):
        with daemon.client() as client:
            status, _, _ = client.request_raw("GET", "/v1/nope")
        assert status == 404

    def test_get_on_post_endpoint_405(self, daemon):
        with daemon.client() as client:
            status, _, _ = client.request_raw("GET", "/v1/publish")
        assert status == 405

    def test_missing_edges_400(self, daemon):
        with daemon.client() as client, pytest.raises(ServiceError) as info:
            client._json("POST", "/v1/publish", {"k": 2})
        assert info.value.status == 400
        assert "edges" in info.value.message

    def test_bad_k_400(self, daemon):
        with daemon.client() as client, pytest.raises(ServiceError) as info:
            client.publish(PATH4, k=0)
        assert info.value.status == 400

    def test_audit_target_not_in_graph_400(self, daemon):
        with daemon.client() as client, pytest.raises(ServiceError) as info:
            client.attack_audit(PATH4, target=99)
        assert info.value.status == 400
        assert "99" in info.value.message

    def test_non_object_body_400(self, daemon):
        with daemon.client() as client:
            status, _, _ = client.request_raw("POST", "/v1/sample", {})
        assert status == 400

    def test_unknown_job_404(self, daemon):
        with daemon.client() as client, pytest.raises(ServiceError) as info:
            client.job("job-99999999")
        assert info.value.status == 404


class TestIsomorphicCaching:
    def test_relabeled_resubmission_hits_and_relabels(self):
        """Tenant B's isomorphic graph reuses A's artifact, keeps B's ids."""
        with DaemonHarness() as harness, harness.client() as client:
            client.publish(FIG3, k=2, tenant="alice")
            before = client.metrics()["cache"]
            lines = client.publish(FIG3_RELABELED, k=2, tenant="bob")
            after = client.metrics()["cache"]
            assert after["hits"] == before["hits"] + 1
            assert after["puts"] == before["puts"]
            edges, partition, meta = publication_from_lines(lines)
            graph, _, original_n = load_publication(
                PublicationBuffers.from_texts(edges, partition, meta))
            bob_ids = {3 * v + 100 for v in figure3_graph().vertices()}
            assert bob_ids <= set(graph.vertices())
            assert original_n == len(bob_ids)

    def test_parameter_change_misses(self):
        with DaemonHarness() as harness, harness.client() as client:
            client.publish(FIG3, k=2)
            before = client.metrics()["cache"]
            client.publish(FIG3, k=3)
            after = client.metrics()["cache"]
            assert after["misses"] == before["misses"] + 1
            assert after["puts"] == before["puts"] + 1


class TestRestartWarmCache:
    def test_artifacts_survive_restart_warm(self, tmp_path):
        """Shutdown spills the memory tier; the next boot warms up from it,
        so a repeat request after restart is a memory hit, not a recompute."""
        spill = str(tmp_path / "spill")
        with DaemonHarness(cache_spill_dir=spill) as harness, \
                harness.client() as client:
            first = client.publish(FIG3, k=2)
            assert client.metrics()["cache"]["puts"] >= 1
        # shutdown ran: the artifact now lives on disk
        assert os.listdir(spill)

        with DaemonHarness(cache_spill_dir=spill) as harness, \
                harness.client() as client:
            metrics = client.metrics()
            assert metrics["cache_warmed"] >= 1
            assert metrics["cache"]["entries"] >= 1
            before = metrics["cache"]
            again = client.publish(FIG3, k=2)
            after = client.metrics()["cache"]
            assert after["hits"] == before["hits"] + 1
            assert after["puts"] == before["puts"]  # no recompute
        assert publication_from_lines(first) == publication_from_lines(again)


class TestRepublishEndpoint:
    """Sequential releases over HTTP: /v1/republish."""

    DELTA = {"add_vertices": [1000], "add_edges": [[1000, 1]]}

    def _triple(self, lines):
        edges, partition, meta = publication_from_lines(lines)
        graph, cells, original_n = load_publication(
            PublicationBuffers.from_texts(edges, partition, meta))
        return graph, cells, original_n, json.loads(meta)

    def test_republish_composes_with_publish(self, daemon):
        """Release 1 extends release 0 under the same vertex ids — the
        property the composition adversary would otherwise exploit."""
        with daemon.client() as client:
            release0 = client.publish(FIG3, k=2)
            release1 = client.republish(
                FIG3, add_vertices=[1000], add_edges=[[1000, 1]], k=2)
        g0, cells0, n0, _ = self._triple(release0)
        g1, cells1, n1, meta = self._triple(release1)
        assert n1 == n0 + 1
        assert g0.is_subgraph_of(g1)
        assert 1000 in set(g1.vertices())
        for cell in cells0.cells:  # previous cells stay whole (monotone)
            index = cells1.index_of(cell[0])
            assert all(cells1.index_of(v) == index for v in cell)
        assert cells1.min_cell_size() >= 2
        assert meta["engine"] == "incremental"
        assert meta["delta_vertices"] == 1
        assert meta["vertices_added"] >= 0 and meta["closure_edges"] >= 0

    def test_repeat_request_hits_cache_byte_identically(self):
        payload = {"edges": FIG3, "k": 2, "delta": self.DELTA}
        with DaemonHarness() as harness, harness.client() as client:
            status, _, first = client.request_raw(
                "POST", "/v1/republish", payload)
            assert status == 200
            before = client.metrics()["cache"]
            status, _, second = client.request_raw(
                "POST", "/v1/republish", payload)
            after = client.metrics()["cache"]
        assert status == 200
        assert second == first
        assert after["hits"] == before["hits"] + 1
        assert after["puts"] == before["puts"]

    def test_isomorphic_republish_shares_cache_keeps_ids(self):
        """A relabeled tenant submitting the 'same' growth step reuses the
        canonical artifact (the delta is encoded label-freely) but reads
        the response in its own vertex ids."""
        with DaemonHarness() as harness, harness.client() as client:
            client.republish(FIG3, add_vertices=[1000],
                             add_edges=[[1000, 1]], k=2, tenant="alice")
            before = client.metrics()["cache"]
            lines = client.republish(
                FIG3_RELABELED, add_vertices=[2000],
                add_edges=[[2000, 103]], k=2, tenant="bob")
            after = client.metrics()["cache"]
        assert after["hits"] == before["hits"] + 1
        assert after["puts"] == before["puts"]
        graph, _, _, _ = self._triple(lines)
        assert 2000 in set(graph.vertices())
        assert {3 * v + 100 for v in figure3_graph().vertices()} \
            <= set(graph.vertices())

    def test_engines_agree_modulo_recorded_engine(self, daemon):
        with daemon.client() as client:
            ours = client.republish(FIG3, add_vertices=[1000],
                                    add_edges=[[1000, 1]], k=2,
                                    engine="incremental")
            oracle = client.republish(FIG3, add_vertices=[1000],
                                      add_edges=[[1000, 1]], k=2,
                                      engine="full")
        edges_a, partition_a, meta_a = publication_from_lines(ours)
        edges_b, partition_b, meta_b = publication_from_lines(oracle)
        assert edges_a == edges_b
        assert partition_a == partition_b
        recorded_a, recorded_b = json.loads(meta_a), json.loads(meta_b)
        assert recorded_a.pop("engine") == "incremental"
        assert recorded_b.pop("engine") == "full"
        assert recorded_a == recorded_b

    def test_async_republish_matches_sync(self, daemon):
        with daemon.client() as client:
            sync_lines = client.republish(
                PATH4, add_vertices=[99], add_edges=[[99, 0]], k=2,
                tenant="poller")
            accepted = client.republish(
                PATH4, add_vertices=[99], add_edges=[[99, 0]], k=2,
                tenant="poller", run_async=True)
            descriptor = client.wait_for_job(accepted["job"])
        assert descriptor["state"] == "done"
        assert descriptor["result"] == sync_lines

    def test_existing_vertex_in_delta_400(self, daemon):
        with daemon.client() as client, pytest.raises(ServiceError) as info:
            client.republish(FIG3, add_vertices=[1], k=2)
        assert info.value.status == 400
        assert "bad delta" in info.value.message

    def test_old_old_edge_400(self, daemon):
        with daemon.client() as client, pytest.raises(ServiceError) as info:
            client.republish(FIG3, add_vertices=[1000],
                             add_edges=[[1, 2]], k=2)
        assert info.value.status == 400
        assert "bad delta" in info.value.message

    def test_missing_or_empty_delta_400(self, daemon):
        with daemon.client() as client:
            for payload in ({"edges": FIG3, "k": 2},
                            {"edges": FIG3, "k": 2,
                             "delta": {"add_vertices": []}},
                            {"edges": FIG3, "k": 2,
                             "delta": {"add_vertices": [9],
                                       "add_edges": [[9]]}}):
                status, _, body = client.request_raw(
                    "POST", "/v1/republish", payload)
                assert status == 400, body

    def test_unknown_engine_400(self, daemon):
        with daemon.client() as client, pytest.raises(ServiceError) as info:
            client.republish(FIG3, add_vertices=[1000], k=2, engine="psychic")
        assert info.value.status == 400
        assert "engine" in info.value.message


def request_matrix() -> list[tuple[str, dict]]:
    """The invariance workload: every endpoint x tenant x graph."""
    requests: list[tuple[str, dict]] = []
    for graph_text, target in ((FIG3, 1), (FIG3_RELABELED, 103), (PATH4, 0)):
        for tenant in ("t-alpha", "t-beta"):
            requests.append(("/v1/publish", {
                "edges": graph_text, "k": 2, "tenant": tenant}))
            requests.append(("/v1/sample", {
                "edges": graph_text, "k": 2, "count": 2, "seed": 5,
                "strategy": "approximate", "tenant": tenant}))
            requests.append(("/v1/attack-audit", {
                "edges": graph_text, "target": target, "seed": 5,
                "tenant": tenant}))
            requests.append(("/v1/republish", {
                "edges": graph_text, "k": 2, "tenant": tenant,
                "delta": {"add_vertices": [5000],
                          "add_edges": [[5000, target]]}}))
    return requests


def collect_serial(harness: DaemonHarness,
                   requests: list[tuple[str, dict]]) -> list[bytes]:
    bodies: list[bytes] = []
    with harness.client() as client:
        for path, payload in requests:
            status, _, body = client.request_raw("POST", path, payload)
            assert status == 200, body
            bodies.append(body)
    return bodies


class TestConcurrencyInvariance:
    """The acceptance property: per-tenant bodies are byte-identical
    whatever the concurrency level, arrival order, worker count, or cache
    temperature."""

    def test_bodies_invariant_across_order_cache_and_workers(self):
        requests = request_matrix()
        with DaemonHarness() as harness:
            cold = collect_serial(harness, requests)
            warm = collect_serial(harness, requests)  # now fully cached
        assert warm == cold

        with DaemonHarness(jobs=2, max_batch=8) as harness:
            port = harness.port
            order = list(range(len(requests))) * 2  # duplicates warm the cache
            random.Random(7).shuffle(order)
            results: dict[int, bytes] = {}
            errors: list[BaseException] = []
            lock = threading.Lock()

            def worker(indices: list[int]) -> None:
                try:
                    with ServiceClient("127.0.0.1", port, timeout=60) as client:
                        for i in indices:
                            path, payload = requests[i]
                            status, _, body = client.request_raw(
                                "POST", path, payload)
                            assert status == 200, body
                            with lock:
                                assert results.setdefault(i, body) == body
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(order[w::4],))
                       for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors
        assert [results[i] for i in range(len(requests))] == cold


class TestBackpressure:
    def test_queue_full_gets_429_with_retry_after(self):
        with DaemonHarness(max_queue=1) as harness:
            harness.pause()
            with harness.client() as client:
                first = client.publish(PATH4, k=2, run_async=True)
                # the consumer holds the first job at the gate; wait for it
                # to leave the queue so the next submission occupies the
                # single slot deterministically
                for _ in range(200):
                    if client.healthz()["queued"] == 0:
                        break
                    time.sleep(0.01)
                else:
                    pytest.fail("consumer never picked up the gated job")
                second = client.publish(FIG3, k=2, run_async=True)
                with pytest.raises(ServiceError) as info:
                    client.publish(FIG3, k=3, run_async=True)
                assert info.value.status == 429
                assert info.value.headers["retry-after"] == "1"
                harness.resume()
                assert client.wait_for_job(first["job"])["state"] == "done"
                assert client.wait_for_job(second["job"])["state"] == "done"
                assert client.metrics()["scheduler"]["rejected"] == 1

    def test_sync_timeout_is_504_and_job_stays_pollable(self):
        with DaemonHarness(request_timeout=0.3) as harness:
            harness.pause()
            with harness.client() as client:
                with pytest.raises(ServiceError) as info:
                    client.publish(PATH4, k=2)
                assert info.value.status == 504
                job_id = info.value.headers["x-job-id"]
                harness.resume()
                descriptor = client.wait_for_job(job_id)
                assert descriptor["state"] == "done"
                assert descriptor["result"][0]["event"] == "meta"


class TestBackpressureRetryAfter:
    def test_retry_after_scales_with_queue_depth(self):
        from repro.service.daemon import RETRY_AFTER_SECONDS, retry_after_seconds

        # shallow queues keep the historical floor
        assert retry_after_seconds(0, 16) == RETRY_AFTER_SECONDS
        assert retry_after_seconds(1, 16) == RETRY_AFTER_SECONDS
        assert retry_after_seconds(16, 16) == RETRY_AFTER_SECONDS
        # deeper queues advise one second per outstanding batch (ceiling)
        assert retry_after_seconds(17, 16) == 2
        assert retry_after_seconds(64, 16) == 4
        assert retry_after_seconds(65, 16) == 5
        # degenerate batch size must not divide by zero
        assert retry_after_seconds(5, 0) == 5


class TestDrain:
    def test_drain_grace_expiry_counts_abandoned_requests(self):
        """A request still in flight when the grace period expires is
        counted (and logged) instead of silently swallowed."""

        async def scenario() -> KSymmetryDaemon:
            daemon = KSymmetryDaemon(ServiceConfig(port=0, drain_grace=0.05))
            daemon._request_started()  # a response that never finishes
            await daemon.shutdown()
            return daemon

        daemon = asyncio.run(scenario())
        assert daemon.abandoned_requests == 1

    def test_clean_drain_reports_zero_abandoned(self):
        async def scenario() -> KSymmetryDaemon:
            daemon = KSymmetryDaemon(ServiceConfig(port=0, drain_grace=0.05))
            await daemon.shutdown()
            return daemon

        daemon = asyncio.run(scenario())
        assert daemon.abandoned_requests == 0


    def test_draining_daemon_rejects_new_posts_with_503(self):
        with DaemonHarness() as harness:
            with harness.client() as client:
                client.publish(PATH4, k=2)
                # flip the drain flag without closing the listener so the
                # rejection path itself is observable from outside
                assert harness.loop is not None and harness.daemon is not None
                done = threading.Event()

                def mark_draining() -> None:
                    harness.daemon._draining = True
                    done.set()

                harness.loop.call_soon_threadsafe(mark_draining)
                assert done.wait(10)
                with pytest.raises(ServiceError) as info:
                    client.publish(PATH4, k=2)
                assert info.value.status == 503
                harness.daemon._draining = False  # let the fixture drain

    def test_sigterm_drains_subprocess_cleanly(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, cwd=str(tmp_path), text=True)
        try:
            banner = proc.stdout.readline()
            assert "ksymmetryd listening on" in banner, banner
            port = int(banner.rsplit(":", 1)[1])
            with ServiceClient("127.0.0.1", port, timeout=60) as client:
                lines = client.publish(FIG3, k=2)
                assert lines[-1]["event"] == "end"
                assert client.healthz()["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, (out, err)
        assert "ksymmetryd drained cleanly" in out
