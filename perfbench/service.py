"""ksymmetryd under two tenants, driven over HTTP from one process.

* **service-shared** - the daemon at jobs=1. Two closed-loop tenants send,
  in every round, the same four requests for each of their relabeled copies
  of a few base graphs: publish, an approximate sample, a degree
  attack-audit and a republish. From the second round on every artifact is
  a cache hit, so a request costs parse, canonicalization (the cache key),
  cache probe and render; the process pool is never started.
* **service-fresh** - the daemon at jobs=2. Every request carries a graph
  no other request has, so every artifact is a miss. Each tenant writes
  ``max_batch`` async requests in one pipelined burst and then polls their
  jobs until all are done, so the scheduler takes full batches and runs the
  process pool on each. A tenant generates each burst's graphs just before
  sending it (outside its requests' latencies), so the load lasts the run
  length however fast the daemon answers.

The daemon runs in its own process (``perfbench/daemon.py``), so the load
generator does not share its interpreter lock. A request's latency runs
from writing it until its whole response body, or its finished async job,
has been read.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
from common import (
    HERE,
    Clock,
    OUT_DIR,
    ROOT,
    Outcome,
    SetupError,
    SpeedProbe,
    median,
    now,
    percentile,
    pinned_to,
    process_peak_rss_mb,
    program_src,
)
from tracer import Tracer, duration

KINDS = ("publish", "sample", "audit", "republish")
PATHS = {"publish": "/v1/publish", "sample": "/v1/sample", "audit": "/v1/attack-audit",
         "republish": "/v1/republish"}
#: end-to-end metric fed by each request kind's latency (see kind_seconds)
KIND_METRIC = {"publish": "publish_s", "sample": "sample_s", "republish": "republish_s"}
#: vertices each republish request adds; their ids start at 4n, clear of
#: every copy id a k=2 publication of an n-vertex input can mint
DELTA_VERTICES = 3
#: backbone recoveries timed per publication (shared, fresh), and on at
#: most how many publications
BACKBONE_REPS = (3, 1)
BACKBONE_PUBLICATIONS = 40
#: The shared base graphs are the same trees for every --seed, which draws
#: their relabelings, audit targets, deltas and sample seeds: a request's
#: cost depends on the tree's automorphism structure, and a few random
#: trees per run would make the figures a property of the seed.
BASE_SEED = 2010
#: Relabelings of each base tree a shared tenant sends, all with the same
#: audit target and delta, so all hit one cache entry. Canonicalizing a tree
#: costs more on some labelings than on others (the slowest tree's requests,
#: which hold the 95th percentile, took 11 to 17 ms across seeds), so one
#: labeling per tenant would make the tail a property of the seed.
RELABELINGS = 6
#: pause between two polling sweeps over a tenant's unfinished async jobs
POLL_SECONDS = 0.005
START_TIMEOUT = 90.0
STOP_TIMEOUT = 60.0

LAYER_NAMES = [
    "service.parse_s", "service.canonicalize_s", "service.artifact_s",
    "service.artifact.publish_s", "service.artifact.sample_s",
    "service.artifact.republish_s", "service.artifact.audit_s", "service.render_s",
    "service.cache.hits", "service.cache.misses", "service.cache.hit_ratio",
    "service.batches", "service.batch_size_mean",
    "runtime.map_s", "runtime.map_calls", "runtime.pool_starts",
]


@dataclass(frozen=True)
class ServiceConfig:
    jobs: int
    #: sizes of the shared base graphs (preferential-attachment trees)
    base_sizes: tuple[int, ...] = ()
    #: size of every distinct graph of the fresh workload (0: shared workload)
    fresh_n: int = 0
    max_batch: int = 16
    tenants: int = 2
    setup_reps: int = 3
    k: int = 2

    @property
    def fresh(self) -> bool:
        return self.fresh_n > 0


WORKLOADS = {
    "service-shared": ServiceConfig(jobs=1, base_sizes=(60, 80, 100, 120, 140, 160)),
    "service-fresh": ServiceConfig(jobs=2, fresh_n=60),
}

SMALL = {
    "service-shared": replace(WORKLOADS["service-shared"], base_sizes=(30, 40), setup_reps=1),
    "service-fresh": replace(WORKLOADS["service-fresh"], fresh_n=24, max_batch=6,
                             setup_reps=1),
}


# -- inputs ----------------------------------------------------------------------

@dataclass
class Case:
    """One graph as one tenant sends it, in that tenant's vertex ids."""

    tenant: str
    key: str
    vertices: np.ndarray
    edges: np.ndarray
    text: str
    target: int
    delta_vertices: list[int]
    delta_edges: list[list[int]]
    bodies: dict[str, bytes] = field(default_factory=dict)


def make_case(generate, n: int, graph_seed: int, draw_seed: int, tenant: str, key: str,
              relabeling: int = 0) -> Case:
    """A relabeled preferential-attachment tree with its audit target and
    growth delta. The tree comes from *graph_seed*; the target and the delta
    are drawn on it from *draw_seed*, and the relabeling from *draw_seed*,
    the tenant and *relabeling*, so every relabeling any tenant sends of the
    same base makes isomorphic requests."""
    base_edges = sorted(generate(n, 1, rng=random.Random(graph_seed)).edges())
    base_rand = random.Random(draw_seed)
    perm = list(range(n))
    random.Random(f"{draw_seed}/{tenant}/{relabeling}").shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in base_edges]
    target = perm[base_rand.randrange(n)]
    new = [4 * n + rank for rank in range(DELTA_VERTICES)]
    delta_edges = [[perm[base_rand.randrange(n)], new[0]]]
    for rank in range(1, len(new)):
        anchor = new[rank - 1] if base_rand.random() < 0.5 else perm[base_rand.randrange(n)]
        delta_edges.append([anchor, new[rank]])
    text = "".join(f"{u} {v}\n" for u, v in edges)
    return Case(tenant, key, np.arange(n, dtype=np.int64), checks.normalize_edges(edges),
                text, target, new, delta_edges)


def request_body(case: Case, kind: str, cfg: ServiceConfig, seed: int) -> bytes:
    payload: dict = {"edges": case.text, "tenant": case.tenant}
    if kind != "audit":
        payload["k"] = cfg.k
    if kind == "sample":
        payload.update(count=1, seed=seed, strategy="approximate")
    elif kind == "audit":
        payload.update(target=case.target, measure="degree")
    elif kind == "republish":
        payload["delta"] = {"add_vertices": case.delta_vertices, "add_edges": case.delta_edges}
    if cfg.fresh:
        payload["async"] = True
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def tenants(cfg: ServiceConfig) -> list[str]:
    return [f"tenant-{chr(ord('a') + i)}" for i in range(cfg.tenants)]


def fresh_burst(generate, cfg: ServiceConfig, seed: int, tenant: str, burst: int) -> list[Case]:
    """The cases of a fresh tenant's *burst*-th burst: ``max_batch`` distinct
    graphs, each drawn from its own seed, sent as publish, sample, audit and
    republish in turn."""
    t_index = tenants(cfg).index(tenant)
    cases = []
    for i in range(burst * cfg.max_batch, (burst + 1) * cfg.max_batch):
        graph_seed = seed * 1_000_003 + i * cfg.tenants + t_index
        case = make_case(generate, cfg.fresh_n, graph_seed, graph_seed, tenant, f"{tenant}/{i}")
        kind = KINDS[i % cfg.max_batch % len(KINDS)]
        case.bodies[kind] = request_body(case, kind, cfg, seed)
        cases.append(case)
    return cases


def make_inputs(generate, cfg: ServiceConfig, seed: int) -> dict[str, list[Case]]:
    """Per tenant, the cases it sends (shared: one per base; fresh: its first
    burst, to which the tenant adds the later ones as it goes)."""
    plan: dict[str, list[Case]] = {}
    for tenant in tenants(cfg):
        if cfg.fresh:
            cases = fresh_burst(generate, cfg, seed, tenant, 0)
        else:
            cases = [make_case(generate, n, BASE_SEED + b, seed * 1_000_003 + b, tenant,
                               f"{tenant}/base{b}/r{r}", r)
                     for b, n in enumerate(cfg.base_sizes) for r in range(RELABELINGS)]
            for case in cases:
                case.bodies = {kind: request_body(case, kind, cfg, seed) for kind in KINDS}
        plan[tenant] = cases
    return plan


# -- HTTP --------------------------------------------------------------------------

class Connection:
    """A keep-alive HTTP/1.1 connection that can pipeline requests."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=STOP_TIMEOUT * 3)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def send(self, requests: list[tuple[str, str, bytes]]) -> None:
        self.sock.sendall(b"".join(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            .encode("latin-1") + body for method, path, body in requests))

    def receive(self) -> tuple[int, bytes]:
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("daemon closed the connection")
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = self.reader.readline().decode("latin-1")
            if line in ("\r\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if "content-length" in headers:
            return status, self.reader.read(int(headers["content-length"]))
        chunks = []
        while True:
            size = int(self.reader.readline().strip(), 16)
            if size == 0:
                self.reader.readline()
                return status, b"".join(chunks)
            chunks.append(self.reader.read(size))
            self.reader.readline()

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        self.send([(method, path, body)])
        return self.receive()

    def get_json(self, path: str) -> dict:
        status, body = self.request("GET", path)
        if status != 200:
            raise SetupError(f"GET {path} answered {status}")
        return json.loads(body)


# -- the daemon process ------------------------------------------------------------

def daemon_core(cfg: ServiceConfig) -> int | None:
    """The core a serial daemon (jobs=1) is pinned to, with its speed probe.

    The machine's slow stretches differ between cores; pinned together,
    the probe measures the speed of the core that does the daemon's work,
    and the client runs on another. A daemon with a process pool is not
    pinned (its workers would inherit the pin), and its probe floats.
    """
    cores = sorted(os.sched_getaffinity(0))
    return cores[-1] if cfg.jobs == 1 and len(cores) > 1 else None


class Daemon:
    """ksymmetryd in a child process, started through ``perfbench/daemon.py``."""

    def __init__(self, cfg: ServiceConfig, spans_out: Path | None) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, str(HERE / "daemon.py")]
        if spans_out is not None:
            command += ["--spans-out", str(spans_out)]
        command += ["--", "--port", "0", "--jobs", str(cfg.jobs), "--max-batch", str(cfg.max_batch)]
        env = dict(os.environ, PYTHONPATH=str(program_src()))
        env.pop("REPRO_JOBS", None)
        self.log = open(OUT_DIR / "daemon.log", "ab")  # noqa: SIM115 - closed in stop()
        self.proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                     stderr=self.log, preexec_fn=pinned_to(daemon_core(cfg)))
        self.port = 0
        try:
            self.port = self._wait_listening()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self) -> int:
        deadline = now() + START_TIMEOUT
        line = b""
        while now() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if b"listening on" in line:
                    return int(line.decode().rsplit(":", 1)[1])
                if not line:
                    break
        raise SetupError(f"ksymmetryd did not start (last output {line!r}); see {self.log.name}")

    def _wait_healthy(self) -> None:
        deadline = now() + START_TIMEOUT
        while now() < deadline:
            try:
                conn = Connection(self.port)
                try:
                    if conn.get_json("/healthz").get("status") == "ok":
                        return
                finally:
                    conn.close()
            except OSError:
                time.sleep(0.01)
        raise SetupError("ksymmetryd never answered /healthz")

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (the daemon drains and exits), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()
        self.log.close()


# -- load ---------------------------------------------------------------------------

@dataclass
class Record:
    tenant: str
    key: str
    kind: str
    ok: bool
    start: float
    end: float
    #: parsed result of the first response to this body (None for repeats)
    result: object = None
    #: a repeated body whose answer differed from the first answer's bytes
    differs: bool = False
    #: latency at the machine's full speed (see common.SpeedProbe)
    scaled: float = 0.0


def _shared_tenant(port, cases, deadline, records, errors) -> None:
    conn = Connection(port)
    first: dict[tuple[str, str], bytes] = {}
    try:
        rounds = 0
        while rounds == 0 or now() < deadline:
            for case in cases:
                for kind in KINDS:
                    started = now()
                    status, body = conn.request("POST", PATHS[kind], case.bodies[kind])
                    ended = now()
                    seen = first.setdefault((case.key, kind), body)
                    records.append(Record(case.tenant, case.key, kind, status == 200, started,
                                          ended, _parse(kind, body) if seen is body else None,
                                          differs=seen != body))
            rounds += 1
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        errors.append(f"{cases[0].tenant}: {exc!r}")
    finally:
        conn.close()


def _fresh_tenant(port, generate, cfg, seed, cases, deadline, records, errors) -> None:
    """Send bursts until the deadline; *cases* holds the first burst and
    gets every later one appended before it is sent."""
    conn = Connection(port)
    try:
        for index in itertools.count():
            if index and now() >= deadline:
                break
            if index:
                cases.extend(fresh_burst(generate, cfg, seed, cases[0].tenant, index))
            burst = cases[index * cfg.max_batch:(index + 1) * cfg.max_batch]
            kinds = [next(iter(case.bodies)) for case in burst]
            started = now()
            conn.send([("POST", PATHS[kind], case.bodies[kind])
                       for case, kind in zip(burst, kinds)])
            pending = {}
            for i in range(len(burst)):
                status, body = conn.receive()
                if status == 202:
                    pending[i] = json.loads(body)["job"]
                else:
                    records.append(Record(burst[i].tenant, burst[i].key, kinds[i], False,
                                          started, now()))
            while pending:
                order = sorted(pending)
                conn.send([("GET", f"/v1/jobs/{pending[i]}", b"") for i in order])
                for i in order:
                    status, body = conn.receive()
                    job = json.loads(body)
                    if status == 200 and job["state"] in ("queued", "running"):
                        continue
                    done = status == 200 and job["state"] == "done"
                    records.append(Record(burst[i].tenant, burst[i].key, kinds[i], done,
                                          started, now(), job.get("result") if done else job))
                    del pending[i]
                if pending:
                    time.sleep(POLL_SECONDS)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        errors.append(f"{cases[0].tenant}: {exc!r}")
    finally:
        conn.close()


def _parse(kind: str, body: bytes):
    if kind == "audit":
        return json.loads(body)
    return [json.loads(line) for line in body.splitlines() if line.strip()]


def _warm_up(port: int, cfg: ServiceConfig, generate, seed: int) -> None:
    """One request of every kind on small graphs no workload request is
    isomorphic to, so lazy imports, the first pool and its forkserver are
    set up before the load starts."""
    conn = Connection(port)
    try:
        if cfg.fresh:
            cases = [make_case(generate, 12, seed + i, seed + i, "warm-up", f"w{i}")
                     for i in range(len(KINDS))]
            bodies = [(PATHS[kind], request_body(case, kind, cfg, seed))
                      for case, kind in zip(cases, KINDS)]
            conn.send([("POST", path, body) for path, body in bodies])
            jobs = [json.loads(conn.receive()[1])["job"] for _ in bodies]
            for job in jobs:
                while conn.get_json(f"/v1/jobs/{job}")["state"] in ("queued", "running"):
                    time.sleep(POLL_SECONDS)
        else:
            case = make_case(generate, 12, seed, seed, "warm-up", "w")
            for kind in KINDS:
                conn.request("POST", PATHS[kind], request_body(case, kind, cfg, seed))
    finally:
        conn.close()


def _counters(port: int) -> dict[str, int]:
    conn = Connection(port)
    try:
        snapshot = conn.get_json("/v1/metrics")
    finally:
        conn.close()
    cache, scheduler = snapshot["cache"], snapshot["scheduler"]
    return {"hits": cache["hits"], "misses": cache["misses"] + cache["spill_hits"],
            "batches": scheduler["batches"], "submitted": scheduler["submitted"]}


def run(cfg: ServiceConfig, seed: int, seconds: float, tracer: Tracer | None = None) -> Outcome:
    from repro.graphs.generators import barabasi_albert_graph

    api = SimpleNamespace(generate=barabasi_albert_graph)
    if tracer is not None:
        tracer.wrap(api, "generate", "graphs.generate")
    spans_out = OUT_DIR / f"daemon-spans-{os.getpid()}.json" if tracer is not None else None
    setup, daemon = [], None
    probe = SpeedProbe(daemon_core(cfg))
    try:
        for rep in range(cfg.setup_reps):
            if daemon is not None:
                daemon.stop()
            if tracer is not None:
                tracer.op = f"setup-{rep}"
            started = now()
            plan = make_inputs(api.generate, cfg, seed)
            daemon = Daemon(cfg, spans_out)
            _warm_up(daemon.port, cfg, api.generate, seed)
            setup.append((started, now()))
        if tracer is not None:
            tracer.op = None
        outcome, window = _load(cfg, daemon, plan, api.generate, seed, seconds, probe)
    finally:
        probe.stop()
        if daemon is not None:
            daemon.stop()
        if tracer is not None:
            tracer.restore()
    # set-up spans processes like a request, so it is scaled by the probe too
    outcome.metrics["setup_s"] = median((end - start) * probe.mean_speed(start, end)
                                        for start, end in setup)
    if tracer is not None:
        daemon_spans = json.loads(spans_out.read_text(encoding="utf-8"))["spans"]
        spans_out.unlink()
        outcome.facts["daemon_spans"] = daemon_spans
        outcome.facts["layers"] = layer_metrics(tracer.spans, daemon_spans, window,
                                                outcome.facts["bases"],
                                                outcome.facts["machine_speed"])
        tracer.spans.extend(outcome.facts.pop("request_spans"))
    else:
        outcome.facts.pop("request_spans")
    return outcome


def _load(cfg, daemon, plan, generate, seed, seconds, probe):
    records: list[Record] = []
    errors: list[str] = []
    before = _counters(daemon.port)
    deadline = now() + seconds
    if cfg.fresh:
        threads = [threading.Thread(target=_fresh_tenant,
                                    args=(daemon.port, generate, cfg, seed, cases, deadline,
                                          records, errors))
                   for cases in plan.values()]
    else:
        threads = [threading.Thread(target=_shared_tenant,
                                    args=(daemon.port, cases, deadline, records, errors))
                   for cases in plan.values()]
    load_start = now()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    load_end = now()
    peak = daemon.peak_rss_mb()
    after = _counters(daemon.port)
    probe.stop()
    outcome = Outcome()
    for message in errors:
        outcome.fail(f"load generator: {message}", check=False)
    publications = _check(cfg, daemon.port, plan, records, outcome)
    backbone_times = _analyst_backbones(cfg, plan, records, publications, outcome)

    ok = [r for r in records if r.ok]
    for record in ok:
        # the speed over a second either side: a single probe sample is
        # noisier than the stretch of machine state a request falls in
        record.scaled = (record.end - record.start) * probe.mean_speed(record.start - 1.0,
                                                                       record.end + 1.0)
    latencies = [r.scaled for r in ok]
    load_speed = probe.mean_speed(load_start, load_end)
    outcome.metrics = {
        "peak_rss_mb": peak,
        **{metric: kind_seconds(ok, kind) for kind, metric in KIND_METRIC.items()},
        "backbone_s": median(backbone_times),
        "throughput_rps": len(ok) / ((load_end - load_start) * load_speed),
        "latency_p50_ms": 1000.0 * median(latencies),
        "latency_p95_ms": 1000.0 * percentile(latencies, 95),
    }
    delta = {name: after[name] - before[name] for name in after}
    outcome.facts = {"requests": len(records), "bases": {"requests": len(ok), **delta},
                     "machine_speed": load_speed,
                     "unscaled_latency_p50_ms": 1000.0 * median(r.end - r.start for r in ok),
                     "request_spans": [
                         {"id": f"request-{i}", "name": f"request.{r.kind}", "parent": None,
                          "op": f"{r.tenant}/{i}", "start": r.start, "end": r.end, "ok": r.ok}
                         for i, r in enumerate(records)]}
    return outcome, (load_start, load_end)


def kind_seconds(records: list[Record], kind: str) -> float:
    """The mean, over the cases sent as *kind*, of each case's median latency.

    A request's time grows with its graph, so one kind's latencies form one
    mode per graph, and the graphs are sent equally often. A median over all
    of them would fall between two modes, at the slowest request of one and
    the fastest of the next, and jump with them; a median per case keeps
    the repetitions' robustness, and the mean over cases weighs the mix.
    """
    per_case: dict[str, list[float]] = {}
    for record in records:
        if record.kind == kind:
            per_case.setdefault(record.key, []).append(record.scaled)
    return sum(map(median, per_case.values())) / len(per_case) if per_case else 0.0


# -- checks ---------------------------------------------------------------------------

def _publication(lines) -> checks.Publication:
    by_event: dict[str, list[str]] = {}
    for line in lines:
        by_event.setdefault(line["event"], []).append(line.get("text", ""))
    meta = json.loads(by_event["meta"][0])
    return checks.parse_publication("".join(by_event.get("edges", [])),
                                    by_event["partition"][0], meta["original_n"])


def _sample_graph(lines) -> tuple[np.ndarray, np.ndarray]:
    text = next(line["text"] for line in lines if line["event"] == "sample")
    return checks.parse_graph_text(text)


def _check(cfg, port, plan, records, outcome) -> dict[str, checks.Publication]:
    """Check every answer; repeats of a body must match its first answer's bytes.

    Returns the publications read, by case key.
    """
    cases = {case.key: case for tenant_cases in plan.values() for case in tenant_cases}
    firsts = {(r.key, r.kind): r for r in records if r.ok and r.result is not None}
    publications: dict[str, checks.Publication] = {}

    def publication_of(case: Case) -> checks.Publication:
        if case.key not in publications:
            first = firsts.get((case.key, "publish"))
            if first is not None:
                publications[case.key] = _publication(first.result)
            else:  # fresh: this graph was sent for another kind; publish it now
                conn = Connection(port)
                try:
                    body = request_body(case, "publish", replace(cfg, fresh_n=0), 0)
                    status, data = conn.request("POST", PATHS["publish"], body)
                finally:
                    conn.close()
                if status != 200:
                    raise SetupError(f"check-time publish answered {status}")
                publications[case.key] = _publication(_parse("publish", data))
        return publications[case.key]

    verdicts: dict[tuple[str, str], list[str]] = {}
    for (key, kind), record in firsts.items():
        case = cases[key]
        try:
            verdicts[key, kind] = _check_one(cfg, case, kind, record.result, publication_of)
        except Exception as exc:  # noqa: BLE001 - an unreadable answer fails its check
            verdicts[key, kind] = [f"unreadable answer: {exc!r}"]
    if not cfg.fresh:
        for case, twin in zip(*plan.values()):
            if not checks.isomorphic(publication_of(case), publication_of(twin)):
                verdicts[case.key, "publish"] = verdicts.get((case.key, "publish"), []) + [
                    "isomorphic tenants got non-isomorphic publications"]
    for record in records:
        if not record.ok:
            outcome.fail(f"{record.kind} {record.key}: not answered with 200/done "
                         f"({str(record.result)[:300]})")
        elif record.differs:
            outcome.fail(f"{record.kind} {record.key}: a repeated body got different bytes")
        else:
            outcome.verdict(verdicts.get((record.key, record.kind), ["never checked"]),
                            f"{record.kind} {record.key}")
    outcome.attempted = len(records)
    return publications


def _analyst_backbones(cfg, plan, records, publications, outcome) -> list[float]:
    """The analyst's next step on what the daemon published: ``backbone`` of
    every publication a publish request returned, on Graph and Partition
    objects built from its texts, checked against the input's own backbone
    (Theorem 4). Runs after the load, in this process; returns the times."""
    from repro import Graph, Partition, backbone

    cases = {case.key: case for tenant_cases in plan.values() for case in tenant_cases}
    keys = sorted({r.key for r in records if r.kind == "publish" and r.key in publications})
    keys = keys[:BACKBONE_PUBLICATIONS]
    times, clock = [], Clock()
    for key in keys:
        case, pub = cases[key], publications[key]
        expected = checks.backbone_counts(case.vertices, case.edges,
                                          checks.colour_refinement(case.vertices, case.edges))
        for _ in range(BACKBONE_REPS[cfg.fresh]):
            graph = Graph.from_edges(map(tuple, pub.edges.tolist()), vertices=pub.vertices.tolist())
            partition = Partition([cell.tolist() for cell in pub.cells])
            outcome.attempted += 1
            try:
                result, seconds = clock.time(backbone, graph, partition)
            except Exception as exc:  # noqa: BLE001 - a failed operation, counted
                outcome.fail(f"backbone {key} raised {exc!r}", check=False)
                continue
            times.append(seconds)
            counts = (result.graph.n, result.graph.m, len(result.cells))
            outcome.verdict(checks.check_backbone(counts, *checks.graph_arrays(result.graph),
                                                  result.cells, pub, expected), f"backbone {key}")
    return times


def _check_one(cfg, case: Case, kind: str, result, publication_of) -> list[str]:
    reference = checks.colour_refinement(case.vertices, case.edges)
    if kind == "publish":
        return checks.check_publication(publication_of(case), cfg.k, case.vertices,
                                        case.edges, reference)
    if kind == "audit":
        errors = checks.check_audit_candidates(result["candidates"], case.target,
                                               case.vertices, case.edges)
        if result["candidate_count"] != len(result["candidates"]):
            errors.append("candidate_count disagrees with the candidate list")
        return errors
    pub = publication_of(case)
    if kind == "sample":
        return checks.check_sample(*_sample_graph(result), pub)
    return checks.check_release(pub, _publication(result), cfg.k,
                                np.array(case.delta_vertices, dtype=np.int64),
                                checks.normalize_edges(case.delta_edges))


# -- per-layer metrics -----------------------------------------------------------------

def layer_metrics(client_spans, daemon_spans, window, bases, speed) -> dict[str, float]:
    """Seconds per request spent in each daemon layer during the load, scaled
    by the load's speed factor like the latencies, plus the cache and
    scheduler counters of the same window."""
    start, end = window
    inside = [s for s in daemon_spans if start <= s["start"] and s["end"] <= end]
    requests = max(1, bases["requests"])

    def per_request(name, kind=None):
        return speed * sum(duration(s) for s in inside
                           if s["name"] == name and (kind is None or s.get("kind") == kind)) / requests

    generate: dict[str, float] = {}
    for span in client_spans:
        if span["name"] == "graphs.generate" and span["op"]:
            generate[span["op"]] = generate.get(span["op"], 0.0) + duration(span)
    lookups = bases["hits"] + bases["misses"]
    return {
        "graphs.generate_s": median(generate.values()),
        "service.parse_s": per_request("service.parse"),
        "service.canonicalize_s": per_request("service.canonicalize"),
        "service.artifact_s": per_request("service.artifact"),
        "service.artifact.publish_s": per_request("service.artifact", "publish"),
        "service.artifact.sample_s": per_request("service.artifact", "sample"),
        "service.artifact.republish_s": per_request("service.artifact", "republish"),
        "service.artifact.audit_s": per_request("service.artifact", "attack-audit"),
        "service.render_s": per_request("service.render"),
        "service.cache.hits": bases["hits"],
        "service.cache.misses": bases["misses"],
        "service.cache.hit_ratio": bases["hits"] / lookups if lookups else 0.0,
        "service.batches": bases["batches"],
        "service.batch_size_mean": bases["submitted"] / bases["batches"] if bases["batches"] else 0.0,
        "runtime.map_s": per_request("runtime.map"),
        "runtime.map_calls": sum(1 for s in inside if s["name"] == "runtime.map"),
        "runtime.pool_starts": sum(1 for s in inside if s["name"] == "runtime.pool_start"),
    }
