"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload pipeline-asym --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run spends half of ``--seconds``
untraced and half traced, prints a per-layer table with the tracing
overhead on every end-to-end metric, writes the spans as JSON under
``.perfbench_out/`` and reports the per-layer metrics.

Workloads: pipeline-asym, pipeline-twins, service-shared, service-fresh.
``--size small`` shrinks every input (the benchmark's own test uses it).
"""

from __future__ import annotations

import argparse
import json
import sys

from common import OUT_DIR, ROOT, Outcome, SetupError, program_src

WORKLOADS = ("pipeline-asym", "pipeline-twins", "service-shared", "service-fresh")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    return parser


def run_workload(workload: str, seed: int, seconds: float, size: str, tracer=None) -> Outcome:
    if workload.startswith("pipeline-"):
        import pipeline

        configs = pipeline.SMALL if size == "small" else pipeline.WORKLOADS
        return pipeline.run(configs[workload], seed, seconds, tracer)
    import service

    configs = service.SMALL if size == "small" else service.WORKLOADS
    return service.run(configs[workload], seed, seconds, tracer)


def layer_metrics(workload: str, tracer, outcome: Outcome) -> dict[str, float]:
    import pipeline
    import service

    values = dict.fromkeys(service.LAYER_NAMES + list(pipeline.layer_metrics([], {})), 0.0)
    if workload.startswith("pipeline-"):
        values.update(pipeline.layer_metrics(tracer.spans, tracer.scale))
    else:
        values.update(outcome.facts.get("layers", {}))
    return values


def traced_run(args, spec: dict) -> tuple[Outcome, dict[str, float]]:
    from tracer import Tracer

    half = args.seconds / 2.0
    plain = run_workload(args.workload, args.seed, half, args.size)
    tracer = Tracer()
    traced = run_workload(args.workload, args.seed, half, args.size, tracer)
    layers = layer_metrics(args.workload, tracer, traced)
    overhead = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = plain.metrics.get(name, 0.0)
        overhead[name] = (traced.metrics.get(name, 0.0) / base - 1.0) if base else 0.0
    report = render_table(args.workload, spec, layers, plain, traced, overhead)
    print(report)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "layers": layers,
                        "untraced": plain.metrics, "traced": traced.metrics,
                        "overhead": overhead, "daemon_spans": traced.facts.get("daemon_spans", []),
                        "facts": {k: v for k, v in traced.facts.items()
                                  if k not in ("layers", "daemon_spans")}})
    (OUT_DIR / f"{args.workload}-seed{args.seed}-table.txt").write_text(report + "\n", encoding="utf-8")
    print(f"spans written to {path.relative_to(ROOT)}")
    merged = Outcome(attempted=plain.attempted + traced.attempted,
                     failed=plain.failed + traced.failed,
                     check_failures=plain.check_failures + traced.check_failures,
                     problems=plain.problems + traced.problems)
    return merged, layers


def render_table(workload, spec, layers, plain, traced, overhead) -> str:
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    lines = [f"per-layer metrics, {workload} (traced pass)", f"{'metric':34} {'value':>14}  unit"]
    for name, value in layers.items():
        lines.append(f"{name:34} {value:14.6g}  {units.get(name, '')}")
    bases = traced.facts.get("bases", {})
    if bases:
        lines.append("bases: " + ", ".join(f"{k}={v}" for k, v in sorted(bases.items())))
    lines.append(f"{'end-to-end metric':34} {'untraced':>12} {'traced':>12} {'overhead':>9}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        lines.append(f"{name:34} {plain.metrics.get(name, 0.0):12.6g} "
                     f"{traced.metrics.get(name, 0.0):12.6g} {100 * overhead[name]:8.1f}%")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        sys.path.insert(0, str(program_src()))
        spec = load_spec()
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Import the program and the checkers before any clock starts: setup_s
    # begins after imports.
    import numpy  # noqa: F401
    import repro  # noqa: F401

    import checks  # noqa: F401

    if args.trace:
        outcome, values = traced_run(args, spec)
        wanted = spec["per_layer"]
    else:
        outcome = run_workload(args.workload, args.seed, args.seconds, args.size)
        values = outcome.metrics
        wanted = spec["end_to_end"]
    if outcome.facts:
        print(f"facts: {json.dumps(outcome.facts, sort_keys=True, default=str)}", file=sys.stderr)
    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": outcome.check_failures == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
