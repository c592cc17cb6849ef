"""Run two sets of benchmark runs of the same code and compare them.

    python3 perfbench/compare.py --runs 5 [--workloads pipeline-asym,service-fresh]
                                 [--first-seed 1]

Each pair of runs takes one run into set A and one into set B, alternating
which goes first; every run gets its own seed and lasts ``run_seconds`` from
``BENCHMARK.json``, the length the bounds were set for. For every workload and
end-to-end metric the command prints each set's median and quartiles
(``statistics.quantiles(values, n=4)``), the quartile spread of all runs as
a share of their median, and whether the two medians agree within the
metric's bound from ``BENCHMARK.json`` (the worse direction only). The
share of failed operations must be equal in both sets. All runs are also
written to ``.perfbench_out/compare.json``.

Exits 1 when a run fails, a set disagrees, or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from common import OUT_DIR, ROOT, median, quartiles


def run_once(workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    results: dict[str, dict[str, list[dict]]] = {w: {"A": [], "B": []} for w in workloads}
    seed = args.first_seed
    for pair in range(args.runs):
        for workload in workloads:
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            for side in order:
                result = run_once(workload, seed, spec["run_seconds"])
                result["seed"] = seed
                results[workload][side].append(result)
                seed += 1
                print(f"{workload} set {side} seed {result['seed']}: attempted "
                      f"{result['attempted']} failed {result['failed']} correct "
                      f"{result['correct']} wall {result['wall_s']:.1f}s",
                      file=sys.stderr, flush=True)

    ok = True
    report = {}
    header = (f"{'workload':15} {'metric':15} {'A q1':>10} {'A med':>10} {'A q3':>10} "
              f"{'B q1':>10} {'B med':>10} {'B q3':>10} {'spread':>7} {'B-A':>7} {'bound':>6} agree")
    print(header)
    for workload in workloads:
        sets = results[workload]
        shares = {side: sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
                  for side, runs in sets.items()}
        correct = all(r["correct"] for runs in sets.values() for r in runs)
        report[workload] = {"failed_share": shares, "correct": correct, "metrics": {}}
        if shares["A"] != shares["B"] or not correct:
            ok = False
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs] for side, runs in sets.items()}
            qa, qb = quartiles(values["A"]), quartiles(values["B"])
            pooled = values["A"] + values["B"]
            q1, mid, q3 = quartiles(pooled)
            spread = (q3 - q1) / mid if mid else 0.0
            change = worse_by(metric, qa[1], qb[1])
            agree = change <= metric["bound"]
            steady = spread <= metric["bound"]
            ok = ok and agree and steady
            report[workload]["metrics"][name] = {
                "A": values["A"], "B": values["B"], "A_quartiles": qa, "B_quartiles": qb,
                "spread": spread, "B_worse_by": change, "bound": metric["bound"],
                "agree": agree, "median": median(pooled)}
            print(f"{workload:15} {name:15} {qa[0]:10.4g} {qa[1]:10.4g} {qa[2]:10.4g} "
                  f"{qb[0]:10.4g} {qb[1]:10.4g} {qb[2]:10.4g} {spread:7.3f} {change:+7.3f} "
                  f"{metric['bound']:6.2f} {'yes' if agree else 'NO'}"
                  f"{'' if steady else ' (spread above bound)'}")
        print(f"{workload:15} failed share A {shares['A']:.4f} B {shares['B']:.4f}, "
              f"all correct: {correct}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "compare.json").write_text(
        json.dumps({"runs": results, "report": report}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
