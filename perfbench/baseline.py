"""Run the benchmark over several seeds and summarize it as a baseline.

From the repository root:

    python3 perfbench/baseline.py

For every workload of BENCHMARK.json this runs `run.py` for run_seconds once
per seed 1 to 10 with tracing off and once with tracing on (seed 1), one run
at a time, and writes perfbench/baseline.json. It records each
end-to-end metric's median, quartiles and spread (interquartile range over
median, the figure the benchmark's bounds are checked against), the traced
per-layer self-time shares, and the environment of the runs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SEEDS = tuple(range(1, 11))


def run_once(workload, seed, seconds, trace):
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900, check=True,
    )
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(l[len("environment "):]) for l in lines if l.startswith("environment "))
    return json.loads(lines[-1]), env, time.perf_counter() - start


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    summary = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = []
        for seed in SEEDS:
            result, env, elapsed = run_once(workload, seed, seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed} {elapsed:.1f} s correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
        entry = {
            "environment": env,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {
                name: {**summarize([r["metrics"][name]["value"] for r in runs]), "bound": bound}
                for name, bound in bounds.items()
            },
        }
        traced, _, _ = run_once(workload, SEEDS[0], seconds, 1)
        metrics = {k: v["value"] for k, v in traced["metrics"].items()}
        wall = metrics["cli.main.s"]
        entry["traced"] = {
            "seed": SEEDS[0],
            "traced_wall_s": wall,
            "overhead_s": metrics["trace.overhead_s"],
            "self_share": {
                k[: -len(".self_s")]: round(v / wall, 4)
                for k, v in sorted(metrics.items(), key=lambda kv: -kv[1])
                if k.endswith(".self_s") and v > 0
            },
            "counters": {k: v for k, v in metrics.items() if not k.endswith(("_s", ".s", ".calls"))},
        }
        summary["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            print(f"{workload} {name} median {stats['median']:.4g} spread {stats['spread']:.3f} "
                  f"(bound {stats['bound']})", file=sys.stderr)
    OUT.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
