"""Record the benchmark's baseline: ten seeds per workload plus one traced run.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py [--seeds 1-10] [--out perfbench/baseline.json]

For every workload it runs ``run.py --trace 0`` once per seed and reports,
for each end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their spread (q3 - q1) / median,
then one ``--trace 1`` run on the first seed for the per-layer metrics,
each engine's share of the traced wall time and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines[-1]["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}\n{proc.stderr}")
    out = {}
    for line in lines:
        out.update(line)
    print(workload, seed, trace, {k: round(v["value"], 4) for k, v in out["metrics"].items()}
          if not trace else "traced", file=sys.stderr, flush=True)
    return out


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last seed, inclusive")
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    record = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        record.setdefault("provenance", runs[0]["provenance"])
        entry = {"why": runs[0]["provenance"]["why"], "operations": runs[0]["provenance"]["operations"],
                 "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            entry["end_to_end"][metric["name"]] = dict(summary(values), unit=metric["unit"], bound=metric["bound"])
        if "op_p95_ms" in runs[0]["detail"]:
            for name in ("op_p50_ms", "op_p95_ms"):
                entry[name] = dict(summary([r["detail"][name] for r in runs]),
                                   samples=runs[0]["detail"]["op_samples"])
        traced = run_once(workload, seeds[0], seconds, 1)["detail"]
        entry["traced"] = traced
        record["workloads"][workload] = entry
        print(workload, json.dumps({k: round(v["spread"], 4) for k, v in entry["end_to_end"].items()}), flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
