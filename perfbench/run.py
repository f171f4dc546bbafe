"""pcforge benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload walk|primes|encode --seed N --seconds S --trace 0|1

The coordinator builds the workload's inputs from the seed, then runs the
whole operation list in fresh single-threaded worker processes, one at a
time, for about S seconds.  Every batch starts with cold program caches.

--trace 0 reports the end-to-end metrics:
  wall_s       median seconds to finish the operation list in a started worker
  cpu_s        median CPU seconds the worker spent on it: the same work without
               the time the process waited for a processor, so it stays steady
               on a shared machine where wall_s does not
  setup_s      median seconds from spawning a worker to its being ready
               (interpreter start plus ``import pcforge``), over several spawns
  peak_rss_mb  median of the workers' own peak resident memory
and prints fail_ratio and, where there are at least 200 operations, the
per-operation p50/p95 latency with its sample count.

--trace 1 alternates untraced and traced batches on the same inputs for
about S seconds and reports the per-layer metrics named in BENCHMARK.json
(medians over the traced batches; the counts are equal in every batch).  It
also prints every layer metric, each engine's share of the traced wall time
and the tracing overhead (median traced over median untraced wall time).

Every output is checked (see checks.py).  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5          # extra spawns that only measure set-up
BATCH_TIMEOUT_S = 150     # a worker still running after this is killed
PERCENTILE_MIN_OPS = 200  # p95 needs at least ten samples beyond it

UNITS = {"calls": "count", "runs": "count", "up_runs": "count", "errors": "count", "literals": "count",
         "words": "count", "size": "count", "clauses": "count", "aux_vars": "count",
         "assignments": "count", "bytes": "bytes", "busy_s": "s", "self_s": "s",
         "us_per_run": "us", "hit_ratio": "ratio", "conflict_ratio": "ratio", "yield": "ratio"}


class WorkerError(RuntimeError):
    pass


def _spawn():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    ready = proc.stdout.readline()
    setup = time.perf_counter() - start
    if ready != "ready\n":
        _stop(proc)
        raise WorkerError("worker did not start")
    return proc, setup


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None and not stream.closed:
            try:
                stream.close()
            except BrokenPipeError:
                pass


def probe_setup() -> float:
    proc, setup = _spawn()
    proc.stdin.close()
    proc.wait(timeout=BATCH_TIMEOUT_S)
    _stop(proc)
    return setup


def run_batch(ops, trace: bool) -> dict:
    """Run the operation list once in a fresh worker."""
    proc, setup = _spawn()
    watchdog = threading.Timer(BATCH_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps({"ops": ops, "trace": trace}) + "\n")
        proc.stdin.close()
        line = proc.stdout.readline()
        proc.wait()
    finally:
        watchdog.cancel()
        _stop(proc)
    if not line or proc.returncode != 0:
        raise WorkerError(f"worker failed with exit code {proc.returncode}")
    result = json.loads(line)
    result["setup_s"] = setup
    return result


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def provenance(workload: str, seed: int, info: dict) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((SRC / "pcforge").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "git_revision": _git_revision(), "src_digest": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), **info}


def _git_revision() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def count_failures(workload, ops, meta, batches) -> tuple[int, list]:
    """Failed operations over all batches: a failed check, or output differing from the first batch."""
    import checks

    first = batches[0]["outputs"]
    reasons = checks.check(workload, ops, meta, first)
    failed = 0
    for batch in batches:
        for index, out in enumerate(batch["outputs"]):
            if reasons[index] is None and out != first[index]:
                reasons[index] = "output differs between batches"
            failed += reasons[index] is not None
    return failed, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("walk", "primes", "encode"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pcforge" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from a pcforge checkout (src/pcforge and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import inputs

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops, meta, info = inputs.build(args.workload, args.seed)
    if info.get("family_digest", inputs.FAMILY_DIGEST) != inputs.FAMILY_DIGEST:
        print(f"perfbench: family instances changed (digest {info['family_digest']}, "
              f"pinned {inputs.FAMILY_DIGEST})", file=sys.stderr)
        return 3

    started = time.perf_counter()
    try:
        if args.trace:
            plain, traced = [], []
            while True:
                plain.append(run_batch(ops, trace=False))
                traced.append(run_batch(ops, trace=True))
                elapsed = time.perf_counter() - started
                if elapsed + elapsed / len(plain) > args.seconds:
                    break
            batches = plain + traced
            plain_wall = statistics.median(b["wall_s"] for b in plain)
            traced_wall = statistics.median(b["wall_s"] for b in traced)
            layers = {part: {name: statistics.median(b["layers"][part][name] for b in traced)
                             for name in traced[0]["layers"][part]} for part in ("metrics", "shares")}
        else:
            setups = [probe_setup() for _ in range(SETUP_PROBES)]
            batches = []
            first_batch = time.perf_counter()
            while True:
                batches.append(run_batch(ops, trace=False))
                now = time.perf_counter()
                if now - started + (now - first_batch) / len(batches) > args.seconds:
                    break
            setups += [b["setup_s"] for b in batches]
    except (WorkerError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 4

    failed, reasons = count_failures(args.workload, ops, meta, batches)
    attempted = len(ops) * len(batches)
    info["batches"] = len(batches)
    print(json.dumps({"provenance": provenance(args.workload, args.seed, info)}))
    for index, reason in enumerate(reasons):
        if reason is not None:
            print(f"FAILED op {index} ({ops[index]['kind']}): {reason}")
    detail = {"fail_ratio": failed / attempted, "failed": failed, "attempted": attempted}
    print(f"fail_ratio     {failed / attempted:.6f}  ({failed} of {attempted} operations)")

    if args.trace:
        for name, value in layers["metrics"].items():
            print(f"{name:32s} {value:.6g} {UNITS[name.rsplit('.', 1)[1]]}")
        for layer, share in layers["shares"].items():
            print(f"share {layer:26s} {100 * share:6.2f} % of traced wall_s")
        overhead = traced_wall / plain_wall
        print(f"tracing overhead                 {overhead:.3f}x "
              f"(traced {traced_wall:.3f} s / untraced {plain_wall:.3f} s, medians of {len(traced)} batches each)")
        detail.update(layers["metrics"], shares=layers["shares"], overhead=overhead,
                      traced_wall_s=traced_wall, untraced_wall_s=plain_wall)
        metrics = {m["name"]: {"value": layers["metrics"][m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = {
            "wall_s": statistics.median(b["wall_s"] for b in batches),
            "cpu_s": statistics.median(b["cpu_s"] for b in batches),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
        }
        for name, value in values.items():
            print(f"{name:14s} {value:.6f}")
        detail.update(values, setup_samples=len(setups), batch_wall_s=[b["wall_s"] for b in batches])
        latencies = [1000 * statistics.median(b["latencies"][i] for b in batches) for i in range(len(ops))]
        if len(latencies) >= PERCENTILE_MIN_OPS:
            detail.update(op_p50_ms=percentile(latencies, 0.50), op_p95_ms=percentile(latencies, 0.95),
                          op_samples=len(latencies))
            print(f"op_p50_ms      {detail['op_p50_ms']:.4f}  ({len(latencies)} operations)")
            print(f"op_p95_ms      {detail['op_p95_ms']:.4f}  ({len(latencies)} operations)")
        else:
            print(f"op_p50_ms/op_p95_ms not reported: {len(latencies)} operations, fewer than {PERCENTILE_MIN_OPS}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
