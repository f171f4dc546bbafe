"""Tests of the benchmark itself (not part of the package's test suite).

Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

EXACT_SUFFIXES = (".calls", ".runs", ".up_runs", ".words", ".clauses", ".aux_vars", ".bytes",
                  ".literals", ".size", ".assignments", ".errors")


def _subset(workload, ops, meta):
    """A cheap part of the workload: the count check does not need the largest instances."""
    if workload == "walk":
        return ops[:40]
    if workload == "encode":
        return ops[:1 + inputs.QUERIES_PER_LARGE]
    return [op for op, info in zip(ops, meta) if info["family"] != "psi_horn"]


@pytest.mark.parametrize("workload", ["walk", "primes", "encode"])
def test_exact_counts_repeat_for_one_seed(workload):
    ops, meta, _ = inputs.build(workload, 5)
    ops = _subset(workload, ops, meta)
    first = run.run_batch(ops, trace=True)["layers"]["metrics"]
    second = run.run_batch(ops, trace=True)["layers"]["metrics"]
    exact = [name for name in first if name.endswith(EXACT_SUFFIXES)]
    assert {"semantics.models.words", "semantics.primes.clauses", "qhorn.compile.aux_vars", "cnf.write.bytes",
            "deciders.naive.up_runs", "deciders.primes.up_runs"} <= set(exact)
    assert {name: first[name] for name in exact} == {name: second[name] for name in exact}
    assert first["propagation.runs"] > 0


def test_inputs_depend_only_on_the_seed():
    for workload in ("walk", "primes", "encode"):
        assert inputs.build(workload, 3)[2] == inputs.build(workload, 3)[2]
        assert inputs.build(workload, 3)[2]["input_digest"] != inputs.build(workload, 4)[2]["input_digest"]


def test_wrong_expected_value_fails_the_run(monkeypatch, capsys):
    real = checks.psi_horn_prime_count
    monkeypatch.setattr(checks, "psi_horn_prime_count", lambda m: real(m) + 1)
    code = run.main(["--workload", "primes", "--seed", "1", "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_benchmark_json_names_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "cpu_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WHY)
    assert [w["why"] for w in spec["workloads"]] == list(inputs.WHY.values())
    from tracer import Tracer
    reported = Tracer().metrics(1.0)["metrics"]
    for metric in spec["per_layer"]:
        assert metric["name"] in reported
        assert metric["unit"] == run.UNITS[metric["name"].rsplit(".", 1)[1]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "walk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
