"""pcforge runs on one thread: importing it starts no BLAS threads and leaves the caller's environment as it was."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
REPORT = """
import os
import pcforge
threads = next(line.split()[1] for line in open("/proc/self/status") if line.startswith("Threads:"))
print(threads, os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def _import_in_a_fresh_interpreter(openblas_num_threads):
    """(threads after the import, OPENBLAS_NUM_THREADS after the import) of a child that imports pcforge."""
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if openblas_num_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_num_threads
    result = subprocess.run([sys.executable, "-c", REPORT], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    threads, value = result.stdout.split()
    return int(threads), None if value == "None" else value


# on one core OpenBLAS starts no pool thread anyway, so the check would pass without pcforge's default
@pytest.mark.skipif(not Path("/proc/self/status").is_file() or os.cpu_count() == 1,
                    reason="needs /proc and more than one core")
def test_import_starts_no_blas_threads_and_keeps_the_environment():
    assert _import_in_a_fresh_interpreter(None) == (1, None)
    # the caller's own value wins and stays set
    assert _import_in_a_fresh_interpreter("2")[1] == "2"
