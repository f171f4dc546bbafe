"""Measured worker: one fresh, single-threaded process per batch.

Protocol: the worker imports pcforge, writes ``ready`` on stdout and waits
for one JSON request on stdin: ``{"ops": [...], "trace": bool}``.  It runs
the operations in order, timing each, and answers with one JSON line that
holds every operation's output (for the checks), its latency, the batch
wall and CPU time, the process's own peak resident memory and, when traced,
the per-layer metrics.  End of input before a request means "setup probe":
the worker exits at once.

The worker sees only the DIMACS text and parameters of each operation; the
program's caches start cold in every worker.
"""

import json
import resource
import sys
import time
from importlib import import_module

import pcforge  # noqa: F401  (timed as part of set-up)
from pcforge.errors import PcforgeError

# The package re-exports a function named ``dual_rail``, so the modules are
# looked up by their full names.
cnf, deciders, dual_rail, propagation, qhorn, semantics = (
    import_module("pcforge." + name) for name in ("cnf", "deciders", "dual_rail", "propagation", "qhorn", "semantics"))


def report(decision) -> list:
    """A decision report as JSON: [verdict, sorted witness or None, literal or None]."""
    witness = sorted(decision.witness) if decision.witness is not None else None
    return [decision.verdict, witness, decision.literal]


def op_walk(op, state):
    f = cnf.parse_dimacs(op["dimacs"])
    urc = deciders.is_urc(f, method="naive")
    pc = deciders.is_pc(f, method="naive")
    closed = dual_rail.closed_assignments(f)
    dr = dual_rail.pc_via_dual_rail(f)
    return {"urc": report(urc), "pc": report(pc), "dr": dr, "closed": sorted(sorted(a) for a in closed)}


def op_primes(op, state):
    f = cnf.parse_dimacs(op["dimacs"])
    action = op["action"]
    limit = f.num_vars
    if action == "primes":
        return {"primes": [list(c) for c in semantics.prime_implicates(f).clauses]}
    if action == "urc":
        return {"report": report(deciders.is_urc(f, limit=limit, method="primes"))}
    if action == "pc":
        return {"report": report(deciders.is_pc(f, limit=limit, method="primes"))}
    if action == "reduce_urc":
        reduced = deciders.reduce_urc_irredundant(f, seed=op["seed"], limit=limit)
    else:
        reduced = deciders.reduce_pc_irredundant(f, seed=op["seed"], limit=limit)
    return {"clauses": [list(c) for c in reduced.clauses]}


def _compile(text: str):
    f = cnf.parse_dimacs(text)
    valuation = qhorn.recognize_qhorn(f)
    if valuation is None:
        raise PcforgeError("generated formula not recognized as q-Horn")
    split = qhorn.normalize(f, valuation)
    sat = qhorn.qhorn_sat(split)
    encoding = qhorn.compile_urc_encoding(f, valuation)
    return f, valuation, split, sat, encoding, cnf.write_dimacs(encoding)


def op_compile(op, state):
    f, valuation, split, sat, encoding, text = _compile(op["dimacs"])
    state[op["index"]] = encoding
    return {"doubled": list(valuation.doubled), "x2": len(split.x2), "sat": sat,
            "aux": len(encoding.aux_vars), "clauses": len(encoding.formula.clauses),
            "head": text.splitlines()[:2], "lines": text.count("\n")}


def op_query(op, state):
    result = propagation.up_closure(state[op["compile"]].formula, op["alpha"])
    return {"conflict": result.conflict, "size": len(result.literals)}


def op_verify(op, state):
    f, valuation, split, sat, encoding, text = _compile(op["dimacs"])
    table = semantics.enumerate_models(f)
    return {"sat": sat, "aux": len(encoding.aux_vars), "onset": len(table.onset),
            "encodes": semantics.is_encoding_of(encoding, table)}


OPS = {"walk": op_walk, "primes": op_primes, "compile": op_compile, "query": op_query, "verify": op_verify}


def run_batch(ops, trace: bool) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    state = {}
    outputs, latencies = [], []
    clock = time.perf_counter
    start, cpu_start = clock(), time.process_time()
    for index, op in enumerate(ops):
        op = dict(op, index=index)
        if tracer is not None:
            tracer.op = index
        t0 = clock()
        try:
            out = {"ok": OPS[op["kind"]](op, state)}
        except Exception as exc:  # a failed operation is a result to report, not a crash
            out = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(clock() - t0)
        outputs.append(out)
    wall, cpu = clock() - start, time.process_time() - cpu_start
    result = {"wall_s": wall, "cpu_s": cpu, "latencies": latencies, "outputs": outputs,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics(wall)
    return result


def main() -> int:
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    line = sys.stdin.readline()
    if not line:
        return 0
    request = json.loads(line)
    sys.stdout.write(json.dumps(run_batch(request["ops"], request["trace"])) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
