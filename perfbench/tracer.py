"""Spans around the public entry points of each pcforge layer.

The tracer lives in the benchmark, not in the program: ``install`` rebinds
each entry point to a timing wrapper in every loaded ``pcforge`` module
whose attribute is the original object (modules import names directly, so
``deciders`` holds its own reference to ``prime_implicates``), and patches
``UnitPropagator.run`` on the class.  ``uninstall`` puts the originals back.

Spans are kept in memory as ``[name, start, end, parent, self_s, op, info]``.
Hot leaf calls (``UnitPropagator.run``, ``cl_sem`` and cache hits of the
two lru-cached engines) happen up to a million times a batch; they are
aggregated per parent span as a count and a time instead.  A span's self
time is its duration minus the time its child spans and leaves cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cnf", "propagation", "semantics", "deciders", "dual_rail", "qhorn")

# Entry points: (module, attribute, span name, kind, info)
#   kind "span": recorded individually; "hot": aggregated per parent;
#   "cached": an lru_cache function, a span on a miss and a hot leaf on a hit.
#   info(args, result) -> tuple of numbers summed per span name.
ENTRY_POINTS = (
    ("cnf", "parse_dimacs", "cnf.parse", "span", lambda a, r: (len(a[0]),)),
    ("cnf", "write_dimacs", "cnf.write", "span", lambda a, r: (len(r),)),
    ("semantics", "_model_words", "semantics.models", "cached", lambda a, r: (1 << a[0].num_vars, r.nbytes)),
    ("semantics", "enumerate_models", "semantics.onset", "span", lambda a, r: (len(r.onset),)),
    ("semantics", "is_encoding_of", "semantics.encoding", "span", None),
    ("semantics", "cl_sem", "semantics.cl_sem", "hot", None),
    ("semantics", "prime_implicates", "semantics.primes", "cached", lambda a, r: (len(r.clauses),)),
    ("deciders", "_naive_urc", "deciders.naive", "span", None),
    ("deciders", "_naive_pc", "deciders.naive", "span", None),
    ("deciders", "_prime_urc", "deciders.primes", "span", None),
    ("deciders", "_prime_pc", "deciders.primes", "span", None),
    ("deciders", "reduce_urc_irredundant", "deciders.reduce", "span", None),
    ("deciders", "reduce_pc_irredundant", "deciders.reduce", "span", None),
    ("dual_rail", "closed_assignments", "dual_rail.closed", "span", lambda a, r: (len(r), 3 ** a[0].num_vars)),
    ("dual_rail", "pc_via_dual_rail", "dual_rail.pc_dr", "span", None),
    ("qhorn", "recognize_qhorn", "qhorn.recognize", "span", None),
    ("qhorn", "normalize", "qhorn.normalize", "span", None),
    ("qhorn", "qhorn_sat", "qhorn.sat", "span", None),
    ("qhorn", "phi_q_plus", "qhorn.closure", "span", lambda a, r: (len(r.clauses),)),
    ("qhorn", "compile_urc_encoding", "qhorn.compile", "span", lambda a, r: (len(r.aux_vars),)),
)

UP_RUN = "propagation.run"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        # (parent span index, name) -> [count, seconds, self seconds, trail literals, conflicts];
        # the last two are kept for UP runs only
        self.leaves: dict = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        self.errors: Counter = Counter()
        self.op = -1
        self._stack: list[list] = []  # frames: [span index or inherited index, child seconds]
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, kind: str, fn, info):
        stack, spans, leaves, clock = self._stack, self.spans, self.leaves, time.perf_counter
        layer = name.split(".")[0]
        tracer = self

        if kind == "span":
            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else None
                index = len(spans)
                record = [name, 0.0, 0.0, parent[0] if parent else -1, 0.0, tracer.op, ()]
                spans.append(record)
                frame = [index, 0.0]
                stack.append(frame)
                t0 = record[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    tracer.errors[layer] += 1
                    raise
                finally:
                    stack.pop()
                    end = record[2] = clock()
                    record[4] = end - t0 - frame[1]
                    if parent is not None:
                        parent[1] += end - t0
                if info is not None:
                    record[6] = info(args, result)
                return result
        elif kind == "hot":
            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else None
                frame = [parent[0] if parent else -1, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    tracer.errors[layer] += 1
                    raise
                finally:
                    stack.pop()
                    dur = clock() - t0
                    if parent is not None:
                        parent[1] += dur
                    agg = leaves[(frame[0], name)]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[1]
        else:  # cached: a miss is a span, a hit a hot leaf
            cache_info = fn.cache_info

            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else None
                misses = cache_info().misses
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    tracer.errors[layer] += 1
                    raise
                finally:
                    end = clock()
                    if parent is not None:
                        parent[1] += end - t0
                owner = parent[0] if parent else -1
                if cache_info().misses == misses:
                    agg = leaves[(owner, name + ".hit")]
                    agg[0] += 1
                    agg[1] += end - t0
                    agg[2] += end - t0
                else:
                    spans.append([name, t0, end, owner, end - t0, tracer.op,
                                  info(args, result) if info is not None else ()])
                return result
        return wrapper

    def _wrap_run(self, fn):
        stack, leaves, clock = self._stack, self.leaves, time.perf_counter
        tracer = self

        def run(engine, assumptions=()):
            parent = stack[-1] if stack else None
            t0 = clock()
            try:
                result = fn(engine, assumptions)
            except Exception:
                tracer.errors["propagation"] += 1
                raise
            finally:
                dur = clock() - t0
                if parent is not None:
                    parent[1] += dur
            owner = parent[0] if parent else -1
            agg = leaves[(owner, UP_RUN)]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur
            agg[3] += len(result[1])
            agg[4] += result[0]
            return result
        return run

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "pcforge" or key.startswith("pcforge.")]
        for module_name, attr, name, kind, info in ENTRY_POINTS:
            original = getattr(sys.modules["pcforge." + module_name], attr)
            wrapper = self._wrap(name, kind, original, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))
        cls = sys.modules["pcforge.propagation"].UnitPropagator
        self._undo.append((cls, "run", cls.run))
        cls.run = self._wrap_run(cls.run)

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    # -- metrics -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        calls, busy, self_s = Counter(), Counter(), Counter()
        info = defaultdict(lambda: [0, 0])
        for name, start, end, _parent, own, _op, extra in self.spans:
            calls[name] += 1
            busy[name] += end - start
            self_s[name] += own
            for i, value in enumerate(extra):
                info[name][i] += value
        names = [span[0] for span in self.spans]
        leaf = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        up_by_owner = Counter()
        for (owner, name), values in self.leaves.items():
            agg = leaf[name]
            for i, value in enumerate(values):
                agg[i] += value
            if name == UP_RUN:
                up_by_owner[names[owner] if owner >= 0 else ""] += values[0]
        runs, up_s, _, literals, conflicts = leaf[UP_RUN]
        model_hits = leaf["semantics.models.hit"][0]
        prime_hits = leaf["semantics.primes.hit"][0]

        def ratio(a, b):
            return a / b if b else 0.0

        visited = info["dual_rail.closed"][1]
        m = {
            "cnf.parse.calls": calls["cnf.parse"],
            "cnf.parse.busy_s": busy["cnf.parse"],
            "cnf.parse.bytes": info["cnf.parse"][0],
            "cnf.write.calls": calls["cnf.write"],
            "cnf.write.busy_s": busy["cnf.write"],
            "cnf.write.bytes": info["cnf.write"][0],
            "propagation.runs": runs,
            "propagation.busy_s": up_s,
            "propagation.us_per_run": ratio(up_s * 1e6, runs),
            "propagation.literals": literals,
            "propagation.conflict_ratio": ratio(conflicts, runs),
            "semantics.models.calls": calls["semantics.models"] + model_hits,
            "semantics.models.hit_ratio": ratio(model_hits, calls["semantics.models"] + model_hits),
            "semantics.models.busy_s": busy["semantics.models"],
            "semantics.models.words": info["semantics.models"][0],
            "semantics.models.bytes": info["semantics.models"][1],
            "semantics.onset.busy_s": self_s["semantics.onset"],
            "semantics.onset.size": info["semantics.onset"][0],
            "semantics.encoding.self_s": self_s["semantics.encoding"],
            "semantics.cl_sem.calls": leaf["semantics.cl_sem"][0],
            "semantics.cl_sem.self_s": leaf["semantics.cl_sem"][2],
            "semantics.primes.calls": calls["semantics.primes"] + prime_hits,
            "semantics.primes.hit_ratio": ratio(prime_hits, calls["semantics.primes"] + prime_hits),
            "semantics.primes.busy_s": busy["semantics.primes"],
            "semantics.primes.clauses": info["semantics.primes"][0],
            "deciders.naive.calls": calls["deciders.naive"],
            "deciders.naive.up_runs": up_by_owner["deciders.naive"],
            "deciders.naive.self_s": self_s["deciders.naive"],
            "deciders.primes.calls": calls["deciders.primes"],
            "deciders.primes.up_runs": up_by_owner["deciders.primes"],
            "deciders.primes.self_s": self_s["deciders.primes"],
            "deciders.reduce.calls": calls["deciders.reduce"],
            "deciders.reduce.self_s": self_s["deciders.reduce"],
            "dual_rail.closed.calls": calls["dual_rail.closed"],
            "dual_rail.closed.assignments": visited,
            "dual_rail.closed.yield": ratio(info["dual_rail.closed"][0], visited),
            "dual_rail.closed.self_s": self_s["dual_rail.closed"],
            "dual_rail.pc_dr.calls": calls["dual_rail.pc_dr"],
            "dual_rail.pc_dr.self_s": self_s["dual_rail.pc_dr"],
            "qhorn.recognize.busy_s": busy["qhorn.recognize"],
            "qhorn.normalize.busy_s": busy["qhorn.normalize"],
            "qhorn.sat.busy_s": busy["qhorn.sat"],
            "qhorn.closure.busy_s": busy["qhorn.closure"],
            "qhorn.closure.clauses": info["qhorn.closure"][0],
            "qhorn.compile.self_s": self_s["qhorn.compile"],
            "qhorn.compile.aux_vars": info["qhorn.compile"][0],
        }
        for layer in LAYERS:
            m[f"{layer}.errors"] = self.errors[layer]
        qhorn_self = sum(self_s[n] for n in ("qhorn.recognize", "qhorn.normalize", "qhorn.sat",
                                             "qhorn.closure", "qhorn.compile"))
        shares = {
            "propagation": up_s,
            "model_enumeration": busy["semantics.models"] + self_s["semantics.onset"] + self_s["semantics.encoding"],
            "prime_implicates": busy["semantics.primes"],
            "assignment_walks": self_s["deciders.naive"] + self_s["dual_rail.closed"],
            "qhorn": qhorn_self,
        }
        return {"metrics": m, "shares": {k: ratio(v, wall_s) for k, v in shares.items()}}
