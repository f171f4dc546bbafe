"""Output checks of the benchmark, run untimed after the measured batches.

Every check compares an operation's output with something other than the
code path that produced it: the paper's closed forms, theorems (Horn
formulas are URC, compiled outputs are encodings, a URC encoding refutes
exactly the unsatisfiable input assignments), a second pcforge path
(naive against primes deciders, ``is_pc`` against ``pc_via_dual_rail``,
q-Horn 2-SAT against unit propagation on the compiled encoding), the
benchmark's own model enumeration and DPLL, and, on a sample, the brute
force oracles of ``tests/oracles.py``.

``check(workload, ops, meta, outputs)`` returns one entry per operation:
``None`` when it passed, else the reason it failed.
"""

from __future__ import annotations

import importlib.util
import random
from itertools import product
from pathlib import Path

import numpy as np

import dpll
import inputs
from pcforge.cnf import CnfFormula
from pcforge.deciders import is_pc, is_urc
from pcforge.propagation import up_closure
from pcforge.qhorn import Valuation, normalize, qhorn_sat
from worker import report

ROOT = Path(__file__).resolve().parent.parent


def psi_horn_prime_count(m: int) -> int:
    """Prime implicates of psi_horn(m): m(2^(m-1)+m-1) + m(m-1)."""
    return m * (2 ** (m - 1) + m - 1) + m * (m - 1)


def psi_horn_pc_size(m: int) -> int:
    return 2 ** (m - 1) + 2 * m - 1


def gamma_dprime_size(m: int) -> int:
    return 3 * m + 2 ** (m - 1)


def parity_prime_count(n: int) -> int:
    return 2 ** (n - 1)


def _oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mask(alpha, n: int) -> int:
    mask = 0
    for lit in alpha:
        mask |= 1 << (lit - 1) if lit > 0 else 1 << (n - lit - 1)
    return mask


def _matches(word: int, mask: int, n: int) -> bool:
    pos, neg = mask & ((1 << n) - 1), mask >> n
    return word & pos == pos and word & neg == 0


def _closure_mask(models, mask: int, n: int) -> int | None:
    """Literals entailed by the models compatible with the mask; None if there are none."""
    compatible = [w for w in models if _matches(w, mask, n)]
    if not compatible:
        return None
    common_true, common_false = (1 << n) - 1, (1 << n) - 1
    for w in compatible:
        common_true &= w
        common_false &= ~w
    return common_true | (common_false << n)


# --- walk -----------------------------------------------------------------

def _check_walk(index, meta, out, oracles) -> str | None:
    clauses, n = meta["clauses"], meta["n"]
    models = inputs.models(clauses, n)
    f = CnfFormula.from_clauses(clauses, n)
    if out["urc"] != report(is_urc(f, method="primes")):
        return "naive and primes URC deciders disagree"
    if out["pc"] != report(is_pc(f, method="primes")):
        return "naive and primes PC deciders disagree"
    if out["dr"] != out["pc"][0]:
        return "is_pc and pc_via_dual_rail disagree"
    if meta["horn"] and not out["urc"][0]:
        return "Horn formula reported not URC"
    verdict, alpha, _ = out["urc"]
    if not verdict:
        if up_closure(f, alpha).conflict or any(_matches(w, _mask(alpha, n), n) for w in models):
            return "URC witness does not re-check"
    verdict, alpha, lit = out["pc"]
    if not verdict:
        closure = up_closure(f, alpha)
        entailed = _closure_mask(models, _mask(alpha, n), n)
        if closure.conflict or lit in closure.literals or entailed is None or not entailed & _mask([lit], n):
            return "PC witness does not re-check"
    closed = {_mask(alpha, n) for alpha in out["closed"]}
    if any(_mask([v if w >> (v - 1) & 1 else -v for v in range(1, n + 1)], n) not in closed for w in models):
        return "a model is missing from the closed assignments"
    rng = random.Random(index)
    for mask in rng.sample(sorted(closed), min(20, len(closed))):
        if _closure_mask(models, mask, n) != mask:
            return "an assignment reported closed is not closed"
    for _ in range(20):
        alpha = [v if rng.random() < 0.5 else -v for v in range(1, n + 1) if rng.random() < 0.5]
        mask = _mask(alpha, n)
        if (_closure_mask(models, mask, n) == mask) != (mask in closed):
            return "closed assignments disagree with the model-based closure"
    if n <= 4 and index % 4 == 0:
        if out["urc"][0] != oracles.urc_brute(f) or out["pc"][0] != oracles.pc_brute(f):
            return "deciders disagree with the brute-force oracle"
        brute = {_mask(a, n) for a in oracles.all_partial_assignments(n) if oracles.cl_sem_brute(f, a) == a}
        if brute != closed:
            return "closed assignments disagree with the brute-force oracle"
    return None


# --- primes ---------------------------------------------------------------

def _implicate_failures(clauses, primes, minimal: bool) -> bool:
    for prime in primes:
        if dpll.satisfiable(clauses, [-lit for lit in prime]):
            return True
        if minimal:
            for lit in prime:
                if not dpll.satisfiable(clauses, [-other for other in prime if other != lit]):
                    return True
    return False


def _check_primes(op, meta, out) -> str | None:
    family, clauses, n = meta["family"], meta["clauses"], meta["n"]
    action = op["action"]
    canon = {tuple(c) for c in clauses}
    if family == "psi_horn":
        m = inputs.PSI_HORN_M
        if action == "primes":
            primes = out["primes"]
            if len(primes) != psi_horn_prime_count(m):
                return f"psi_horn({m}) has {len(primes)} primes, expected {psi_horn_prime_count(m)}"
            if _implicate_failures(clauses, primes, minimal=True):
                return "a psi_horn prime is not a prime implicate"
        elif action == "urc":
            if not out["report"][0]:
                return "Horn formula psi_horn reported not URC"
        elif action == "pc":
            verdict, alpha, lit = out["report"]
            if verdict or alpha != list(range(m + 1, 2 * m)) or lit != -1:
                return "psi_horn PC witness is not {y_1..y_(m-1)} with literal -x_1"
            closure = up_closure(CnfFormula.from_clauses(clauses, n), alpha)
            if closure.conflict or lit in closure.literals or not dpll.satisfiable(clauses, alpha) \
                    or not dpll.entails(clauses, alpha, lit):
                return "psi_horn PC witness does not re-check"
    elif family == "parity_enc":
        if not out["report"][0]:
            return f"parity chain encoding reported not {action.upper()}"
    elif family == "parity_cnf":
        primes = {tuple(c) for c in out["primes"]}
        if len(primes) != parity_prime_count(inputs.PARITY_CNF_N) or primes != canon:
            return "parity CNF is not exactly its 2^(n-1) prime implicates"
    elif family == "gamma_dprime":
        m = inputs.GAMMA_DPRIME_M
        if action == "urc" and not out["report"][0]:
            return "gamma_dprime reported not URC"
        if action == "reduce_urc":
            kept = {tuple(c) for c in out["clauses"]}
            if len(kept) != gamma_dprime_size(m) or kept != canon:
                return "gamma_dprime is not URC-irredundant"
    elif family == "psi_qhorn":
        k = inputs.PSI_QHORN_N
        activators = set(range(k + 1, 3 * k + 1))
        if action == "primes":
            # one blocking clause per choice of a_i (n+i) or b_i (2n+i) in every row
            blockers = {tuple(sorted((-(k + i if pick == 0 else 2 * k + i) for i, pick in enumerate(choice, 1)),
                                     key=abs))
                        for choice in product((0, 1), repeat=k)}
            on_activators = {tuple(c) for c in out["primes"] if all(abs(lit) in activators for lit in c)}
            if len(on_activators) != 2 ** k or on_activators != blockers:
                return "psi_qhorn activator primes are not the 2^n blocking clauses"
            if _implicate_failures(clauses, out["primes"], minimal=False):
                return "a psi_qhorn prime is not an implicate"
        elif action == "urc":
            verdict, alpha, _ = out["report"]
            if verdict or alpha != list(range(k + 1, 2 * k + 1)):
                return "psi_qhorn URC witness is not the activator set {a_1..a_n}"
            if up_closure(CnfFormula.from_clauses(clauses, n), alpha).conflict or dpll.satisfiable(clauses, alpha):
                return "psi_qhorn URC witness does not re-check"
    elif family == "psi_horn_pc":
        kept = {tuple(c) for c in out["clauses"]}
        m = inputs.PSI_HORN_PC_M
        if len(kept) != psi_horn_pc_size(m) or kept != canon:
            return "psi_horn_pc is not PC-irredundant"
    elif family == "compiled_psi_qhorn":
        if not out["report"][0]:
            return "compiled q-Horn encoding reported not URC"
    return None


# --- encode ---------------------------------------------------------------

def _witnesses(doubled, clauses) -> bool:
    def weight(lit):
        w = doubled[abs(lit) - 1]
        return w if lit > 0 else 2 - w
    return all(sum(weight(lit) for lit in clause) <= 2 for clause in clauses)


def count_models(clauses, n: int) -> int:
    """Model count by evaluating every literal on all 2^n words."""
    words = np.arange(1 << n, dtype=np.uint32)
    ok = np.ones(len(words), dtype=bool)
    for clause in clauses:
        sat = np.zeros(len(words), dtype=bool)
        for lit in clause:
            bit = (words >> np.uint32(abs(lit) - 1)) & np.uint32(1)
            sat |= bit.astype(bool) if lit > 0 else ~bit.astype(bool)
        ok &= sat
    return int(ok.sum())


def _check_encode(op, meta, out) -> str | None:
    clauses, n = meta["clauses"], meta["n"]
    kind = op["kind"]
    if kind in ("compile", "verify") and not out["sat"]:
        return "qhorn_sat reports a satisfiable formula unsatisfiable"
    if kind == "compile":
        if not _witnesses(out["doubled"], clauses):
            return "recognized valuation does not witness the formula"
        aux = out["aux"]
        if aux > 2 * out["x2"] ** 2:
            return "auxiliary count exceeds 2|x2|^2"
        aux_line = "c aux " + " ".join(str(v) for v in range(n + 1, n + aux + 1)) + (" 0" if aux else "0")
        if out["head"] != [aux_line, f"p cnf {n + aux} {out['clauses']}"] or out["lines"] != out["clauses"] + 2:
            return "written DIMACS header or line count is wrong"
    elif kind == "query":
        alpha = op["alpha"]
        f_alpha = CnfFormula.from_clauses(clauses + [[lit] for lit in alpha], n)
        refuted = not qhorn_sat(normalize(f_alpha, Valuation(tuple(meta["doubled"]))))
        if out["conflict"] != refuted:
            return "unit propagation on the encoding disagrees with q-Horn 2-SAT on f and alpha"
    elif kind == "verify":
        if not out["encodes"]:
            return "compiled output is not an encoding of its source"
        if out["onset"] != count_models(clauses, n):
            return "onset size differs from an independent model count"
    return None


def check(workload: str, ops, meta, outputs) -> list:
    oracles = _oracles() if workload == "walk" else None
    failures = []
    for index, (op, info, out) in enumerate(zip(ops, meta, outputs)):
        if "error" in out:
            failures.append(out["error"])
        elif workload == "walk":
            failures.append(_check_walk(index, info, out["ok"], oracles))
        elif workload == "primes":
            failures.append(_check_primes(op, info, out["ok"]))
        else:
            failures.append(_check_encode(op, info, out["ok"]))
    return failures
