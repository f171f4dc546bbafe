"""A small DPLL satisfiability check, independent of pcforge's engines.

Used only by the benchmark's output checks: to re-check witnesses on
formulas too wide for enumeration, and to confirm implicates.
"""

from __future__ import annotations


def satisfiable(clauses, assumptions=()) -> bool:
    """True iff the clauses plus the assumed literals have a model."""
    return _solve([list(c) for c in clauses], {lit for lit in assumptions})


def _simplify(clauses, true_lits):
    out = []
    for clause in clauses:
        if any(lit in true_lits for lit in clause):
            continue
        rest = [lit for lit in clause if -lit not in true_lits]
        if not rest:
            return None
        out.append(rest)
    return out


def _solve(clauses, true_lits) -> bool:
    if any(-lit in true_lits for lit in true_lits):
        return False
    true_lits = set(true_lits)
    while True:
        clauses = _simplify(clauses, true_lits)
        if clauses is None:
            return False
        units = {c[0] for c in clauses if len(c) == 1}
        if not units:
            break
        if any(-lit in units for lit in units):
            return False
        true_lits |= units
    if not clauses:
        return True
    lit = clauses[0][0]
    return _solve(clauses, true_lits | {lit}) or _solve(clauses, true_lits | {-lit})


def entails(clauses, assumptions, lit) -> bool:
    """True iff the clauses plus the assumptions imply the literal."""
    return not satisfiable(clauses, list(assumptions) + [-lit])
