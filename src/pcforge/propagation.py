"""Unit resolution engine.

Computes the closure of a partial assignment under unit propagation.  By
convention the closure of a refuted assignment (one from which the empty
clause is derivable) is the full literal set of the universe; this makes
closure results comparable across formulas representing the same function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cnf import Clause, CnfFormula, Literal, PartialAssignment, literal_key, make_assignment


@dataclass(frozen=True)
class PropagationResult:
    """Outcome of unit propagation from a formula and a partial assignment.

    On conflict, ``literals`` is the full literal set lit(universe); otherwise
    it is the consistent set of assigned literals closed under unit resolution.
    ``empty_clause`` is a diagnostic only: a clause of the formula that became
    empty, when there is one.
    """

    conflict: bool
    literals: frozenset[Literal]
    empty_clause: Clause | None = None

    @property
    def status(self) -> str:
        return "conflict" if self.conflict else "stable"


class UnitPropagator:
    """Counter-based propagation over a fixed formula, reusable across calls."""

    __slots__ = ("num_vars", "clauses", "occ", "lengths", "units", "empty")

    def __init__(self, formula: CnfFormula):
        self.num_vars = formula.num_vars
        self.clauses = formula.clauses
        self.lengths = [len(clause) for clause in self.clauses]
        # static units in clause order, up to the first empty clause, where every run stops
        self.empty = next((idx for idx, length in enumerate(self.lengths) if length == 0), None)
        stop = len(self.clauses) if self.empty is None else self.empty
        self.units = [clause[0] for clause in self.clauses[:stop] if len(clause) == 1]
        # occ[lit] lists the clauses containing lit; -v indexes from the end, slot 0 is unused
        occ: list[list[int]] = [[] for _ in range(2 * formula.num_vars + 1)]
        for idx, clause in enumerate(self.clauses):
            for lit in clause:
                occ[lit].append(idx)
        self.occ = occ

    def run(self, assumptions=()) -> tuple[bool, list[Literal], int | None]:
        """Propagate to fixpoint; returns (conflict, assigned literals in order, empty clause index)."""
        nv = self.num_vars
        val = [0] * (nv + 1)  # 0 unassigned, 1 true, -1 false (for the positive literal)
        trail: list[Literal] = []
        for lit in assumptions:
            if not (1 <= abs(lit) <= nv):
                raise ValueError(f"assumed literal {lit} outside universe 1..{nv}")
            want = 1 if lit > 0 else -1
            if val[abs(lit)] == -want:
                raise ValueError("inconsistent assumption set")
            if val[abs(lit)] == 0:
                val[abs(lit)] = want
                trail.append(lit)
        for lit in self.units:
            # a falsified static unit conflicts in _propagate, once the assumption is processed
            if val[abs(lit)] == 0:
                val[abs(lit)] = 1 if lit > 0 else -1
                trail.append(lit)
        if self.empty is not None:
            return True, trail, self.empty
        empty = self._propagate(val, self.lengths.copy(), [False] * len(self.clauses), trail)
        return empty is not None, trail, empty

    def _propagate(self, val: list[int], counts: list[int], sat: list[bool], trail: list[Literal]) -> int | None:
        """Process the trail to fixpoint, updating every argument in place.

        val already holds the trail's literals; counts (open literals per
        clause) and sat reflect only the literals assigned before them.
        Returns the index of a clause that became empty, or None.
        """
        occ, clauses = self.occ, self.clauses
        head = 0
        while head < len(trail):
            lit = trail[head]
            head += 1
            for idx in occ[lit]:
                sat[idx] = True
            for idx in occ[-lit]:
                if sat[idx]:
                    continue
                counts[idx] -= 1
                remaining = counts[idx]
                if remaining == 0:
                    return idx
                if remaining == 1:
                    for cand in clauses[idx]:
                        state = val[abs(cand)]
                        if state == 0:
                            val[abs(cand)] = 1 if cand > 0 else -1
                            trail.append(cand)
                            break
                        if state == (1 if cand > 0 else -1):
                            sat[idx] = True
                            break
        return None

    def conflicts(self, assumptions=()) -> bool:
        conflict, _, _ = self.run(assumptions)
        return conflict


def all_literals(num_vars: int) -> frozenset[Literal]:
    return frozenset(range(1, num_vars + 1)) | frozenset(-v for v in range(1, num_vars + 1))


@lru_cache(maxsize=16)
def _engine(formula: CnfFormula) -> UnitPropagator:
    return UnitPropagator(formula)


def up_closure(formula: CnfFormula, alpha: PartialAssignment) -> PropagationResult:
    """Closure of alpha under unit propagation in the formula.

    Conflict means the empty clause is derivable from the formula plus alpha,
    in which case the closure is all literals of the universe.  The engine is
    built once per formula and reused by later calls on an equal formula (a
    small cache holds the most recent ones).  The assumptions are processed
    in literal_key order, so ``empty_clause`` depends on alpha only as a set.
    """
    alpha = make_assignment(alpha)
    conflict, trail, empty_idx = _engine(formula).run(sorted(alpha, key=literal_key))
    empty = formula.clauses[empty_idx] if empty_idx is not None else None
    if conflict:
        return PropagationResult(True, all_literals(formula.num_vars), empty)
    return PropagationResult(False, frozenset(trail), None)
