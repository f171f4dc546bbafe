"""Exact deciders for unit refutation completeness and propagation completeness.

Two interchangeable strategies:

* ``naive`` checks the defining implications directly against the
  semantic closure on every partial assignment whose unit propagation
  does not conflict (conflicting ones satisfy both definitions), in one
  depth-first walk that extends propagation and the model set by one
  literal per step.  It is kept as the independent cross-check of the
  other strategy.
* ``primes`` checks only the critical assignments.  A formula is URC iff
  unit propagation refutes the negation of every prime implicate, and PC
  iff every prime implicate is absorbed (for each literal of the prime,
  propagation from the negated remainder derives that literal or a
  conflict).  Minimality of primes plus monotonicity of unit resolution
  make these finitely many checks equivalent to the full quantification.
  ``auto`` runs it at every size: timed with cold caches on seeded
  random, Horn, q-Horn and compiled formulas and on the paper's families
  at 2 to 12 variables, it is faster than naive in the median at every
  size, and on no formula slower by as much as 1 ms.

Both strategies return the same verdict and a deterministic witness: the
least failing assignment under (size, sorted (variable, polarity) key).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .cnf import Clause, CnfFormula, Literal, PartialAssignment, is_tautological, literal_key, make_clause, mask_literals
from .errors import LimitError, PreconditionError, TautologyError
from .propagation import UnitPropagator, all_literals
from .semantics import MODEL_LIMIT, assignment_walk, closure_masks, entails, prime_implicates

DECIDER_LIMIT = 14


@dataclass(frozen=True)
class DecisionReport:
    """Verdict plus a re-checkable witness when the verdict is negative.

    For URC the witness is an assignment alpha with formula+alpha
    unsatisfiable yet not refutable by unit propagation.  For PC there is
    additionally a literal entailed by formula+alpha that unit propagation
    does not derive (and no conflict is derivable either).
    """

    verdict: bool
    witness: PartialAssignment | None = None
    literal: Literal | None = None
    method: str = ""

    def __bool__(self) -> bool:
        return self.verdict


def _witness_key(alpha: PartialAssignment):
    return (len(alpha), tuple(sorted(literal_key(lit) for lit in alpha)))


def _check_input(formula: CnfFormula, limit: int):
    formula.reject_tautologies("deciders do not accept tautological clauses")
    if formula.num_vars > limit:
        raise LimitError(f"{formula.num_vars} variables exceed limit {limit} (raise --limit to override)")


def _naive_urc(formula: CnfFormula) -> DecisionReport:
    failures = [alpha for alpha, _, models in assignment_walk(formula) if len(models) == 0]
    if not failures:
        return DecisionReport(True, method="naive")
    return DecisionReport(False, witness=min(failures, key=_witness_key), method="naive")


def _naive_pc(formula: CnfFormula) -> DecisionReport:
    failures = []
    for alpha, (pos, neg), models in assignment_walk(formula):
        entailed_pos, entailed_neg = closure_masks(models, formula.num_vars)
        missing = mask_literals(entailed_pos & ~pos, entailed_neg & ~neg)
        if missing:
            failures.append((alpha, missing[0]))
    if not failures:
        return DecisionReport(True, method="naive")
    alpha, lit = min(failures, key=lambda pair: (_witness_key(pair[0]), literal_key(pair[1])))
    return DecisionReport(False, witness=alpha, literal=lit, method="naive")


def _unrefuted_primes(engine: UnitPropagator, primes: CnfFormula) -> Iterator[PartialAssignment]:
    """The negated primes whose unit propagation does not conflict: the formula is URC iff there are none.

    The empty prime of an unsatisfiable formula negates to the empty assignment.
    """
    for prime in primes.clauses:
        alpha = frozenset(-lit for lit in prime)
        if not engine.conflicts(alpha):
            yield alpha


def _prime_urc(formula: CnfFormula) -> DecisionReport:
    failures = list(_unrefuted_primes(UnitPropagator(formula), prime_implicates(formula)))
    if not failures:
        return DecisionReport(True, method="primes")
    return DecisionReport(False, witness=min(failures, key=_witness_key), method="primes")


def _prime_pc(formula: CnfFormula) -> DecisionReport:
    primes = prime_implicates(formula)
    engine = UnitPropagator(formula)
    if primes.has_empty_clause():
        conflict, trail, _ = engine.run(())
        if conflict:
            return DecisionReport(True, method="primes")
        missing = min(all_literals(formula.num_vars) - set(trail), key=literal_key)
        return DecisionReport(False, witness=frozenset(), literal=missing, method="primes")
    failures = []
    for prime in primes.clauses:
        for lit in prime:
            if not _absorbs(engine, prime, lit):
                failures.append((frozenset(-e for e in prime if e != lit), lit))
    if not failures:
        return DecisionReport(True, method="primes")
    alpha, lit = min(failures, key=lambda pair: (_witness_key(pair[0]), literal_key(pair[1])))
    return DecisionReport(False, witness=alpha, literal=lit, method="primes")


def is_urc(formula: CnfFormula, limit: int = DECIDER_LIMIT, method: str = "auto") -> DecisionReport:
    """Decide unit refutation completeness over all partial assignments."""
    _check_input(formula, limit)
    if method == "naive":
        return _naive_urc(formula)
    if method in ("auto", "primes"):
        return _prime_urc(formula)
    raise ValueError(f"unknown method {method!r}")


def is_pc(formula: CnfFormula, limit: int = DECIDER_LIMIT, method: str = "auto") -> DecisionReport:
    """Decide propagation completeness over all partial assignments and literals."""
    _check_input(formula, limit)
    if method == "naive":
        return _naive_pc(formula)
    if method in ("auto", "primes"):
        return _prime_pc(formula)
    raise ValueError(f"unknown method {method!r}")


def _absorbs(engine: UnitPropagator, clause: Clause, lit: Literal) -> bool:
    """Does propagation from the negation of the rest of the clause derive lit or a conflict?"""
    conflict, trail, _ = engine.run([-e for e in clause if e != lit])
    return conflict or lit in trail


def _absorbed_by(engine: UnitPropagator, clause: Clause) -> bool:
    return all(_absorbs(engine, clause, lit) for lit in clause)


def is_absorbed(clause: Clause, formula: CnfFormula, limit: int = MODEL_LIMIT) -> bool:
    """Absorption test: each literal of the clause is recovered by unit propagation.

    The clause must be an implicate of the formula.
    """
    clause = make_clause(clause)
    if is_tautological(clause):
        raise TautologyError("absorption is not defined for tautological clauses")
    if not entails(formula, clause, limit=limit):
        raise PreconditionError("clause is not an implicate of the formula")
    return _absorbed_by(UnitPropagator(formula), clause)


class ReductionError(PreconditionError):
    """Internal consistency failure in a greedy reducer (should not happen)."""


def _greedy_reduce(formula: CnfFormula, seed: int | None, removable: Callable[[Clause, CnfFormula], bool]) -> CnfFormula:
    """Visit each clause once, in input order or a seed-determined permutation, and
    drop it when removable(clause, rest) holds for the clauses still kept."""
    order = list(range(len(formula.clauses)))
    if seed is not None:
        random.Random(seed).shuffle(order)
    keep = [True] * len(order)
    for idx in order:
        keep[idx] = False
        rest = CnfFormula(tuple(c for c, kept in zip(formula.clauses, keep) if kept), formula.num_vars)
        keep[idx] = not removable(formula.clauses[idx], rest)
    return CnfFormula(tuple(c for c, kept in zip(formula.clauses, keep) if kept), formula.num_vars)


def reduce_pc_irredundant(formula: CnfFormula, seed: int | None = None, limit: int = DECIDER_LIMIT) -> CnfFormula:
    """Greedy removal of absorbed clauses from a PC formula.

    The result is a subset representing the same function that is still PC
    and from which no further clause can be removed.  The removal order is
    the input clause order, or a seed-determined permutation.
    """
    report = is_pc(formula, limit=limit)
    if not report.verdict:
        raise PreconditionError("input formula is not propagation complete")
    result = _greedy_reduce(formula, seed, lambda clause, rest: _absorbed_by(UnitPropagator(rest), clause))
    if not is_pc(result, limit=limit).verdict:
        raise ReductionError("absorbed-clause removal broke propagation completeness")
    return result


def reduce_urc_irredundant(formula: CnfFormula, seed: int | None = None, limit: int = DECIDER_LIMIT) -> CnfFormula:
    """Greedy removal of clauses that keep the formula equivalent and URC."""
    report = is_urc(formula, limit=limit)
    if not report.verdict:
        raise PreconditionError("input formula is not unit refutation complete")
    primes = prime_implicates(formula)

    def still_urc(rest: CnfFormula) -> bool:
        return next(_unrefuted_primes(UnitPropagator(rest), primes), None) is None

    # a clause the rest does not entail cannot go: its removal would change the function
    result = _greedy_reduce(formula, seed, lambda clause, rest: entails(rest, clause) and still_urc(rest))
    if not is_urc(result, limit=limit).verdict:
        raise ReductionError("clause removal broke unit refutation completeness")
    return result
