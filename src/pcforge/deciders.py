"""Exact deciders for unit refutation completeness and propagation completeness.

Two interchangeable strategies, chosen by ``method``:

* ``naive`` checks the defining implications directly against the
  semantic closure on every partial assignment whose unit propagation
  does not conflict (conflicting ones satisfy both definitions), in one
  depth-first walk that extends propagation by one literal per step and
  yields both closures as literal vectors.  It is kept as the independent
  cross-check of the other strategy.
* ``primes``, the default, checks only the critical assignments.  A
  formula is URC iff unit propagation refutes the negation of every prime
  implicate, and PC iff every prime is absorbed: for each literal of the
  prime, propagation from the negated remainder derives that literal or a
  conflict.  Minimality of primes plus monotonicity of unit resolution
  make these finitely many checks equivalent to the full quantification.

Two streams ask these questions of a formula's one engine
(propagation._engine) for a clause set, skipping the formula's own
clauses, which pass both by construction: ``_unrefuted`` and
``_unabsorbed`` yield the failures.  The primes deciders, ``is_absorbed``
and both reducers are each one expression over them, so none enumerates
models.  Both strategies return the same verdict and a deterministic
witness: the least failing assignment under (size, sorted (variable,
polarity) key), and for PC then the least missing literal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .cnf import Clause, CnfFormula, Literal, PartialAssignment, is_tautological, literal_key, make_clause, vector_literals
from .errors import LimitError, PreconditionError, TautologyError
from .propagation import _engine, all_literals
from .semantics import assignment_walk, entails, prime_implicates

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

    def __bool__(self) -> bool:
        return self.verdict


def _check_input(formula: CnfFormula, limit: int, method: str):
    formula.reject_tautologies("deciders do not accept tautological clauses")
    if formula.num_vars > limit:
        raise LimitError(f"{formula.num_vars} variables exceed limit {limit} (raise --limit to override)")
    if method not in ("naive", "primes"):
        raise ValueError(f"unknown method {method!r}")


def _least_failure(failures: Iterable[tuple[PartialAssignment, Literal | None]]) -> DecisionReport:
    """The report for the failing (alpha, literal) pairs, literal None for URC: true when there are none,
    else the least failure by the size of alpha, its sorted (variable, polarity) keys, then the literal."""
    def key(failure):
        alpha, lit = failure
        return len(alpha), sorted(map(literal_key, alpha)), literal_key(lit) if lit is not None else ()

    least = min(failures, key=key, default=None)
    if least is None:
        return DecisionReport(True)
    return DecisionReport(False, witness=least[0], literal=least[1])


def _naive_urc(formula: CnfFormula) -> DecisionReport:
    # a semantic closure holding a literal and its complement means no model extends alpha
    n = formula.num_vars
    return _least_failure((frozenset(vector_literals(alpha, n)), None)
                          for alpha, _, sem in assignment_walk(formula) if sem & sem >> n)


def _naive_pc(formula: CnfFormula) -> DecisionReport:
    n = formula.num_vars
    return _least_failure((frozenset(vector_literals(alpha, n)), vector_literals(sem & ~up, n)[0])
                          for alpha, up, sem in assignment_walk(formula) if sem & ~up)


def _unrefuted(formula: CnfFormula, clauses: Iterable[Clause]) -> Iterator[tuple[PartialAssignment, None]]:
    """(negated clause, None) for each clause whose negation propagation does not refute; () negates to {}."""
    own, engine = set(formula.clauses), _engine(formula)  # a clause of the formula is refuted without a run
    for clause in clauses:
        if clause not in own and not engine.refutes(clause):
            yield frozenset(-lit for lit in clause), None


def _unabsorbed(formula: CnfFormula, clauses: Iterable[Clause]) -> Iterator[tuple[PartialAssignment, Literal]]:
    """(negated rest, literal) for each literal of a clause that propagation from the negated rest does not absorb."""
    own, engine = set(formula.clauses), _engine(formula)  # a clause of the formula is absorbed without a run
    for clause in clauses:
        if clause not in own:
            for lit in clause:
                if not engine.absorbs(clause, lit):
                    yield frozenset(-other for other in clause if other != lit), lit


def _prime_urc(formula: CnfFormula) -> DecisionReport:
    return _least_failure(_unrefuted(formula, prime_implicates(formula).clauses))


def _prime_pc(formula: CnfFormula) -> DecisionReport:
    primes = prime_implicates(formula).clauses
    if primes == ((),):
        # every clause is an implicate of an unsatisfiable formula: the empty prime is absorbed
        # iff each unit clause is, that is iff propagation alone conflicts
        primes = [(lit,) for lit in all_literals(formula.num_vars)]
    return _least_failure(_unabsorbed(formula, primes))


def is_urc(formula: CnfFormula, limit: int = DECIDER_LIMIT, method: str = "primes") -> DecisionReport:
    """Decide unit refutation completeness over all partial assignments."""
    _check_input(formula, limit, method)
    return _naive_urc(formula) if method == "naive" else _prime_urc(formula)


def is_pc(formula: CnfFormula, limit: int = DECIDER_LIMIT, method: str = "primes") -> DecisionReport:
    """Decide propagation completeness over all partial assignments and literals."""
    _check_input(formula, limit, method)
    return _naive_pc(formula) if method == "naive" else _prime_pc(formula)


def is_absorbed(clause: Clause, formula: CnfFormula) -> bool:
    """Absorption test: each literal of the clause is recovered by unit propagation.

    The clause must be an implicate of the formula.
    """
    clause = make_clause(clause)
    if is_tautological(clause):
        raise TautologyError("absorption is not defined for tautological clauses")
    if not entails(formula, clause):
        raise PreconditionError("clause is not an implicate of the formula")
    return not any(_unabsorbed(formula, [clause]))


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
    result = _greedy_reduce(formula, seed, lambda clause, rest: not any(_unabsorbed(rest, [clause])))
    if not is_pc(result, limit=limit).verdict:
        raise ReductionError("absorbed-clause removal broke propagation completeness")
    return result


def reduce_urc_irredundant(formula: CnfFormula, seed: int | None = None, limit: int = DECIDER_LIMIT) -> CnfFormula:
    """Greedy removal of clauses that keep the formula equivalent and URC."""
    report = is_urc(formula, limit=limit)
    if not report.verdict:
        raise PreconditionError("input formula is not unit refutation complete")
    primes = prime_implicates(formula).clauses
    # a rest refuting every negated prime entails every clause, so it is equivalent and URC; the
    # removed clause, an implicate it must refute too, is the likeliest to fail and goes first
    result = _greedy_reduce(formula, seed, lambda clause, rest: not any(_unrefuted(rest, (clause, *primes))))
    if not is_urc(result, limit=limit).verdict:
        raise ReductionError("clause removal broke unit refutation completeness")
    return result
