"""Implicational dual-rail translation and the Horn-side view of propagation.

Each literal l of the source universe gets a meta-variable [[l]].  Every
(clause, literal) pair of the source formula contributes a Horn clause
expressing one unit-propagation step, and each source variable gets a
consistency clause forbidding [[x]] and [[not x]] simultaneously.  Models
of the translation are exactly the literal vectors of partial assignments
closed under unit propagation, which makes Horn reasoning on the
translation a polynomial-time proxy for propagation completeness.
"""

from __future__ import annotations

from .cnf import UNIVERSE_VARS, CnfFormula, PartialAssignment, literal_table, vector_literals
from .deciders import _unrefuted
from .errors import EmptyClauseError, LimitError, PreconditionError, UnsatisfiableError
from .semantics import assignment_walk, prime_implicates


def dual_rail(formula: CnfFormula) -> CnfFormula:
    """The implicational dual-rail translation: a Horn formula over the 2n meta-variables.

    [[v]] = v and [[-v]] = n + v, so a model word is the literal vector of
    the assignment it stands for.  One Horn clause per (clause, literal)
    pair plus one consistency clause per universe variable: the clause
    count is length(formula) + num_vars.  The empty clause, and 2n past
    cnf.UNIVERSE_VARS, are rejected.
    """
    if formula.has_empty_clause():
        raise EmptyClauseError("dual-rail translation is undefined for the empty clause")
    n = formula.num_vars
    if 2 * n > UNIVERSE_VARS:
        raise LimitError(f"{2 * n} meta-variables exceed UNIVERSE_VARS = {UNIVERSE_VARS}")
    # up[lit] = [[lit]], its literal vector bit, 1-based, and down[lit] = -[[lit]], both indexed as
    # UnitPropagator.occ (-v from the end) and taken from one table: one int object per meta literal
    table = literal_table(2 * n)
    up = table[:n + 1] + table[2 * n:n:-1]
    down = [table[-meta] for meta in up]
    clauses: list[list[int]] = []
    for clause in formula.clauses:
        for lit in clause:
            clauses.append([up[lit]] + [down[-other] for other in clause if other != lit])
    for var in range(1, n + 1):
        clauses.append([down[var], down[-var]])
    return CnfFormula.from_clauses(clauses, 2 * n)


def horn_equivalent(h1: CnfFormula, h2: CnfFormula) -> bool:
    """Mutual clause-wise Horn entailment over a shared universe.

    Each side refutes the other's clauses through deciders._unrefuted, so a
    clause both formulas hold is refuted without a run and only the clauses
    where the two differ are propagated, each run sized by the whole
    universe.  The second engine is built only when the first side holds.
    """
    if h1.num_vars != h2.num_vars:
        raise PreconditionError("horn_equivalent requires a shared universe")
    if not h1.is_horn() or not h2.is_horn():
        raise PreconditionError("horn_equivalent requires Horn formulas")
    return not any(_unrefuted(h1, h2.clauses)) and not any(_unrefuted(h2, h1.clauses))


def pc_via_dual_rail(formula: CnfFormula) -> bool:
    """Propagation completeness via dual-rail equivalence with the prime implicates.

    A satisfiable formula is PC iff its dual-rail translation is Horn-
    equivalent to the translation of its full prime implicate set.  Only
    one direction is checked, with one engine: the other always holds, as
    each clause C holds a nonempty prime P, and the translation of P, with
    a consistency clause, refutes each negated clause of the translation
    of C.  The primes also decide satisfiability: those of an
    unsatisfiable formula are exactly the empty clause.  No model is
    enumerated, so the size is bounded only by semantics.PRIME_CLAUSES,
    the prime implicate bound.
    """
    formula.reject_tautologies("pc_via_dual_rail does not accept tautological clauses")
    if formula.has_empty_clause():
        raise EmptyClauseError("pc_via_dual_rail does not accept the empty clause")
    primes = prime_implicates(formula)
    if primes.has_empty_clause():
        raise UnsatisfiableError("pc_via_dual_rail is defined for satisfiable formulas only")
    return not any(_unrefuted(dual_rail(formula), dual_rail(primes).clauses))


CLOSED_LIMIT = 10


def closed_assignments(formula: CnfFormula) -> frozenset[PartialAssignment]:
    """All partial assignments that are semantically closed for the formula.

    These are the assignments alpha with cl_sem(formula, alpha) = alpha; their
    literal vectors, read as words over the meta-variables, form a Horn function.
    """
    n = formula.num_vars
    if n > CLOSED_LIMIT:
        raise LimitError(f"{n} variables exceed the closed-assignment enumeration limit {CLOSED_LIMIT}")
    if n == 0:
        return frozenset({frozenset()})  # cl_sem is lit(empty universe) = {} even when unsatisfiable
    # the walk skips conflicting assignments, whose cl_sem has all 2n literals
    return frozenset(frozenset(vector_literals(alpha, n)) for alpha, _, sem in assignment_walk(formula) if sem == alpha)
