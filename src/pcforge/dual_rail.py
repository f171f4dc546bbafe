"""Implicational dual-rail translation and the Horn-side view of propagation.

Each literal l of the source universe gets a meta-variable [[l]].  Every
(clause, literal) pair of the source formula contributes a Horn clause
expressing one unit-propagation step, and each source variable gets a
consistency clause forbidding [[x]] and [[not x]] simultaneously.  Models
of the translation are exactly the characteristic vectors of partial
assignments closed under unit propagation, which makes Horn reasoning on
the translation a polynomial-time proxy for propagation completeness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import Clause, CnfFormula, Literal, PartialAssignment, make_clause
from .errors import EmptyClauseError, LimitError, PreconditionError, UnsatisfiableError
from .propagation import UnitPropagator
from .semantics import assignment_walk, prime_implicates


@dataclass(frozen=True)
class MetaVarMap:
    """Bijection between source literals and meta-variables.

    Positive literals come first: [[x_i]] = i and [[not x_i]] = n + i for a
    source universe of n variables, so the translation is byte-reproducible.
    """

    num_source_vars: int

    def to_meta(self, lit: Literal) -> int:
        var = abs(lit)
        if not 1 <= var <= self.num_source_vars:
            raise ValueError(f"literal {lit} outside source universe")
        return var if lit > 0 else self.num_source_vars + var

    def from_meta(self, meta_var: int) -> Literal:
        n = self.num_source_vars
        if 1 <= meta_var <= n:
            return meta_var
        if n < meta_var <= 2 * n:
            return -(meta_var - n)
        raise ValueError(f"meta-variable {meta_var} out of range")

    @property
    def num_meta_vars(self) -> int:
        return 2 * self.num_source_vars


@dataclass(frozen=True)
class DualRailFormula:
    horn: CnfFormula
    var_map: MetaVarMap


def dual_rail(formula: CnfFormula) -> DualRailFormula:
    """The implicational dual-rail translation.

    One Horn clause per (clause, literal) pair plus one consistency clause
    per universe variable: the clause count is length(formula) + num_vars.
    The source formula must not contain the empty clause.
    """
    if formula.has_empty_clause():
        raise EmptyClauseError("dual-rail translation is undefined for the empty clause")
    n = formula.num_vars
    var_map = MetaVarMap(n)
    clauses: list[Clause] = []
    for clause in formula.clauses:
        for lit in clause:
            meta = [var_map.to_meta(lit)]
            meta.extend(-var_map.to_meta(-other) for other in clause if other != lit)
            clauses.append(make_clause(meta))
    for var in range(1, n + 1):
        clauses.append(make_clause([-var_map.to_meta(var), -var_map.to_meta(-var)]))
    horn = CnfFormula.from_clauses(clauses, 2 * n)
    return DualRailFormula(horn, var_map)


def horn_entails(horn: CnfFormula, clause: Clause) -> bool:
    """Exact entailment for Horn formulas via unit propagation.

    The clause is entailed iff propagation from its negation refutes the
    formula; for Horn input this check is complete.  (A trail without a
    conflict holds every negated literal, so it derives none of the
    clause.)  The empty clause is entailed iff the formula itself is
    refutable.
    """
    if not horn.is_horn():
        raise PreconditionError("horn_entails requires a Horn formula")
    clause = make_clause(clause)
    for lit in clause:
        if abs(lit) > horn.num_vars:
            raise PreconditionError(f"clause variable {abs(lit)} outside universe")
    return UnitPropagator(horn).refutes(clause)


def horn_equivalent(h1: CnfFormula, h2: CnfFormula) -> bool:
    """Mutual clause-wise Horn entailment over a shared universe."""
    if h1.num_vars != h2.num_vars:
        raise PreconditionError("horn_equivalent requires a shared universe")
    if not h1.is_horn() or not h2.is_horn():
        raise PreconditionError("horn_equivalent requires Horn formulas")
    engine1, engine2 = UnitPropagator(h1), UnitPropagator(h2)
    return all(map(engine1.refutes, h2.clauses)) and all(map(engine2.refutes, h1.clauses))


def pc_via_dual_rail(formula: CnfFormula) -> bool:
    """Propagation completeness via dual-rail equivalence with the prime implicates.

    A satisfiable formula is PC iff its dual-rail translation is Horn-
    equivalent to the translation of its full prime implicate set.  The
    primes also decide satisfiability: those of an unsatisfiable formula
    are exactly the empty clause.  No model is enumerated, so the size is
    bounded only by semantics.PRIME_CLAUSES, the prime implicate bound.
    """
    formula.reject_tautologies("pc_via_dual_rail does not accept tautological clauses")
    if formula.has_empty_clause():
        raise EmptyClauseError("pc_via_dual_rail does not accept the empty clause")
    primes = prime_implicates(formula)
    if primes.has_empty_clause():
        raise UnsatisfiableError("pc_via_dual_rail is defined for satisfiable formulas only")
    return horn_equivalent(dual_rail(formula).horn, dual_rail(primes).horn)


CLOSED_LIMIT = 10


def closed_assignments(formula: CnfFormula) -> frozenset[PartialAssignment]:
    """All partial assignments that are semantically closed for the formula.

    These are the assignments alpha with cl_sem(formula, alpha) = alpha; their
    characteristic vectors over the meta-variables form a Horn function.
    """
    n = formula.num_vars
    if n > CLOSED_LIMIT:
        raise LimitError(f"{n} variables exceed the closed-assignment enumeration limit {CLOSED_LIMIT}")
    if n == 0:
        return frozenset({frozenset()})  # cl_sem is lit(empty universe) = {} even when unsatisfiable
    # the walk skips conflicting assignments, whose cl_sem has all 2n literals; cl_sem
    # contains alpha, so it is alpha when it has as many literals
    return frozenset(alpha for alpha, _, (entailed_pos, entailed_neg) in assignment_walk(formula)
                     if entailed_pos.bit_count() + entailed_neg.bit_count() == len(alpha))


def assignment_vector(alpha: PartialAssignment, var_map: MetaVarMap) -> int:
    """Characteristic vector of a literal set on the meta-variables, as a word."""
    word = 0
    for lit in alpha:
        word |= 1 << (var_map.to_meta(lit) - 1)
    return word
