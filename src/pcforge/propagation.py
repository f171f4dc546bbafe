"""Unit resolution engine, the one home of propagation.

``UnitPropagator`` propagates a set of assumptions (``run``), answers
whether the negation of a clause is refuted (``refutes``) and whether the
negated rest of a clause derives one of its literals (``absorbs``), and
steps the walk over partial assignments one literal at a time (``start``,
``extend``), all from one root: the assumptions, then the formula's
units, propagated.  ``lanes`` propagates many assumption sets in one
bit-parallel pass, one bit per set, to the same fixpoint as a run of
each.  Every module takes its engines from ``_engine``, one per formula.
``up_closure`` computes the closure of a partial assignment; by
convention the closure of a refuted assignment (one from which the empty
clause is derivable) is the full literal set of the universe, which makes
closure results comparable across formulas for the same function.

The propagation state is one signed value per literal and one counter per
clause, both plain lists indexed directly by literals and clause indices.
A lane pass keeps one Python-int mask per literal instead, bit j set when
the literal holds under assumption set j, and no counters: a clause fires
in the lanes where all its literals but one are false.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import (Clause, CnfFormula, Literal, PartialAssignment, formula_cache, is_tautological, literal_key,
                  literal_vector_unchecked, make_assignment)


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
    """Counter-based propagation over a fixed formula, reusable across calls.

    The state is one signed value per literal, val[lit] = 1 when lit is
    true, -1 when false and 0 while open, kept so that val[-lit] ==
    -val[lit] (-v indexes from the end, as in occ), and, per clause, a
    count of literals not yet processed as false (Dowling and Gallier's
    scheme): a clause with a true literal never reaches 0, so 0 is a
    conflict.  A walk node is (vector, val, counts), vector the closed
    assignment's literal vector.
    """

    __slots__ = ("num_vars", "clauses", "occ", "lengths", "units", "empty")

    def __init__(self, formula: CnfFormula):
        self.num_vars = formula.num_vars
        self.clauses = clauses = formula.clauses
        self.lengths = lengths = list(map(len, clauses))
        # static units in clause order, up to the first empty clause, where every run stops
        self.empty = lengths.index(0) if 0 in lengths else None
        stop = len(clauses) if self.empty is None else self.empty
        self.units = [clause[0] for clause, length in zip(clauses[:stop], lengths) if length == 1]
        # occ[lit] lists the clauses containing lit; -v indexes from the end, slot 0 is unused.  The literals
        # that occur nowhere then share one empty tuple (on a dual-rail translation, half of them); one pass
        # after the fill costs less than testing every append for a first occurrence (18 % on encode builds).
        occ: list[list[int] | tuple[()]] = [[] for _ in range(2 * formula.num_vars + 1)]
        for idx, clause in enumerate(clauses):
            for lit in clause:
                occ[lit].append(idx)
        for lit, lits in enumerate(occ):
            if not lits:
                occ[lit] = ()
        self.occ = occ

    def run(self, assumptions=()) -> tuple[bool, list[Literal], int | None]:
        """Propagate to fixpoint; returns (conflict, assigned literals in order, empty clause index)."""
        _, _, trail, empty = self._root(assumptions)
        return empty is not None, trail, empty

    def refutes(self, clause: Clause) -> bool:
        """Does propagation from the negation of the clause conflict?  A tautology's negation is refuted by itself."""
        return is_tautological(clause) or self.run([-lit for lit in clause])[0]

    def absorbs(self, clause: Clause, lit: Literal) -> bool:
        """Does propagation from the negation of the rest of the clause derive lit or a conflict?"""
        conflict, trail, _ = self.run([-other for other in clause if other != lit])
        return conflict or lit in trail

    def start(self) -> tuple | None:
        """The root node of a walk over partial assignments, or None when the static units conflict."""
        val, counts, trail, empty = self._root()
        return None if empty is not None else (literal_vector_unchecked(trail, self.num_vars), val, counts)

    def extend(self, node: tuple, lit: Literal) -> tuple | None:
        """The node after also assuming lit, or None on conflict; node itself when lit is already derived."""
        vector, val, counts = node
        state = val[lit]
        if state:  # already derived: nothing changes; its complement: a conflict
            return node if state > 0 else None
        val, counts = val.copy(), counts.copy()
        val[lit], val[-lit] = 1, -1
        trail = [lit]
        if self._propagate(val, counts, trail) is not None:
            return None
        return vector | literal_vector_unchecked(trail, self.num_vars), val, counts

    def lanes(self, assumption_sets) -> tuple[list[int], int]:
        """Propagate every assumption set at once, one bit per set (a lane); returns (true, refuted).

        true[lit] is a Python int whose bit j is set when lit holds in lane j
        (indexed as occ), and bit j of refuted is set when lane j conflicts:
        an inconsistent assumption set conflicts, and true is left partial in
        a refuted lane.  The fixpoint is each lane's run: the same conflicts
        and, in the other lanes, the same derived literals.
        """
        nv, occ, clauses = self.num_vars, self.occ, self.clauses
        true = [0] * (2 * nv + 1)
        # pending[lit]: the lanes where lit became true since its clauses were last visited
        pending: dict[int, int] = {}
        bit = 1
        for lits in assumption_sets:
            for lit in lits:
                pending[lit] = pending.get(lit, 0) | bit
            bit <<= 1
        for lit in pending:
            if not 1 <= abs(lit) <= nv:
                raise ValueError(f"assumed literal {lit} outside universe 1..{nv}")
        full = bit - 1
        if self.empty is not None:
            return true, full
        for lit in self.units:
            pending[lit] = full
        for lit, grown in pending.items():
            true[lit] = grown
        work = list(pending)
        refuted = 0
        for lit in work:  # the iterator also visits the literals appended on the way
            lanes = pending.pop(lit)
            # a lane where lit and -lit hold conflicts; with no clause all false, only an inconsistent
            # assumption set shows this way.  A refuted lane propagates no further.
            refuted |= lanes & true[-lit]
            lanes &= ~refuted
            if not lanes:
                continue
            # a clause holding -lit, now false in these lanes, is all false in those of them where every
            # other literal is false (none0), and fires its one other literal that is not false where
            # exactly one is not (none1): two running masks over the other literals, in O(k) int operations
            neg = -lit
            for idx in occ[neg]:
                none0, none1 = lanes, 0
                for other in clauses[idx]:
                    if other != neg:
                        false = true[-other]
                        both = none0 & false
                        none1 = (none1 & false) | (none0 ^ both)
                        none0 = both
                if none0:
                    refuted |= none0
                if not none1:
                    continue
                for other in clauses[idx]:
                    if other != neg:
                        known = true[other]
                        grown = none1 & ~(known | true[-other])
                        if grown:
                            true[other] = known | grown
                            if other in pending:
                                pending[other] |= grown
                            else:
                                pending[other] = grown
                                work.append(other)
        return true, refuted

    def _root(self, assumptions=()) -> tuple[list[int], list[int], list[Literal], int | None]:
        """(val, counts, trail, empty index) after the assumptions, then the static units, then propagation."""
        nv = self.num_vars
        val = [0] * (2 * nv + 1)
        trail: list[Literal] = []
        for lit in assumptions:
            if not (1 <= abs(lit) <= nv):
                raise ValueError(f"assumed literal {lit} outside universe 1..{nv}")
            state = val[lit]
            if state < 0:
                raise ValueError("inconsistent assumption set")
            if state == 0:
                val[lit], val[-lit] = 1, -1
                trail.append(lit)
        for lit in self.units:
            # a falsified static unit conflicts in _propagate, once the assumption is processed
            if val[lit] == 0:
                val[lit], val[-lit] = 1, -1
                trail.append(lit)
        counts = self.lengths.copy()
        empty = self.empty if self.empty is not None else self._propagate(val, counts, trail)
        return val, counts, trail, empty

    def _propagate(self, val: list[int], counts: list[int], trail: list[Literal]) -> int | None:
        """Process the trail to fixpoint, updating every argument in place.

        val already holds the trail's literals; counts reflect only the
        literals assigned before them.  At count 1 a clause's open literal is
        assigned unless one of its literals is true.  Returns the index of a
        clause that became empty, or None.
        """
        occ, clauses = self.occ, self.clauses
        for lit in trail:  # the iterator also visits the literals appended on the way
            for idx in occ[-lit]:
                remaining = counts[idx] - 1
                counts[idx] = remaining
                if remaining > 1:
                    continue
                if remaining == 0:
                    return idx
                for cand in clauses[idx]:
                    state = val[cand]
                    if state == 0:
                        val[cand], val[-cand] = 1, -1
                        trail.append(cand)
                        break
                    if state > 0:
                        break
        return None


def all_literals(num_vars: int) -> frozenset[Literal]:
    return frozenset(range(1, num_vars + 1)) | frozenset(-v for v in range(1, num_vars + 1))


@formula_cache
def _engine(formula: CnfFormula) -> UnitPropagator:
    """The formula's engine: built once, on the first request, and shared by every later request on an equal
    formula for as long as the formula lives (cnf.formula_cache).  It holds the clauses, not the formula."""
    return UnitPropagator(formula)


def up_closure(formula: CnfFormula, alpha: PartialAssignment) -> PropagationResult:
    """Closure of alpha under unit propagation in the formula.

    Conflict means the empty clause is derivable from the formula plus alpha,
    in which case the closure is all literals of the universe.  The
    assumptions are processed in literal_key order, so ``empty_clause``
    depends on alpha only as a set.
    """
    alpha = make_assignment(alpha)
    conflict, trail, empty_idx = _engine(formula).run(sorted(alpha, key=literal_key))
    empty = formula.clauses[empty_idx] if empty_idx is not None else None
    if conflict:
        return PropagationResult(True, all_literals(formula.num_vars), empty)
    return PropagationResult(False, frozenset(trail), None)
